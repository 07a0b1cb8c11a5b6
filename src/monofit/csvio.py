"""The CSV format of every table monofit writes or reads.

A table is an optional preamble of ``# key=value`` lines, each ended by LF,
then a header row and data rows as :class:`csv.writer` writes them by
default: comma separated, rows ended by CRLF, and a cell holding a comma, a
double quote, CR or LF (or a lone empty cell) wrapped in double quotes, with
inner ones doubled.  Preamble values are not quoted.  Floats, numpy's of
any width included, carry 17 significant digits, enough to round-trip any
double, so a table is a pure function of the values written.  Booleans,
numpy's included, are 1 and 0.

Every table is written ``CHUNK_ROWS`` rows at a time, one ``%`` per row: a
float array column from its chunk's ``.tolist()``, any other column sliced
and formatted cell by cell.  Reads go ``CHUNK_ROWS`` lines at a time too:
:func:`read_chunks` parses each chunk with one :func:`numpy.loadtxt` call,
so a reader holds the columns it keeps plus one chunk of text and rows;
:func:`read_columns` joins every chunk into one array per column.
"""

import csv
import itertools
import warnings

import numpy as np

__all__ = ["write_table", "read_chunks", "read_columns"]

FLOAT_FMT = "%.17g"
# Rows formatted per write and lines parsed per read: bounds the text held in memory at once.
CHUNK_ROWS = 8192


def _cell(value, quoted=True):
    """One cell as the module docstring states; a preamble value is not ``quoted``."""
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    text = str(value)
    if quoted and ("," in text or '"' in text or "\r" in text or "\n" in text):
        return '"%s"' % text.replace('"', '""')
    return text


def _is_float_array(values):
    return isinstance(values, np.ndarray) and values.dtype.kind == "f"


def _cells(part, lone):
    """A chunk of one column: a float array's floats, else its cells; as
    csv.writer does, an empty cell of a one-column (``lone``) table is quoted."""
    if _is_float_array(part):
        return part.tolist()
    return [_cell(v) or '""' for v in part] if lone else map(_cell, part)


def write_table(path, header, columns, preamble=None):
    """Write equal-length ``columns`` under ``header`` to ``path``.

    ``preamble`` maps keys to ``# key=value`` lines ahead of the header.
    Cells are formatted and quoted as the module docstring states.  Columns,
    numpy arrays or other sliceable sequences, go ``CHUNK_ROWS`` rows at a
    time; a count or length mismatch is refused before the file is opened.
    """
    n = len(columns[0]) if columns else 0
    if len(header) != len(columns) or any(len(c) != n for c in columns):
        raise ValueError("%d header names for columns of lengths %s" % (len(header), [len(c) for c in columns]))
    row = ",".join([FLOAT_FMT if _is_float_array(c) else "%s" for c in columns]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in (preamble or {}).items():
            fh.write("# %s=%s\n" % (key, _cell(value, quoted=False)))
        fh.write(",".join(_cells(header, len(header) == 1)) + "\r\n")
        for start in range(0, n, CHUNK_ROWS):
            chunk = [_cells(c[start : start + CHUNK_ROWS], len(columns) == 1) for c in columns]
            fh.write("".join(map(row.__mod__, zip(*chunk))))


def _first_bad_line(lines, first, options):
    """``line N: reason: 'text'`` for the first of ``lines``, numbered from
    ``first``, that ``np.loadtxt(**options)`` refuses on its own, or None.

    Used only once a chunk has failed, to say where.
    """
    width = len(options["dtype"])
    for lineno, line in enumerate(lines, first):
        text = line.rstrip("\r\n")
        if not text:
            continue
        try:
            np.loadtxt([line], **options)
        except ValueError as exc:
            cells = len(next(csv.reader([text])))
            reason = exc.__cause__ or exc
            if cells != width:
                reason = "expected %d cells, found %d" % (width, cells)
            return "line %d: %s: %r" % (lineno, reason, text)
    return None


def read_chunks(path, dtypes, converters=None):
    """Read a table written by :func:`write_table` a chunk of rows at a time.

    ``dtypes`` maps each header name, in header order, to its column's numpy
    dtype; ``converters`` maps a column name to a function from cell text
    to value, as :func:`numpy.loadtxt` takes them.  A generator: it yields
    the preamble as a dict of stripped strings, then the data rows as
    structured arrays of one field per name, each from ``CHUNK_ROWS`` lines
    or fewer; a chunk of blank lines only is not yielded.  Blank lines are
    skipped; every other data line must hold one parsable cell per column.
    Raises ValueError naming ``path`` when the header differs from the
    names, or naming the first line of a chunk that does not parse.
    """
    header = list(dtypes)
    preamble = {}
    with open(path, newline="", encoding="utf-8") as fh:
        line, lineno = fh.readline(), 1
        while line.startswith("#"):
            key, _, value = line[1:].partition("=")
            preamble[key.strip()] = value.strip()
            line, lineno = fh.readline(), lineno + 1
        found = next(csv.reader([line]), None)
        if found is None or [h.strip() for h in found] != header:
            raise ValueError("%s: expected header %s" % (path, ",".join(header)))
        yield preamble
        options = {
            "dtype": list(dtypes.items()),
            "delimiter": ",",
            "quotechar": '"',
            "comments": None,
            "ndmin": 1,
            "converters": {header.index(name): fn for name, fn in (converters or {}).items()},
        }
        while lines := list(itertools.islice(fh, CHUNK_ROWS)):
            try:
                with warnings.catch_warnings():
                    # a chunk of blank lines reads as no rows
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    table = np.loadtxt(lines, **options)
            except ValueError as exc:
                where = _first_bad_line(lines, lineno + 1, options)
                raise ValueError("%s: %s" % (path, where or exc)) from None
            lineno += len(lines)
            if table.size:
                yield table


def read_columns(path, dtypes):
    """Read a whole table by :func:`read_chunks` as one array per column.

    Takes the path and dtypes of :func:`read_chunks` and refuses what it refuses.
    Returns ``(preamble, columns)``: the preamble dict and a dict of
    contiguous 1-d arrays by name, empty for a table with no data rows.
    """
    chunks = read_chunks(path, dtypes)
    preamble = next(chunks)
    # each chunk's columns copied out, so no chunk stays alive as a whole
    parts = {name: [np.empty(0, dtype)] for name, dtype in dtypes.items()}
    for chunk in chunks:
        for name, part in parts.items():
            part.append(np.ascontiguousarray(chunk[name]))
    return preamble, {name: np.concatenate(parts.pop(name)) for name in dtypes}
