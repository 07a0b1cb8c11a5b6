"""The CSV format of every table monofit writes or reads.

A table is an optional preamble of ``# key=value`` lines, each ended by LF,
then a header row and data rows in :mod:`csv` writer defaults: comma
separated, minimal quoting, rows ended by CRLF.  Floats carry 17
significant digits, enough to round-trip any double, so a table is a pure
function of the values written.  Booleans are written as 1 and 0.
"""

import csv
from contextlib import contextmanager

import numpy as np

__all__ = ["write_table", "read_table"]

FLOAT_FMT = "%.17g"


def _cell(value):
    """One CSV cell: bools as 1/0, floats at 17 significant digits, the rest by str."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def _column(values):
    """The cells of one column; a float array skips the per-cell type dispatch."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return map(FLOAT_FMT.__mod__, values)
    return map(_cell, values)


def write_table(path, header, columns, preamble=None):
    """Write equal-length ``columns`` under ``header`` to ``path``, one row at a time.

    ``preamble`` maps keys to values written as ``# key=value`` lines ahead
    of the header.  Every value is formatted as the module docstring states.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in (preamble or {}).items():
            fh.write("# %s=%s\n" % (key, _cell(value)))
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*map(_column, columns), strict=True))


@contextmanager
def read_table(path, header):
    """Open a table written by :func:`write_table`.

    Yields ``(preamble, rows)``: the preamble as a dict of stripped strings
    and an iterator over the data rows as lists of strings, blank lines
    skipped.  Raises ValueError when the header differs from ``header``.
    """
    header = list(header)
    preamble = {}
    with open(path, newline="", encoding="utf-8") as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].partition("=")
            preamble[key.strip()] = value.strip()
            line = fh.readline()
        found = next(csv.reader([line]), None)
        if found is None or [h.strip() for h in found] != header:
            raise ValueError("%s: expected header %s" % (path, ",".join(header)))
        yield preamble, (row for row in csv.reader(fh) if row)
