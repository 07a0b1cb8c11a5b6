"""Tests for the shared CSV format: one byte layout whatever the column type."""

import csv
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monofit import csvio
from monofit.csvio import read_columns, write_table

# every kind of double: subnormals, signed zeros, infinities, NaN, +-max
DOUBLES = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)
SINGLES = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=32)
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max,
         np.inf, -np.inf, np.nan, 0.1, 1.0 / 3.0]
# text with every character minimal quoting reacts to, and the empty string
TEXT = st.text(st.sampled_from('a1 .-é,"\r\n'), max_size=5)


def _oracle_cell(value):
    """A cell as the module docstring states it, before quoting."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def write_oracle(path, header, columns, preamble=None):
    """The table format built on the standard library's csv.writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in (preamble or {}).items():
            fh.write("# %s=%s\n" % (key, _oracle_cell(value)))
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*[[_oracle_cell(v) for v in column] for column in columns]))


def test_float_array_column_writes_the_same_bytes_as_cells(tmp_path):
    # a mixed table: a float array column beside int and bool cells
    values = np.random.default_rng(0).normal(size=50) * 10.0 ** np.arange(-25, 25)
    flags = [bool(v > 0) for v in values]
    table, oracle = tmp_path / "table.csv", tmp_path / "oracle.csv"
    write_table(table, ("i", "v", "flag"), (range(50), values, flags), {"sigma": 0.1})
    write_oracle(oracle, ("i", "v", "flag"), (range(50), values, flags), {"sigma": 0.1})
    assert table.read_bytes() == oracle.read_bytes()
    lines = table.read_bytes().split(b"\n")
    assert lines[0] == b"# sigma=0.10000000000000001"
    assert lines[1] == b"i,v,flag\r"
    preamble, cols = read_columns(table, {"i": "i8", "v": float, "flag": "U1"})
    assert preamble == {"sigma": "0.10000000000000001"}
    assert cols["i"].tolist() == list(range(50))
    assert cols["v"].tolist() == values.tolist()
    assert cols["flag"].tolist() == ["1" if f else "0" for f in flags]


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(DOUBLES, DOUBLES), max_size=40),
    chunk=st.integers(1, 9),
    preamble=st.booleans(),
)
@example(rows=[(v, -v) for v in EDGES], chunk=5, preamble=True)
def test_float_table_bytes_and_bits_match_the_cell_writer(tmp_path_factory, rows, chunk, preamble):
    # an all-float-array table against csv.writer over 17-digit cells
    tmp = tmp_path_factory.mktemp("floats")
    knots = np.array([r[0] for r in rows], dtype=float)
    values = np.array([r[1] for r in rows], dtype=float)
    meta = {"n": len(rows), "projected": True} if preamble else None
    with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
        write_table(tmp / "table.csv", ("knot", "value"), (knots, values), meta)
    write_oracle(tmp / "oracle.csv", ("knot", "value"), (knots, values), meta)
    assert (tmp / "table.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()
    _, cols = read_columns(tmp / "table.csv", {"knot": float, "value": float})
    for wrote, read in ((knots, cols["knot"]), (values, cols["value"])):
        assert read.dtype == np.float64 and read.shape == wrote.shape and read.flags.c_contiguous
        nan = np.isnan(wrote)
        assert np.array_equal(np.isnan(read), nan)
        assert np.array_equal(read[~nan].view(np.int64), wrote[~nan].view(np.int64))


# a column of n cells of one kind, as the writers receive them
COLUMN_KINDS = {
    "float array": lambda n: st.lists(DOUBLES, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float)),
    "floats": lambda n: st.lists(DOUBLES, min_size=n, max_size=n),
    "float32 array": lambda n: st.lists(SINGLES, min_size=n, max_size=n).map(lambda v: np.array(v, np.float32)),
    "numpy floats": lambda n: st.lists(SINGLES, min_size=n, max_size=n).map(lambda v: list(np.array(v, np.float32))),
    # seeds at and above 2**63 beside small ints, as risks.csv holds them
    "ints": lambda n: st.lists(st.integers(0, 2**64 - 1) | st.integers(-9, 9), min_size=n, max_size=n),
    "bools": lambda n: st.lists(st.booleans(), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=bool)),
    "strings": lambda n: st.lists(TEXT, min_size=n, max_size=n),
}


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=4))
    header = draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds)))
    return header, [draw(COLUMN_KINDS[kind](n)) for kind in kinds]


# preamble values are written as they are, never quoted
PREAMBLES = st.none() | st.dictionaries(
    st.text("kn", min_size=1, max_size=3), TEXT | DOUBLES | st.integers() | st.booleans()
)


@settings(max_examples=150, deadline=None)
@given(table=tables(), chunk=st.integers(1, 5), preamble=PREAMBLES)
# seeds of one risks.csv on both sides of 2**63, which numpy would promote to float64
@example(table=(["seed"], [[2104981337374783651, 13549174823201938815, 7]]), chunk=2, preamble=None)
@example(table=(["mode"], [["", "a,b", ""]]), chunk=2, preamble={"note": 'a,"b"'})
@example(table=([""], [["", 'say "hi"', "two\r\nlines"]]), chunk=1, preamble=None)
def test_any_table_writes_the_bytes_of_the_standard_writer(tmp_path_factory, table, chunk, preamble):
    header, columns = table
    tmp = tmp_path_factory.mktemp("mixed")
    with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
        write_table(tmp / "table.csv", header, columns, preamble)
    write_oracle(tmp / "oracle.csv", header, columns, preamble)
    assert (tmp / "table.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()


def test_numpy_bools_are_written_as_one_and_zero(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("flag", "other"), (np.array([True, False]), [np.False_, np.True_]), {"projected": np.True_})
    assert path.read_bytes() == b"# projected=1\nflag,other\r\n1,0\r\n0,1\r\n"


def test_numpy_float_scalars_are_written_at_17_digits(tmp_path):
    # a float32 cell reads the same from a list as from an array, and in the preamble
    path = tmp_path / "t.csv"
    write_table(path, ("list", "array"), ([np.float32(0.1)], np.array([0.1], np.float32)), {"s": np.float32(0.1)})
    assert path.read_bytes() == b"# s=0.10000000149011612\nlist,array\r\n0.10000000149011612,0.10000000149011612\r\n"


def test_columns_of_unequal_length_refused(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a", "b"), (np.zeros(3), np.zeros(2)))
    # a third column under a two-name header would write rows no reader takes
    with pytest.raises(ValueError, match=r"2 header names for columns of lengths \[2, 2, 2\]"):
        write_table(tmp_path / "t.csv", ("a", "b"), (np.zeros(2), np.zeros(2), np.zeros(2)))
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "body, message",
    [
        ("0.5,1\r\n0.75\r\n", "line 4: expected 2 cells, found 1: '0.75'"),
        ("0.5,1\r\n0.75,2,3\r\n", "line 4: expected 2 cells, found 3: '0.75,2,3'"),
        ("0.5,1\r\n\r\n0.75,abc\r\n", "line 5: could not convert string to float: 'abc': '0.75,abc'"),
    ],
)
def test_refusals_name_the_file_and_the_line(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text("# n=2\nknot,value\r\n" + body, newline="")
    with pytest.raises(ValueError) as refused:
        read_columns(path, {"knot": float, "value": float})
    assert str(refused.value) == "%s: %s" % (path, message)


def test_header_only_table_reads_as_empty_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("knot", "value"), (np.zeros(0), np.zeros(0)), {"n": 0})
    preamble, cols = read_columns(path, {"knot": float, "value": float})
    assert preamble == {"n": "0"}
    assert cols["knot"].shape == (0,) and cols["value"].shape == (0,)
