"""Tests for the shared CSV format: one byte layout whatever the column type."""

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
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max,
         np.inf, -np.inf, np.nan, 0.1, 1.0 / 3.0]


def test_float_array_column_writes_the_same_bytes_as_cells(tmp_path):
    # a mixed table: float arrays skip the per-cell dispatch, other columns go cell by cell
    values = np.random.default_rng(0).normal(size=50) * 10.0 ** np.arange(-25, 25)
    flags = [bool(v > 0) for v in values]
    bulk, cells = tmp_path / "bulk.csv", tmp_path / "cells.csv"
    write_table(bulk, ("i", "v", "flag"), (range(50), values, flags), {"sigma": 0.1})
    write_table(cells, ("i", "v", "flag"), (range(50), values.tolist(), flags), {"sigma": 0.1})
    assert bulk.read_bytes() == cells.read_bytes()
    lines = bulk.read_bytes().split(b"\n")
    assert lines[0] == b"# sigma=0.10000000000000001"
    assert lines[1] == b"i,v,flag\r"
    preamble, cols = read_columns(bulk, {"i": "i8", "v": float, "flag": "U1"})
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
    # the bulk path (all float arrays) against csv.writer over .tolist() cells
    tmp = tmp_path_factory.mktemp("floats")
    knots = np.array([r[0] for r in rows], dtype=float)
    values = np.array([r[1] for r in rows], dtype=float)
    meta = {"n": len(rows), "projected": True} if preamble else None
    with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
        write_table(tmp / "bulk.csv", ("knot", "value"), (knots, values), meta)
    write_table(tmp / "cells.csv", ("knot", "value"), (knots.tolist(), values.tolist()), meta)
    assert (tmp / "bulk.csv").read_bytes() == (tmp / "cells.csv").read_bytes()
    _, cols = read_columns(tmp / "bulk.csv", {"knot": float, "value": float})
    for wrote, read in ((knots, cols["knot"]), (values, cols["value"])):
        assert read.dtype == np.float64 and read.shape == wrote.shape and read.flags.c_contiguous
        nan = np.isnan(wrote)
        assert np.array_equal(np.isnan(read), nan)
        assert np.array_equal(read[~nan].view(np.int64), wrote[~nan].view(np.int64))


def test_columns_of_unequal_length_refused(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a", "b"), (np.zeros(3), np.zeros(2)))


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
