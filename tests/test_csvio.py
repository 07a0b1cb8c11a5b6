"""Tests for the shared CSV format: one byte layout whatever the column type."""

import numpy as np
import pytest

from monofit.csvio import read_table, write_table


def test_float_array_column_writes_the_same_bytes_as_cells(tmp_path):
    # float arrays take the bulk path, other columns go cell by cell
    values = np.random.default_rng(0).normal(size=50) * 10.0 ** np.arange(-25, 25)
    flags = [bool(v > 0) for v in values]
    bulk, cells = tmp_path / "bulk.csv", tmp_path / "cells.csv"
    write_table(bulk, ("i", "v", "flag"), (range(50), values, flags), {"sigma": 0.1})
    write_table(cells, ("i", "v", "flag"), (range(50), values.tolist(), flags), {"sigma": 0.1})
    assert bulk.read_bytes() == cells.read_bytes()
    lines = bulk.read_bytes().split(b"\n")
    assert lines[0] == b"# sigma=0.10000000000000001"
    assert lines[1] == b"i,v,flag\r"
    with read_table(bulk, ("i", "v", "flag")) as (preamble, rows):
        rows = list(rows)
    assert preamble == {"sigma": "0.10000000000000001"}
    assert [float(r[1]) for r in rows] == values.tolist()
    assert [r[2] for r in rows] == ["1" if f else "0" for f in flags]


def test_columns_of_unequal_length_refused(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a", "b"), (np.zeros(3), np.zeros(2)))
