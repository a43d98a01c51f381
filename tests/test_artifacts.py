import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ammlab import artifacts

EDGE_FLOATS = [-0.0, 5e-324, -2.2250738585072014e-308, float("inf"), float("-inf"), sys.float_info.max]
FLOAT64 = hst.one_of(hst.floats(allow_nan=False), hst.sampled_from(EDGE_FLOATS))
NANS = [float("nan"), -float("nan"), struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0]]
EDGE_COLUMN = np.array(EDGE_FLOATS + NANS + [0.0, 1e16, 1e-5])  # -0.0 and 0.0 in one chunk
INT64 = hst.integers(-(2**63), 2**63 - 1)


def bits(x) -> bytes:
    return struct.pack("<d", x)


class TestCsv:
    @settings(max_examples=200, deadline=None)
    @given(hst.lists(hst.tuples(INT64, hst.one_of(FLOAT64, FLOAT64.map(np.float64))), min_size=1, max_size=8))
    def test_float_cells_round_trip_bit_for_bit(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "cells.csv"
        artifacts.write_csv(path, ["n", "value"], rows)
        n, value = artifacts.read_columns(path, ["n", "value"], [np.int64, np.float64])
        assert n.dtype == np.int64 and n.tolist() == [i for i, _ in rows]
        assert [bits(x) for x in value.tolist()] == [bits(v) for _, v in rows]

    # lengths around the chunk size; a few distinct values drawn n times
    # make every chunk repeat cells, as the QVI grid axes do
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 10_001])
    @settings(max_examples=10, deadline=None)
    @given(
        ints=hst.lists(INT64, min_size=1, max_size=8),
        floats=hst.lists(hst.one_of(hst.floats(), hst.sampled_from(EDGE_FLOATS + NANS)), min_size=1, max_size=8),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_write_columns_matches_csv_writer(self, tmp_path_factory, n, ints, floats, seed):
        rng = np.random.default_rng(seed)
        labels = ["jump", "continuation", "1.5", " x "]
        columns = [
            np.array(ints, dtype=np.int64)[rng.integers(0, len(ints), n)],
            np.array(floats)[rng.integers(0, len(floats), n)],
            EDGE_COLUMN[rng.integers(0, len(EDGE_COLUMN), n)],
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            rng.random(n) < 0.5,
            np.array(labels)[rng.integers(0, len(labels), n)],
            np.array(labels, dtype=object)[rng.integers(0, len(labels), n)],
        ]
        header = [f"c{k}" for k in range(len(columns))]
        d = tmp_path_factory.mktemp("cols")
        artifacts.write_columns(d / "columns.csv", header, columns)
        artifacts.write_csv(d / "rows.csv", header, zip(*(col.tolist() for col in columns)))
        assert (d / "columns.csv").read_bytes() == (d / "rows.csv").read_bytes()

    def test_write_columns_rejects_unequal_lengths(self, tmp_path):
        with pytest.raises(ValueError, match="unequal length"):
            artifacts.write_columns(tmp_path / "x.csv", ["a", "b"], [np.arange(3), np.zeros(2)])
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a\rb", "a\nb", ""])
    def test_write_columns_refuses_cells_that_need_quoting(self, tmp_path, label):
        with pytest.raises(ValueError, match="would need quoting"):
            artifacts.write_columns(tmp_path / "x.csv", ["a", "b"], [np.arange(2), np.array(["ok", label])])
        with pytest.raises(ValueError, match="would need quoting"):
            artifacts.write_columns(tmp_path / "y.csv", ["a", label], [np.arange(2), np.arange(2)])

    def test_wrong_or_missing_header_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        artifacts.write_csv(path, ["a", "b"], [[1, 2]])
        a, b = artifacts.read_columns(path, ["a", "b"], [np.int64, np.float64])
        assert a.tolist() == [1] and b.tolist() == [2.0]
        with pytest.raises(ValueError):
            artifacts.read_columns(path, ["a", "c"], [np.int64, np.float64])
        path.write_text("")
        with pytest.raises(ValueError):
            artifacts.read_columns(path, ["a", "b"], [np.int64, np.float64])

    def test_header_only_gives_empty_columns_without_warning(self, tmp_path):
        path = tmp_path / "x.csv"
        artifacts.write_csv(path, ["a", "b"], [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = artifacts.read_columns(path, ["a", "b"], [np.int64, np.float64])
        assert (a.dtype, b.dtype, len(a), len(b)) == (np.int64, np.float64, 0, 0)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_endings(self, tmp_path, newline):
        path = tmp_path / "x.csv"
        path.write_bytes(newline.join(["a,b", "1,0.5", "2,-1.5", ""]).encode())
        a, b = artifacts.read_columns(path, ["a", "b"], [np.int64, np.float64])
        assert a.tolist() == [1, 2] and b.tolist() == [0.5, -1.5]

    @pytest.mark.parametrize("row", ["#1,2", "1,#2", "1", "1,2,3", "1.5,2", "x,2"])
    def test_malformed_row_rejected(self, tmp_path, row):
        path = tmp_path / "x.csv"
        path.write_text(f"a,b\n1,2\n{row}\n")
        with pytest.raises(ValueError):
            artifacts.read_columns(path, ["a", "b"], [np.int64, np.float64])

    @pytest.mark.parametrize("bad_row", [0, 4095, 4096, 4999])
    def test_malformed_row_named_by_file_line(self, tmp_path, bad_row):
        # the header is line 1, so data row k (0-based) is line k + 2, in any chunk
        rows = [f"{k},0.5" for k in range(5000)]
        rows[bad_row] = "1;0.5"
        path = tmp_path / "x.csv"
        path.write_text("\n".join(["a,b"] + rows) + "\n")
        with pytest.raises(ValueError, match=rf": line {bad_row + 2}: '1;0.5' is not 2 cells"):
            artifacts.read_columns(path, ["a", "b"], [np.int64, np.float64])
