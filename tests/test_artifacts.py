import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ammlab import artifacts

EDGE_FLOATS = [-0.0, 5e-324, -2.2250738585072014e-308, float("inf"), float("-inf"), sys.float_info.max]
FLOAT64 = hst.one_of(hst.floats(allow_nan=False), hst.sampled_from(EDGE_FLOATS))


def bits(x) -> bytes:
    return struct.pack("<d", x)


class TestCsv:
    @settings(max_examples=200, deadline=None)
    @given(hst.lists(hst.one_of(FLOAT64, FLOAT64.map(np.float64)), min_size=1, max_size=8))
    def test_float_cells_round_trip_bit_for_bit(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "floats.csv"
        artifacts.write_csv(path, ["value"], [[v] for v in values])
        cells = [row[0] for row in artifacts.read_csv(path, ["value"])]
        assert [bits(float(c)) for c in cells] == [bits(v) for v in values]

    @pytest.mark.parametrize("n", [0, 1, 4096, 10_001])
    def test_column_rows_match_whole_columns(self, n):
        t = np.arange(n)
        x = np.random.default_rng(n).random(n)
        assert list(artifacts.column_rows(t, x)) == list(zip(t.tolist(), x.tolist()))

    def test_wrong_or_missing_header_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        artifacts.write_csv(path, ["a", "b"], [[1, 2]])
        assert list(artifacts.read_csv(path, ["a", "b"])) == [["1", "2"]]
        with pytest.raises(ValueError):
            list(artifacts.read_csv(path, ["a", "c"]))
        path.write_text("")
        with pytest.raises(ValueError):
            list(artifacts.read_csv(path, ["a", "b"]))
