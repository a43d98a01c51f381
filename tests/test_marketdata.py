import numpy as np
import pytest

from ammlab import marketdata as md
from ammlab.errors import EmptyData, InsufficientData, UnsortedInput


def trades(*rows):
    return [md.Trade(int(t * 1000), p, s) for t, p, s in rows]


def bar_at(series, i):
    """(t, open, high, low, close) of bar i."""
    return tuple(getattr(series, col)[i] for col in ("t", "open", "high", "low", "close"))


class TestAggregate:
    def test_two_trades_one_second(self):
        series = md.aggregate(trades((5, 100.0, 1.0), (5.4, 102.0, 1.0)))
        assert bar_at(series, 0) == (5, 100.0, 102.0, 100.0, 102.0)
        assert series.volume[0] == pytest.approx(202.0)

    def test_single_trade_degenerate_bar(self):
        series = md.aggregate(trades((7, 50.0, 2.5)))
        assert bar_at(series, 0) == (7, 50.0, 50.0, 50.0, 50.0)
        assert series.volume[0] == pytest.approx(125.0)

    def test_gap_fill_carries_close(self):
        series = md.aggregate(trades((5, 100.0, 1.0), (5.9, 101.0, 1.0), (7, 99.0, 1.0)))
        assert len(series) == 3
        assert bar_at(series, 1) == (6, 101.0, 101.0, 101.0, 101.0)
        assert series.volume[1] == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyData):
            md.aggregate([])

    def test_unsorted_input_rejected(self):
        with pytest.raises(UnsortedInput):
            md.aggregate(trades((5, 100.0, 1.0), (4, 100.0, 1.0)))

    def test_volume_round_trip(self):
        rng = np.random.default_rng(0)
        ts = np.sort(rng.integers(0, 60_000, size=500))
        rows = [md.Trade(int(t), float(p), float(s)) for t, p, s in
                zip(ts, rng.uniform(90, 110, 500), rng.uniform(0.1, 3.0, 500))]
        series = md.aggregate(rows)
        total = sum(tr.price * tr.size for tr in rows)
        assert np.sum(series.volume) == pytest.approx(total, rel=1e-9)

    def test_gap_fill_preserves_trading_closes(self):
        rng = np.random.default_rng(1)
        ts = np.sort(rng.integers(0, 30_000, size=120))
        rows = [md.Trade(int(t), float(p), 1.0) for t, p in zip(ts, rng.uniform(90, 110, 120))]
        series = md.aggregate(rows)
        # last trade price of each trade-bearing second must equal that bar's close
        by_second = {}
        for tr in rows:
            by_second[tr.timestamp_ms // 1000] = tr.price
        for sec, price in by_second.items():
            assert series.close[sec - rows[0].timestamp_ms // 1000] == price


class TestSplit:
    def test_marks_100(self):
        series = _flat_series(100)
        assert md.split(series, (0.7, 0.15, 0.15)).split_marks == (70, 85)

    def test_marks_floor_rounding(self):
        series = _flat_series(10)
        assert md.split(series, (0.7, 0.15, 0.15)).split_marks == (7, 8)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            md.split(_flat_series(100), (0.5, 0.5, 0.1))

    def test_too_few_bars(self):
        with pytest.raises(InsufficientData):
            md.split(_flat_series(2), (0.7, 0.15, 0.15))

    def test_segments_partition(self):
        series = md.split(_flat_series(47), (0.6, 0.2, 0.2))
        train, val, test = series.segments()
        assert len(train) + len(val) + len(test) == 47
        recombined = np.concatenate([train.t, val.t, test.t])
        assert np.array_equal(recombined, series.t)


def _flat_series(n):
    return md.aggregate([md.Trade(i * 1000, 100.0, 1.0) for i in range(n)])


class TestCsv:
    def test_trade_round_trip(self, tmp_path):
        rows = trades((5, 100.125, 1.5), (6, 99.875, 0.25))
        path = tmp_path / "trades.csv"
        md.write_trades_csv(path, rows)
        assert md.read_trades_csv(path) == rows

    def test_bar_round_trip(self, tmp_path):
        series = md.aggregate(trades((5, 100.0, 1.0), (7, 101.0, 2.0)))
        path = tmp_path / "bars.csv"
        md.write_bars_csv(path, series)
        back = md.read_bars_csv(path)
        for field in ("t", "open", "high", "low", "close", "volume"):
            assert np.array_equal(getattr(back, field), getattr(series, field))

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            md.read_trades_csv(path)

    def test_gappy_bar_file_rejected(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("t,open,high,low,close,volume\n1,1,1,1,1,0\n3,1,1,1,1,0\n")
        with pytest.raises(UnsortedInput):
            md.read_bars_csv(path)
