import hashlib
import math
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ammlab import artifacts, marketdata as md
from ammlab.errors import DomainError, EmptyData, UnsortedInput


def trades(*rows):
    """(timestamp_ms, price, size) columns from (seconds, price, size) rows."""
    return (
        np.array([int(t * 1000) for t, _, _ in rows], dtype=np.int64),
        np.array([p for _, p, _ in rows], dtype=np.float64),
        np.array([s for _, _, s in rows], dtype=np.float64),
    )


def columns_bits(series):
    """Each bar column as a list of int64 bit patterns, so -0.0 != 0.0."""
    return [getattr(series, name).view(np.int64).tolist() for name in md.BAR_HEADER]


def bar_at(series, i):
    """(t, open, high, low, close) of bar i."""
    return tuple(getattr(series, col)[i] for col in ("t", "open", "high", "low", "close"))


def reference_bars(ts_ms, price, size):
    """The aggregation one second at a time: (t, o, h, l, c, v) rows."""
    by_second = {}
    for t, p, q in zip(ts_ms.tolist(), price.tolist(), size.tolist()):
        by_second.setdefault(t // 1000, []).append((p, q))
    rows, close = [], None
    for sec in range(ts_ms[0] // 1000, ts_ms[-1] // 1000 + 1):
        second = by_second.get(sec)
        if second is None:
            rows.append((sec, close, close, close, close, 0.0))
            continue
        prices = [p for p, _ in second]
        close = prices[-1]
        rows.append((sec, prices[0], max(prices), min(prices), close, math.fsum(p * q for p, q in second)))
    return rows


# millisecond steps between consecutive trades: same millisecond, same
# second, the next second, and gaps that leave tradeless seconds
TRADE_STEP_MS = hst.one_of(hst.sampled_from([0, 0, 1, 999, 1000, 3500]), hst.integers(0, 6000))
TRADE_ROWS = hst.lists(
    hst.tuples(TRADE_STEP_MS, hst.floats(1e-3, 1e6), hst.floats(0.0, 1e3)), min_size=1, max_size=60
)


class TestAggregate:
    def test_two_trades_one_second(self):
        series = md.aggregate(*trades((5, 100.0, 1.0), (5.4, 102.0, 1.0)))
        assert bar_at(series, 0) == (5, 100.0, 102.0, 100.0, 102.0)
        assert series.volume[0] == pytest.approx(202.0)

    def test_single_trade_degenerate_bar(self):
        series = md.aggregate(*trades((7, 50.0, 2.5)))
        assert bar_at(series, 0) == (7, 50.0, 50.0, 50.0, 50.0)
        assert series.volume[0] == pytest.approx(125.0)

    def test_gap_fill_carries_close(self):
        series = md.aggregate(*trades((5, 100.0, 1.0), (5.9, 101.0, 1.0), (7, 99.0, 1.0)))
        assert len(series) == 3
        assert bar_at(series, 1) == (6, 101.0, 101.0, 101.0, 101.0)
        assert series.volume[1] == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyData):
            md.aggregate([], [], [])

    def test_unsorted_input_rejected(self):
        with pytest.raises(UnsortedInput):
            md.aggregate(*trades((5, 100.0, 1.0), (4, 100.0, 1.0)))

    def test_volume_round_trip(self):
        rng = np.random.default_rng(0)
        ts = np.sort(rng.integers(0, 60_000, size=500))
        price, size = rng.uniform(90, 110, 500), rng.uniform(0.1, 3.0, 500)
        series = md.aggregate(ts, price, size)
        assert np.sum(series.volume) == pytest.approx(np.sum(price * size), rel=1e-9)

    def test_gap_fill_preserves_trading_closes(self):
        rng = np.random.default_rng(1)
        ts = np.sort(rng.integers(0, 30_000, size=120))
        price = rng.uniform(90, 110, 120)
        series = md.aggregate(ts, price, np.ones(120))
        # last trade price of each trade-bearing second must equal that bar's close
        by_second = dict(zip((ts // 1000).tolist(), price.tolist()))
        for sec, last_price in by_second.items():
            assert series.close[sec - ts[0] // 1000] == last_price

    @settings(max_examples=200, deadline=None)
    @given(hst.integers(0, 2 * 10**12), TRADE_ROWS)
    def test_matches_per_second_reference(self, start_ms, rows):
        ts_ms = start_ms + np.cumsum([step for step, _, _ in rows], dtype=np.int64)
        price = np.array([p for _, p, _ in rows])
        size = np.array([q for _, _, q in rows])
        series = md.aggregate(ts_ms, price, size)
        ref = reference_bars(ts_ms, price, size)
        t, o, h, l, c, v = (np.array(col) for col in zip(*ref))
        assert series.t.dtype == np.int64 and np.array_equal(series.t, t)
        for got, want in [(series.open, o), (series.high, h), (series.low, l), (series.close, c)]:
            assert got.tobytes() == want.tobytes()
        assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0) for a, b in zip(series.volume, v))
        assert np.all(series.low <= np.minimum(series.open, series.close))
        assert np.all(np.maximum(series.open, series.close) <= series.high)
        carried = ~np.isin(series.t, ts_ms // 1000)
        flat = (series.open == series.close) & (series.high == series.close) & (series.low == series.close)
        assert np.all(flat[carried]) and np.all(series.volume[carried] == 0.0)
        last_price = dict(zip((ts_ms // 1000).tolist(), price.tolist()))
        assert all(series.close[sec - series.t[0]] == p for sec, p in last_price.items())

    @pytest.mark.parametrize("bad", [(1, "price", math.nan), (1, "price", -5.0), (0, "price", 0.0),
                                     (2, "price", math.inf), (1, "size", -3.0), (2, "size", math.nan),
                                     (0, "size", math.inf)])
    def test_impossible_trade_rejected_at_its_row(self, bad):
        row, column, value = bad
        ts_ms, price, size = trades((5, 100.0, 1.0), (5.5, 101.0, 1.0), (6, 99.0, 1.0))
        {"price": price, "size": size}[column][row] = value
        with pytest.raises(DomainError, match=f"trade row {row} "):
            md.aggregate(ts_ms, price, size)

    def test_zero_size_accepted(self):
        series = md.aggregate(*trades((5, 100.0, 0.0)))
        assert series.volume[0] == 0.0


class TestSplit:
    def test_marks_100(self):
        segments = md.split(_flat_series(100), (0.7, 0.15, 0.15))
        assert [len(s) for s in segments] == [70, 15, 15]

    def test_marks_floor_rounding(self):
        segments = md.split(_flat_series(10), (0.7, 0.15, 0.15))
        assert [len(s) for s in segments] == [7, 1, 2]

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            md.split(_flat_series(100), (0.5, 0.5, 0.1))

    @settings(max_examples=200, deadline=None)
    @given(
        n=hst.integers(0, 60),
        weights=hst.tuples(*[hst.floats(1e-3, 1.0)] * 3),
    )
    def test_chronological_floor_cuts(self, n, weights):
        # any length splits, a short series into empty segments
        fractions = tuple(w / sum(weights) for w in weights)
        rising = np.arange(1.0, n + 1.0)
        series = md.BarSeries(t=np.arange(n, dtype=np.int64), open=rising, high=rising + 1.0,
                              low=rising - 0.5, close=rising + 0.5, volume=rising * 2.0)
        segments = md.split(series, fractions)
        i = math.floor(n * fractions[0])
        j = math.floor(n * (fractions[0] + fractions[1]))
        assert [len(seg) for seg in segments] == [i, j - i, n - j]
        for column in ("t", "open", "high", "low", "close", "volume"):
            joined = np.concatenate([getattr(seg, column) for seg in segments])
            assert np.array_equal(joined, getattr(series, column)), column

    def test_segments_partition(self):
        series = _flat_series(47)
        train, val, test = md.split(series, (0.6, 0.2, 0.2))
        assert len(train) + len(val) + len(test) == 47
        recombined = np.concatenate([train.t, val.t, test.t])
        assert np.array_equal(recombined, series.t)


def _flat_series(n):
    return md.aggregate(np.arange(n) * 1000, np.full(n, 100.0), np.ones(n))


BAR_TEXT = "t,open,high,low,close,volume\n1,1,1,1,1,0\n2,1,1,1,1,0\n"


class TestCsv:
    def test_trade_round_trip(self, tmp_path):
        rows = trades((5, 100.125, 1.5), (6, 99.875, 0.25))
        path = tmp_path / "trades.csv"
        artifacts.write_csv(path, md.TRADE_HEADER, zip(*(col.tolist() for col in rows)))
        back = md.read_trades_csv(path)
        assert [col.dtype for col in back] == [np.int64, np.float64, np.float64]
        assert all(np.array_equal(a, b) for a, b in zip(back, rows))

    def test_bar_round_trip(self, tmp_path):
        series = md.aggregate(*trades((5, 100.0, 1.0), (7, 101.0, 2.0)))
        path = tmp_path / "bars.csv"
        _, copy = md.write_bars_csv(path, series)
        os.remove(copy)  # read the CSV text, not its copy
        assert columns_bits(md.read_bars_csv(path)) == columns_bits(series)

    def test_bar_bytes_match_csv_writer(self, tmp_path):
        series = md.aggregate(*trades((5, 100.0, 1.0), (7, 101.0, 2.0)))
        md.write_bars_csv(tmp_path / "bars.csv", series)
        rows = [
            (int(series.t[k]), *(float(getattr(series, f)[k]) for f in ("open", "high", "low", "close", "volume")))
            for k in range(len(series))
        ]
        artifacts.write_csv(tmp_path / "ref.csv", md.BAR_HEADER, rows)
        assert (tmp_path / "bars.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

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

    @pytest.mark.parametrize("t", ["0.5", "1.5"])
    def test_fractional_bar_second_rejected(self, tmp_path, t):
        path = tmp_path / "bars.csv"
        path.write_text(BAR_TEXT.replace("\n2,", f"\n{t},"))
        with pytest.raises(ValueError):
            md.read_bars_csv(path)

    @pytest.mark.parametrize("column", ["open", "high", "low", "close", "volume"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1.0"])
    def test_impossible_bar_rejected_at_its_row(self, tmp_path, column, value):
        k = md.BAR_HEADER.index(column)
        cells = "2,1,1,1,1,0".split(",")
        cells[k] = value
        path = tmp_path / "bars.csv"
        path.write_text(BAR_TEXT.replace("2,1,1,1,1,0", ",".join(cells)))
        with pytest.raises(DomainError, match="bar row 1 "):
            md.read_bars_csv(path)

    def test_header_only_trade_file_is_empty_data(self, tmp_path):
        path = tmp_path / "trades.csv"
        path.write_text("timestamp_ms,price,size\n")
        with pytest.raises(EmptyData):
            md.aggregate(*md.read_trades_csv(path))

    def test_header_only_bar_file_is_empty_data(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text("t,open,high,low,close,volume\n")
        with pytest.raises(EmptyData):
            md.read_bars_csv(path)

    def test_blank_trade_line_skipped(self, tmp_path):
        path = tmp_path / "trades.csv"
        path.write_text("timestamp_ms,price,size\n1000,100.0,1.0\n\n2500,101.0,2.0\n")
        ts_ms, price, size = md.read_trades_csv(path)
        assert ts_ms.tolist() == [1000, 2500] and price.tolist() == [100.0, 101.0]

    def test_malformed_trade_row_rejected(self, tmp_path):
        path = tmp_path / "trades.csv"
        path.write_text("timestamp_ms,price,size\n1000,100.0\n")
        with pytest.raises(ValueError):
            md.read_trades_csv(path)

    @pytest.mark.parametrize(
        "rows, line",
        [(["1000,100.0,1.0", "2000,x,1.0"], 3), (["1000,100.0"], 2), (["1000,100.0,1.0", "", "2000,1.0"], 4)],
    )
    def test_malformed_trade_row_names_file_and_line(self, tmp_path, rows, line):
        path = tmp_path / "trades.csv"
        path.write_text("\n".join(["timestamp_ms,price,size"] + rows) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {line}: "):
            md.read_trades_csv(path)

    @pytest.mark.parametrize(
        "rows, line",
        [(["1,1,1,1,1,0", "2,1,1,x,1,0"], 3), (["1,1,1,1,1"], 2), (["1,1,1,1,1,0", "", "2,1,1,1,1,0,7"], 4)],
    )
    def test_malformed_bar_row_names_file_and_line(self, tmp_path, rows, line):
        path = tmp_path / "bars.csv"
        path.write_text("\n".join(["t,open,high,low,close,volume"] + rows) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {line}: "):
            md.read_bars_csv(path)


def parse_only():
    """Patch the bar reader so that parsing the CSV fails the test."""
    return mock.patch.object(artifacts, "read_columns", side_effect=AssertionError("CSV parsed"))


def bar_series(t0, rows):
    """A BarSeries from (open, high, low, close, volume) rows starting at second t0."""
    cols = np.array(rows, dtype=np.float64).reshape(-1, 5).T
    return md.BarSeries(np.arange(t0, t0 + len(rows), dtype=np.int64), *cols)


# 17 significant digits, the longest shortest-repr a float64 needs
PRICES = hst.one_of(hst.floats(1e-3, 1e6), hst.sampled_from([0.30000000000000004, 100.00000000000001, 5e-324]))
VOLUMES = hst.one_of(hst.sampled_from([0.0, -0.0]), hst.floats(0.0, 1e12))
BAR_ROWS = hst.lists(hst.tuples(PRICES, PRICES, PRICES, PRICES, VOLUMES), min_size=1, max_size=40)


class TestBarCopy:
    @settings(max_examples=60, deadline=None)
    @given(t0=hst.integers(-(2**40), 2**40), rows=BAR_ROWS)
    def test_copy_and_parse_give_the_written_bits(self, tmp_path_factory, t0, rows):
        series = bar_series(t0, rows)
        path = tmp_path_factory.mktemp("bars") / "bars.csv"
        _, copy = md.write_bars_csv(path, series)
        with parse_only():
            from_copy = md.read_bars_csv(path)
        os.remove(copy)
        parsed = md.read_bars_csv(path)
        assert columns_bits(from_copy) == columns_bits(parsed) == columns_bits(series)

    def test_edited_csv_is_read_as_edited(self, tmp_path):
        path = tmp_path / "bars.csv"
        md.write_bars_csv(path, _flat_series(5))
        path.write_bytes(path.read_bytes().replace(b"\r\n3,100.0,100.0,100.0,100.0,", b"\r\n3,100.0,100.0,100.0,99.5,"))
        assert md.read_bars_csv(path).close.tolist() == [100.0, 100.0, 100.0, 99.5, 100.0]

    def test_malformed_edit_raises_the_parse_error(self, tmp_path):
        path = tmp_path / "bars.csv"
        md.write_bars_csv(path, _flat_series(5))
        path.write_bytes(path.read_bytes().replace(b"\r\n3,100.0,", b"\r\n3,x,"))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 5: "):
            md.read_bars_csv(path)

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "empty", "t_float", "unequal_lengths", "extra_key", "no_digest", "pickled", "lone_array"],
    )
    def test_damaged_or_foreign_copy_falls_back_to_parsing(self, tmp_path, damage):
        path = tmp_path / "bars.csv"
        series = md.aggregate(*trades((5, 100.0, 1.0), (7, 101.0, 2.0), (8, 100.5, 0.5)))
        copy = Path(md.write_bars_csv(path, series)[1])
        columns = {name: getattr(series, name) for name in md.BAR_HEADER}
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if damage == "truncated":
            data = copy.read_bytes()
            copy.write_bytes(data[: len(data) // 2])
        elif damage == "empty":
            copy.write_bytes(b"")
        elif damage == "t_float":
            np.savez(copy, sha256=digest, **{**columns, "t": series.t.astype(np.float64)})
        elif damage == "unequal_lengths":
            np.savez(copy, sha256=digest, **{**columns, "volume": series.volume[:-1]})
        elif damage == "extra_key":
            np.savez(copy, sha256=digest, extra=np.zeros(3), **columns)
        elif damage == "no_digest":
            np.savez(copy, **columns)
        elif damage == "pickled":
            np.savez(copy, sha256=np.array([digest], dtype=object), **columns)
        elif damage == "lone_array":
            with copy.open("wb") as fh:
                np.save(fh, series.close)
        with mock.patch.object(artifacts, "read_columns", wraps=artifacts.read_columns) as parse:
            back = md.read_bars_csv(path)
        assert parse.call_count == 1
        assert columns_bits(back) == columns_bits(series)

    def test_negative_volume_rejected_on_the_copy_path(self, tmp_path):
        path = tmp_path / "bars.csv"
        md.write_bars_csv(path, bar_series(10, [(1.0, 1.0, 1.0, 1.0, 0.0)] * 3 + [(1.0, 1.0, 1.0, 1.0, -2.0)]))
        with parse_only(), pytest.raises(DomainError, match="bar row 3 "):
            md.read_bars_csv(path)
