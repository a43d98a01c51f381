"""Trade ingestion, 1 Hz bar aggregation, and chronological splits.

Raw trades are aggregated into one OHLCV bar per second. Volume is
quote-denominated (price * size) because downstream fee accrual scales
with notional volume. Seconds without trades carry the previous close
forward with zero volume so the simulation clock is gap-free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import artifacts
from .errors import EmptyData, InsufficientData, UnsortedInput


@dataclass(frozen=True)
class Trade:
    timestamp_ms: int
    price: float
    size: float


@dataclass(frozen=True)
class BarSeries:
    """Column-oriented bar storage with consecutive, gap-free seconds.

    ``split_marks`` are two indices (i, j) so that bars[:i] is the training
    segment, bars[i:j] validation, bars[j:] test.
    """

    t: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray
    split_marks: tuple[int, int] | None = None

    def __len__(self) -> int:
        return len(self.t)

    def slice(self, start: int, stop: int) -> "BarSeries":
        return BarSeries(
            t=self.t[start:stop],
            open=self.open[start:stop],
            high=self.high[start:stop],
            low=self.low[start:stop],
            close=self.close[start:stop],
            volume=self.volume[start:stop],
        )

    def segments(self) -> tuple["BarSeries", "BarSeries", "BarSeries"]:
        if self.split_marks is None:
            raise InsufficientData("series has no split marks; call split() first")
        i, j = self.split_marks
        return self.slice(0, i), self.slice(i, j), self.slice(j, len(self))


def aggregate(trades: Sequence[Trade]) -> BarSeries:
    """Aggregate trades into gap-free 1 Hz OHLCV bars.

    One bar per second from the first to the last trade second. A bar's
    volume is the sum of price*size over its trades; tradeless seconds get
    o=h=l=c equal to the previous close and volume 0.
    """
    if len(trades) == 0:
        raise EmptyData("no trades to aggregate")

    ts_ms = np.array([tr.timestamp_ms for tr in trades], dtype=np.int64)
    if np.any(np.diff(ts_ms) < 0):
        raise UnsortedInput("trade timestamps must be non-decreasing")
    price = np.array([tr.price for tr in trades], dtype=np.float64)
    size = np.array([tr.size for tr in trades], dtype=np.float64)

    sec = ts_ms // 1000
    t0, t1 = int(sec[0]), int(sec[-1])
    n = t1 - t0 + 1

    # boundaries of each trade-bearing second within the sorted trade arrays
    uniq, first_idx = np.unique(sec, return_index=True)
    last_idx = np.append(first_idx[1:], len(sec)) - 1
    notional = price * size

    o = np.empty(n)
    h = np.empty(n)
    l = np.empty(n)
    c = np.empty(n)
    v = np.zeros(n)

    slot = (uniq - t0).astype(np.int64)
    o_trade = price[first_idx]
    c_trade = price[last_idx]
    h_trade = np.maximum.reduceat(price, first_idx)
    l_trade = np.minimum.reduceat(price, first_idx)
    v_trade = np.add.reduceat(notional, first_idx)

    filled = np.zeros(n, dtype=bool)
    filled[slot] = True
    o[slot] = o_trade
    h[slot] = h_trade
    l[slot] = l_trade
    c[slot] = c_trade
    v[slot] = v_trade

    # carry the previous close into tradeless seconds
    carry = np.nan
    for i in range(n):
        if filled[i]:
            carry = c[i]
        else:
            o[i] = h[i] = l[i] = c[i] = carry

    return BarSeries(
        t=np.arange(t0, t1 + 1, dtype=np.int64),
        open=o,
        high=h,
        low=l,
        close=c,
        volume=v,
    )


def split(series: BarSeries, fractions: tuple[float, float, float]) -> BarSeries:
    """Mark chronological train/validation/test boundaries on a series."""
    f_train, f_val, f_test = fractions
    if min(f_train, f_val, f_test) <= 0:
        raise ValueError("split fractions must be positive")
    if abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    n = len(series)
    if n < 3:
        raise InsufficientData(f"need at least 3 bars to split, got {n}")
    i = int(np.floor(n * f_train))
    j = int(np.floor(n * (f_train + f_val)))
    return replace(series, split_marks=(i, j))


TRADE_HEADER = ["timestamp_ms", "price", "size"]
BAR_HEADER = ["t", "open", "high", "low", "close", "volume"]


def read_trades_csv(path) -> list[Trade]:
    rows = artifacts.read_csv(path, TRADE_HEADER)
    return [Trade(int(row[0]), float(row[1]), float(row[2])) for row in rows]


def write_trades_csv(path, trades: Iterable[Trade]) -> None:
    artifacts.write_csv(path, TRADE_HEADER, ((tr.timestamp_ms, tr.price, tr.size) for tr in trades))


def read_bars_csv(path) -> BarSeries:
    rows = list(artifacts.read_csv(path, BAR_HEADER))
    if not rows:
        raise EmptyData("bar file has no rows")
    arr = np.array(rows, dtype=np.float64)
    t = arr[:, 0].astype(np.int64)
    if np.any(np.diff(t) != 1):
        raise UnsortedInput("bar seconds must be consecutive and gap-free")
    return BarSeries(
        t=t,
        open=arr[:, 1],
        high=arr[:, 2],
        low=arr[:, 3],
        close=arr[:, 4],
        volume=arr[:, 5],
    )


def write_bars_csv(path, series: BarSeries) -> None:
    columns = (series.t, series.open, series.high, series.low, series.close, series.volume)
    artifacts.write_csv(path, BAR_HEADER, artifacts.column_rows(*columns))
