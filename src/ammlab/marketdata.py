"""Ingestion of trades, 1 Hz bar aggregation, and chronological splits.

Trades stay three numpy columns, ``(timestamp_ms, price, size)``, from the
CSV reader to ``aggregate``, which turns them into one OHLCV bar per
second. Volume is quote-denominated (price * size) because downstream fee
accrual scales with notional volume. Seconds without trades carry the
previous close forward with zero volume so the simulation clock is
gap-free. Both readers and ``aggregate`` reject prices that are not finite
and positive and sizes or volumes that are not finite and non-negative.

``write_bars_csv`` also writes a binary copy of the bar columns beside the
CSV, ``<path>.npz``, holding the sha256 of the CSV bytes it wrote.
``read_bars_csv`` takes the columns from that copy, instead of parsing the
CSV, only when the copy has exactly the bar layout and its digest equals
the sha256 of the CSV's current bytes. Every float cell is the shortest
round-trip text of its value, so both paths give the same bits; the CSV
stays the one source of truth, and an edited, stale, truncated or foreign
copy is ignored. The trade CSV comes from outside and gets no copy.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .errors import DomainError, EmptyData, UnsortedInput


@dataclass(frozen=True)
class BarSeries:
    """Column-oriented bar storage with consecutive, gap-free seconds."""

    t: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

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


def _check_domain(kind, positive, nonnegative) -> None:
    """Raise ``DomainError`` at the first row where a ``positive`` column is
    not finite and > 0 or a ``nonnegative`` column not finite and >= 0."""
    ok = np.logical_and.reduce(
        [(col > 0) & (col < np.inf) for col in positive.values()]
        + [(col >= 0) & (col < np.inf) for col in nonnegative.values()]
    )
    if not ok.all():
        i = int(np.argmin(ok))
        cells = ", ".join(f"{name}={col[i]}" for name, col in {**positive, **nonnegative}.items())
        raise DomainError(
            f"{kind} row {i} ({cells}): {'/'.join(positive)} must be finite and > 0, "
            f"{'/'.join(nonnegative)} finite and >= 0"
        )


def aggregate(ts_ms: np.ndarray, price: np.ndarray, size: np.ndarray) -> BarSeries:
    """Aggregate int64 ``ts_ms`` and float64 ``price`` and ``size`` trade
    columns into gap-free 1 Hz OHLCV bars.

    One bar per second from the first to the last trade second. A bar's
    volume is the sum of price*size over its trades; tradeless seconds get
    o=h=l=c equal to the previous close and volume 0.
    """
    if len(ts_ms) == 0:
        raise EmptyData("no trades to aggregate")
    if np.any(np.diff(ts_ms) < 0):
        raise UnsortedInput("trade timestamps must be non-decreasing")
    _check_domain("trade", {"price": price}, {"size": size})

    # the input is sorted, so each trade-bearing second starts where sec changes
    sec = ts_ms // 1000
    first_idx = np.flatnonzero(np.r_[True, sec[1:] != sec[:-1]])
    last_idx = np.append(first_idx[1:], len(sec)) - 1
    t0, t1 = int(sec[0]), int(sec[-1])
    slot = sec[first_idx] - t0

    # every second reads the latest trade-bearing second at or before it
    src = np.zeros(t1 - t0 + 1, dtype=np.int64)
    src[slot] = np.arange(len(slot))
    np.maximum.accumulate(src, out=src)
    traded = np.zeros(len(src), dtype=bool)
    traded[slot] = True

    close = price[last_idx][src]

    def traded_or_close(per_second):
        return np.where(traded, per_second[src], close)

    return BarSeries(
        t=np.arange(t0, t1 + 1, dtype=np.int64),
        open=traded_or_close(price[first_idx]),
        high=traded_or_close(np.maximum.reduceat(price, first_idx)),
        low=traded_or_close(np.minimum.reduceat(price, first_idx)),
        close=close,
        volume=np.where(traded, np.add.reduceat(price * size, first_idx)[src], 0.0),
    )


def split(series: BarSeries, fractions: tuple[float, float, float]) -> tuple[BarSeries, BarSeries, BarSeries]:
    """Chronological (train, validation, test) segments; a short series can leave one empty."""
    f_train, f_val, f_test = fractions
    if min(f_train, f_val, f_test) <= 0:
        raise ValueError("split fractions must be positive")
    if abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    n = len(series)
    i = int(np.floor(n * f_train))
    j = int(np.floor(n * (f_train + f_val)))
    return series.slice(0, i), series.slice(i, j), series.slice(j, n)


TRADE_HEADER = ["timestamp_ms", "price", "size"]
BAR_HEADER = ["t", "open", "high", "low", "close", "volume"]
BAR_DTYPES = (np.dtype(np.int64),) + (np.dtype(np.float64),) * 5


def read_trades_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(timestamp_ms, price, size)`` columns of a trade CSV, for ``aggregate``."""
    return artifacts.read_columns(path, TRADE_HEADER, (np.int64, np.float64, np.float64))


def _copy_path(path) -> str:
    """Where ``write_bars_csv`` puts the binary copy of the bar CSV at ``path``."""
    return os.fspath(path) + ".npz"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 18), b""):  # bounded memory, as hashlib.file_digest (3.11+)
            digest.update(block)
    return digest.hexdigest()


def _is_bar_layout(columns) -> bool:
    """int64 ``t`` and float64 price and volume columns, 1-D and of equal length."""
    return (
        all(col.ndim == 1 and col.dtype == dt for col, dt in zip(columns, BAR_DTYPES))
        and len({len(col) for col in columns}) == 1
    )


def _columns_from_copy(path):
    """The bar columns of the copy beside ``path``, or None unless it exists,
    loads without pickle, has exactly the bar layout and holds the sha256
    of the CSV's current bytes."""
    try:
        # np.load leaves a file it opened itself open when the zip is damaged
        with open(_copy_path(path), "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile) or sorted(npz.files) != sorted(BAR_HEADER + ["sha256"]):
                return None
            columns = tuple(npz[name] for name in BAR_HEADER)
            digest = npz["sha256"]
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):  # OSError: no copy
        return None
    return columns if _is_bar_layout(columns) and str(digest) == _sha256(path) else None


def read_bars_csv(path) -> BarSeries:
    """The bar series of a bar CSV, from its binary copy when that matches."""
    columns = _columns_from_copy(path)
    if columns is None:
        columns = artifacts.read_columns(path, BAR_HEADER, BAR_DTYPES)
    t, o, h, l, c, v = columns
    if len(t) == 0:
        raise EmptyData("bar file has no rows")
    if np.any(np.diff(t) != 1):
        raise UnsortedInput("bar seconds must be consecutive and gap-free")
    _check_domain("bar", {"open": o, "high": h, "low": l, "close": c}, {"volume": v})
    return BarSeries(t=t, open=o, high=h, low=l, close=c, volume=v)


def write_bars_csv(path, series: BarSeries) -> list[str]:
    """Write the bar CSV at ``path`` and, beside it, its binary copy; return both paths."""
    columns = (series.t, series.open, series.high, series.low, series.close, series.volume)
    artifacts.write_columns(path, BAR_HEADER, columns)
    copy = _copy_path(path)
    # every array is int64, float64 or str, so no pickled object is written
    np.savez(copy, sha256=_sha256(path), **dict(zip(BAR_HEADER, columns)))
    return [os.fspath(path), copy]
