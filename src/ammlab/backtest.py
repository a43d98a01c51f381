"""Strategy backtests, gas-cost sweeps, and decision-boundary grids.

The runner walks a bar series from one recenter to the next. It searches
for each recenter in windows of bars: FIRST_WINDOW bars at bar 0, twice
the previous hold (at least one bar) after a recenter, and twice as many
after each window without one, up to WINDOW_CAP. The strategy's
first_recenter answers for one window at a time, given the run's own
position. ammcore.hold accrues the bars the strategy held in that window
before the next is searched, and ammcore.step applies a recenter and
accrues that same bar's fees (its docstring states the fee-bar
convention). Every decision, report and trace is the one a bar-by-bar
loop over Strategy.decide gives, whatever the window sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ammcore, artifacts, envsim, neural
from .ammcore import PoolConfig
from .envsim import FeatureTrack
from .errors import EmptyData
from .marketdata import BarSeries
from .strategies import Strategy

FIRST_WINDOW = 4  # bars in the first window searched from bar 0
WINDOW_CAP = 512  # most bars in one window, so most rows in one batched policy forward


@dataclass(frozen=True)
class BacktestReport:
    strategy: str
    active_fraction: float
    normalized_liquidity: float
    rebalance_count: int
    total_fees: float
    total_gas: float
    net_roi: float
    config_hash: str = ""
    trace_path: str | None = None

    def metrics(self) -> dict:
        return {
            "active_frac": self.active_fraction,
            "lambda": self.normalized_liquidity,
            "rebalances": self.rebalance_count,
            "fees": self.total_fees,
            "gas": self.total_gas,
            "net_roi": self.net_roi,
        }

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "config_hash": self.config_hash,
            "metrics": self.metrics(),
            "trace_path": self.trace_path,
        }


def run(
    strategy: Strategy,
    series: BarSeries,
    cfg: PoolConfig | None = None,
    features: FeatureTrack | None = None,
):
    """Backtest one strategy over one series; returns (report, trace).

    The trace holds one row per bar as equal-length numpy columns keyed by
    envsim.TRACE_HEADER. ``action`` is 1 on the bars where the strategy
    recentered; the opening placement is not a row. ``center``, ``fee``,
    ``gas`` and ``in_range`` are taken after that bar's decision, ``theta``
    is the observation's (FeatureTrack.bar_columns: 0.0 where the estimate
    is invalid).
    """
    if len(series) == 0:
        raise EmptyData("cannot backtest an empty series")
    cfg = cfg or PoolConfig()
    features = features or FeatureTrack(series)
    _check_features(series, features)
    center0, width0 = strategy.initial_range(series, cfg.width)
    pos = ammcore.open_position(center0, cfg, width=width0)

    n = len(series)
    close, volume = series.close, series.volume
    center, fee, gas = np.empty(n), np.empty(n), np.zeros(n)
    action, in_range = np.zeros(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    start, lo, size = 0, 0, FIRST_WINDOW  # the held stretch began at start; the window at lo
    while lo < n:
        hi = min(lo + min(size, WINDOW_CAP), n)
        found = strategy.first_recenter(lo, hi, pos, features)
        if found is not None and not lo <= found[0] < hi:
            raise ValueError(f"{strategy.name} recenters at bar {found[0]}, outside [{lo}, {hi})")
        stop, target = found or (hi, None)
        if stop > lo:
            fee[lo:stop], in_range[lo:stop] = ammcore.hold(pos, close[lo:stop], volume[lo:stop], cfg)
            center[lo:stop] = pos.center
        if target is None:
            lo, size = hi, 2 * size
        else:
            price = float(close[stop])
            fee[stop], gas[stop] = ammcore.step(pos, target, price, float(volume[stop]), cfg)
            center[stop] = pos.center
            action[stop] = 1
            in_range[stop] = ammcore.in_range(pos, price)
            size = max(2 * (stop - start), 1)
            start = lo = stop + 1

    report = BacktestReport(
        strategy=strategy.name,
        active_fraction=ammcore.active_fraction(pos),
        normalized_liquidity=ammcore.concentration(pos.width),
        rebalance_count=pos.rebalance_count,
        total_fees=pos.accrued_fees,
        total_gas=pos.accrued_gas,
        net_roi=ammcore.net_roi(pos),
    )
    trace = {
        "t": series.t,
        "price": series.close,
        "center": center,
        "action": action,
        "fee": fee,
        "gas": gas,
        "theta": features.bar_columns[:, 0],
        "in_range": in_range,
    }
    return report, trace


def _check_features(series: BarSeries, features: FeatureTrack) -> None:
    """Strategies read prices from features.series, the accounting from series."""
    if features.series is not series and not np.array_equal(features.series.close, series.close, equal_nan=True):
        raise ValueError("features were computed on another series: their closes differ from the series'")


def rebalance_deviations(trace) -> list[float]:
    """Relative deviations |S/c - 1| at each recenter of a backtest trace.

    The deviation is measured against the center held *before* the
    recenter was applied, i.e. the trigger depth. A recenter at bar 0 is
    skipped: the trace holds no center before it.
    """
    i = np.flatnonzero(trace["action"][1:]) + 1
    return np.abs(trace["price"][i] / trace["center"][i - 1] - 1.0).tolist()


def gas_sweep(
    strategies,
    series: BarSeries,
    gas_levels=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0),
    cfg: PoolConfig | None = None,
    features: FeatureTrack | None = None,
):
    """Net ROI per (gas level, strategy) plus interpolated break-even gas.

    Returns (rows, break_evens): rows are (gas, name, net_roi) and
    break_evens maps strategy.name -> gas where net ROI crosses zero (linear
    interpolation between bracketing levels; ROI is affine in gas for
    gas-blind strategies, so extrapolation from the last segment is used
    when no bracket exists).

    Each strategy is backtested once: no strategy decides on gas, so
    fees and the rebalance count are the same at every level, and each
    level's gas is re-accrued from that count exactly as a run at that
    level would accrue it.
    """
    if any(g <= 0 for g in gas_levels):
        raise ValueError("gas levels must be positive")
    gas_levels = sorted(float(g) for g in gas_levels)
    if len(gas_levels) < 2:
        raise ValueError("gas sweep needs at least two gas levels")
    if len(set(gas_levels)) < len(gas_levels):
        raise ValueError("gas levels must be distinct")
    names = [s.name for s in strategies]
    if len(set(names)) < len(names):
        raise ValueError(f"strategy names must be distinct, got {names}")
    cfg = cfg or PoolConfig()
    features = features or FeatureTrack(series)

    rows = []
    curves: dict[str, list[tuple[float, float]]] = {}
    for strategy in strategies:
        report, _ = run(strategy, series, cfg, features)
        for g in gas_levels:
            gas = ammcore.accrued_gas(replace(cfg, gas_cost=g), report.rebalance_count)
            roi = (report.total_fees - gas) / cfg.capital
            rows.append((g, strategy.name, roi))
            curves.setdefault(strategy.name, []).append((g, roi))

    break_evens = {name: _break_even(curve) for name, curve in curves.items()}
    return rows, break_evens


def _break_even(curve) -> float:
    """Gas level where the (gas, roi) curve crosses zero."""
    for (g0, r0), (g1, r1) in zip(curve, curve[1:]):
        if (r0 >= 0.0) != (r1 >= 0.0):
            return g0 + (g1 - g0) * r0 / (r0 - r1)
    # no sign change among the levels: extend the final affine segment
    (g0, r0), (g1, r1) = curve[-2], curve[-1]
    if r0 == r1:
        return float("inf") if r1 > 0 else float("-inf")
    return g0 + (g1 - g0) * r0 / (r0 - r1)


@dataclass(frozen=True)
class HeatmapGrid:
    theta_axis: np.ndarray
    d_edge_axis: np.ndarray
    q_diff: np.ndarray  # shape (len(theta_axis), len(d_edge_axis))


def heatmap(
    net: neural.Mlp,
    theta_grid,
    d_edge_grid,
    width: float = 0.002,
    sigma_norm: float = 0.0,
    recent_vol: float = 0.0,
) -> HeatmapGrid:
    """Q(rebalance) - Q(hold) over a (theta, distance-to-edge) grid.

    Each cell is the observation at price 1 + d_edge * width of a position
    on the band of half-width `width` centred at 1 and active half its
    time: mean deviation is zero, and the volatility features take the
    supplied reference values (run medians in the CLI pipeline).
    """
    theta_axis = np.asarray(theta_grid, dtype=np.float64)
    d_edge_axis = np.asarray(d_edge_grid, dtype=np.float64)
    tt, dd = np.meshgrid(theta_axis, d_edge_axis, indexing="ij")
    columns = np.zeros((tt.size, 4))
    columns[:, 0] = tt.ravel()
    columns[:, 2:] = sigma_norm, recent_vol
    q = neural.forward(net, envsim.observations(1.0 + dd.ravel() * width, 1.0, width, columns, 0.5))
    diff = (q[:, 1] - q[:, 0]).reshape(tt.shape)
    return HeatmapGrid(theta_axis=theta_axis, d_edge_axis=d_edge_axis, q_diff=diff)


def write_report_json(path, report: BacktestReport) -> None:
    artifacts.write_json(path, report.to_json_dict())


def write_gas_sweep_csv(path, rows) -> None:
    artifacts.write_csv(path, ["gas", "strategy", "net_roi"], rows)


def write_heatmap_csv(path, grid: HeatmapGrid) -> None:
    n_theta, n_edge = grid.q_diff.shape
    columns = (np.repeat(grid.theta_axis, n_edge), np.tile(grid.d_edge_axis, n_theta), grid.q_diff.ravel())
    artifacts.write_columns(path, ["theta", "d_edge", "q_diff"], columns)
