"""Simulation environment for the binary hold/recenter decision problem.

Each step covers one second of bar data. The agent observes an
8-feature float64 row (build_state states its order), and ammcore.step
applies its hold or recenter and accrues the next bar's fees (its
docstring states the fee-bar convention). LpEnv.step returns
(next_state, reward, terminal), like a gym environment; the caller keeps
the observation it acted on, and the env keeps no record of its steps.
The reward is scaled net PnL plus a small in-range bonus:

    r = scale * (fee - rebalance_cost_paid) / capital
        + active_bonus * in_range(next bar)

Regime estimates and realized volatility are functions of the price
series alone, so a FeatureTrack precomputes them for the whole series up
front and build_state reads them by bar index; observations builds the
same rows for many prices on one band at once. write_trace_csv writes the
per-bar trace that backtest.run returns, the only code that records one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import ammcore, artifacts, regime
from .ammcore import PoolConfig, Position
from .errors import DomainError, EpisodeFinished
from .marketdata import BarSeries

VOL_WINDOW = 300
SIGMA_NORM_CLIP = 0.1
RECENT_VOL_CLIP = 0.1
STATE_DIM = 8


@dataclass(frozen=True)
class RewardParams:
    scale: float = 100.0
    active_bonus: float = 1e-4

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be > 0")
        if self.active_bonus < 0:
            raise ValueError("active_bonus must be >= 0")


def build_state(pos: Position, features: FeatureTrack, i: int) -> np.ndarray:
    """The float64 observation row at bar i; fallbacks keep every entry finite.

    Order: delta_p, d_edge, theta, delta_mu, sigma_norm, active_frac,
    recent_vol, in_range. The position-free entries come from
    features.bar_columns, where an invalid estimate zeroes theta, delta_mu
    and sigma_norm.
    """
    s = float(features.series.close[i])
    theta, delta_mu, sigma_norm, recent_vol = features.bar_columns[i].tolist()
    d_edge = (s - pos.center) / (pos.center * pos.width)
    return np.array(
        [
            s / pos.center - 1.0,
            min(max(d_edge, -1.0), 1.0),
            theta,
            delta_mu,
            sigma_norm,
            ammcore.active_fraction(pos),
            recent_vol,
            1.0 if ammcore.in_range(pos, s) else 0.0,
        ]
    )


def observations(s, center: float, width: float, columns, active_frac) -> np.ndarray:
    """build_state's rows at prices s for a position on the band (center, width).

    `columns` holds each row's position-free entries in the layout of
    FeatureTrack.bar_columns; `active_frac` is the position's active
    fraction, one for every row or one per row.
    """
    rows = np.empty((len(s), STATE_DIM))
    np.divide(s, center, out=rows[:, 0])
    rows[:, 0] -= 1.0
    # clipping at nonzero bounds keeps NaN and -0.0 as Python's min and max do
    np.clip((s - center) / (center * width), -1.0, 1.0, out=rows[:, 1])
    rows[:, 2:5] = columns[:, :3]
    rows[:, 5] = active_frac
    rows[:, 6] = columns[:, 3]
    lower, upper = ammcore.band(center, width)
    rows[:, 7] = (lower <= s) & (s <= upper)
    return rows


def hold_states(pos: Position, features: FeatureTrack, start: int, stop: int) -> np.ndarray:
    """build_state's rows for bars start..stop-1 if pos is held over them.

    `pos` is the position as it stands before bar start's decision. Each
    row equals, bit for bit, what build_state returns at that bar after
    fee_step has accrued the bars before it.
    """
    s = features.series.close[start:stop]
    inside = ammcore.in_band(pos, s)
    # active_fraction before each bar, the int counts divided as Python divides ints
    active = np.cumsum(inside)
    active -= inside
    active += pos.active_seconds
    total = np.arange(pos.total_seconds, pos.total_seconds + len(s))
    if pos.total_seconds == 0 and len(s):
        total[0] = 1
    return observations(s, pos.center, pos.width, features.bar_columns[start:stop], active / total)


def rolling_log_return_vol(closes: np.ndarray, window: int = VOL_WINDOW) -> np.ndarray:
    """Per-bar std of the last `window` one-second log returns (0 during warmup)."""
    closes = np.asarray(closes, dtype=np.float64)
    n = len(closes)
    out = np.zeros(n)
    if n < 3:
        return out
    r = np.diff(np.log(closes))
    c1 = np.zeros(n)
    c2 = np.zeros(n)
    np.cumsum(r, out=c1[1:])
    np.cumsum(r * r, out=c2[1:])
    idx = np.arange(n)
    lo = np.maximum(idx - window, 0)
    cnt = (idx - lo).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = (c1[idx] - c1[lo]) / cnt
        var = (c2[idx] - c2[lo]) / cnt - mean**2
    ok = cnt >= 2
    out[ok] = np.sqrt(np.maximum(var[ok], 0.0))
    return out


class FeatureTrack:
    """Per-bar regime estimates and realized vol for one series, as columns.

    The columns are values: nothing may change them after bar_columns is
    first read.
    """

    def __init__(self, series: BarSeries, window: int = regime.DEFAULT_WINDOW):
        self.series = series
        self.theta, self.mu, self.sigma, self.valid = regime.rolling_estimates(series.close, window)
        self.recent_vol = rolling_log_return_vol(series.close)

    @functools.cached_property
    def bar_columns(self) -> np.ndarray:
        """The observation's theta, delta_mu, sigma_norm and recent_vol at every bar, (n, 4).

        These entries do not depend on the position. An invalid estimate
        zeroes the first three; sigma_norm is clipped above at
        SIGMA_NORM_CLIP and recent_vol to [0, RECENT_VOL_CLIP]. A clip
        copies a bound only where Python's max(x, lo) and min(x, hi) would
        return it, NaN and -0.0 included.
        """
        s, valid = self.series.close, self.valid
        block = np.zeros((len(s), 4))
        theta, delta_mu, sigma_norm, recent_vol = block.T
        np.copyto(theta, self.theta, where=valid)
        with np.errstate(all="ignore"):  # an invalid bar's estimates may be anything; it keeps 0.0
            np.divide(self.mu - s, s, out=delta_mu, where=valid)
            np.divide(self.sigma, s, out=sigma_norm, where=valid)
        np.copyto(sigma_norm, SIGMA_NORM_CLIP, where=SIGMA_NORM_CLIP < sigma_norm)
        recent_vol[:] = self.recent_vol
        np.copyto(recent_vol, 0.0, where=0.0 > recent_vol)
        np.copyto(recent_vol, RECENT_VOL_CLIP, where=RECENT_VOL_CLIP < recent_vol)
        return block


TRACE_HEADER = ["t", "price", "center", "action", "fee", "gas", "theta", "in_range"]


def write_trace_csv(path, trace) -> None:
    """Write a backtest.run trace, its columns in TRACE_HEADER order."""
    artifacts.write_columns(path, TRACE_HEADER, [trace[name] for name in TRACE_HEADER])


class LpEnv:
    """One mutable environment instance; never share across threads."""

    def __init__(
        self,
        series: BarSeries,
        pool: PoolConfig | None = None,
        reward: RewardParams | None = None,
        episode_length: int = 3600,
        seed: int = 0,
        features: FeatureTrack | None = None,
    ):
        if len(series) < 2:
            raise DomainError("series too short for an environment")
        self.series = series
        self.pool = pool or PoolConfig()
        self.reward_params = reward or RewardParams()
        self.episode_length = episode_length
        self.features = features or FeatureTrack(series)
        self.rng = np.random.default_rng(seed)
        self.pos: Position | None = None
        self._i = 0
        self._steps = 0
        self._terminal = True

    def reset(self, start_index: int | None = None) -> np.ndarray:
        if start_index is None:
            hi = len(self.series) - 1 - self.episode_length
            if hi < 0:
                raise DomainError("series shorter than one episode")
            start_index = int(self.rng.integers(0, hi + 1))
        if start_index < 0 or start_index + self.episode_length > len(self.series):
            raise DomainError(
                f"start {start_index} + episode_length {self.episode_length} exceeds series"
            )
        if start_index >= len(self.series) - 1:
            raise DomainError("start index leaves no bar to step into")
        self._i = start_index
        self._steps = 0
        self._terminal = False
        self.pos = ammcore.open_position(float(self.series.close[start_index]), self.pool)
        return build_state(self.pos, self.features, self._i)

    def step(self, action: int):
        """Apply hold (0) or recenter (1); returns (next_state, reward, terminal)."""
        if self._terminal:
            raise EpisodeFinished("call reset() before stepping again")
        if action not in (0, 1):
            raise ValueError("action must be 0 or 1")
        target = float(self.series.close[self._i]) if action == 1 else None
        self._i += 1
        self._steps += 1
        price_next = float(self.series.close[self._i])
        fee, gas = ammcore.step(self.pos, target, price_next, float(self.series.volume[self._i]), self.pool)

        self._terminal = self._steps >= self.episode_length or self._i >= len(self.series) - 1
        next_state = build_state(self.pos, self.features, self._i)
        rp = self.reward_params
        reward = rp.scale * (fee - gas) / self.pool.capital + rp.active_bonus * float(next_state[-1])
        return next_state, reward, self._terminal
