"""Baseline range-management strategies plus the learned-policy wrapper.

All strategies decide from information available at the current second;
the single exception is the omniscient Merlin, whose opening range spans
the whole series. A decision is the price to recenter at (the current
one or a chosen one), or None to hold. Strategies read the regime
features of bar i from the run's FeatureTrack by index.

backtest.run searches for each recenter in windows of bars and asks the
strategy one question per window: holding from bar lo, at which bar in
[lo, hi) do you first recenter, and where? first_recenter answers it
with what decide would give bar by bar; the window sizes are the
runner's and change only how fast the answer comes.
"""

from __future__ import annotations

import math

import numpy as np

from . import ammcore, envsim, neural
from .agent import Q_NET_DIMS
from .errors import ShapeError
from .marketdata import BarSeries

MERLIN_MIN_WIDTH = 1e-4


class Strategy:
    """Base: place at the configured width around the first price, then hold."""

    name = "hold"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.decide is not Strategy.decide and cls.first_recenter is Strategy.first_recenter:
            raise TypeError(f"{cls.__name__} overrides decide, so it must override first_recenter")

    def initial_range(self, series: BarSeries, width: float) -> tuple[float, float]:
        """The opening (center, half-width); only oracle strategies look past bar 0."""
        return float(series.close[0]), width

    def decide(self, i: int, price: float, pos: ammcore.Position, features: envsim.FeatureTrack) -> float | None:
        """The price to recenter at for bar i, whose close is `price`, or None to hold.

        `pos` is the position as it stands before bar i's decision.
        Decisions must not depend on gas: backtest.gas_sweep prices every
        gas level from one run per strategy, and a differential test
        against per-level runs enforces it.
        """
        return None

    def first_recenter(
        self, lo: int, hi: int, pos: ammcore.Position, features: envsim.FeatureTrack
    ) -> tuple[int, float] | None:
        """(i, target) for the first bar i in [lo, hi) at which the strategy
        recenters if `pos` is held from bar lo on, or None if it holds
        through bar hi - 1.

        `pos` stands as before bar lo's decision and is not changed. The
        answer is what decide returns bar by bar, each bar seeing pos held
        over the bars before it.
        """
        return None


class _BandSearch(Strategy):
    """A strategy that holds while the price is in the band.

    Its decide reads only the band, which holding does not move, so the
    search finds a window's out-of-band bars with one comparison and asks
    decide at those only.
    """

    def first_recenter(self, lo, hi, pos, features):
        close = features.series.close
        for i in (lo + np.flatnonzero(~ammcore.in_band(pos, close[lo:hi]))).tolist():
            target = self.decide(i, float(close[i]), pos, features)
            if target is not None:
                return i, target
        return None


class Merlin(Strategy):
    """Omniscient passive bound: one range spanning the whole realized path."""

    name = "merlin"

    def initial_range(self, series, width):
        s_min = float(np.min(series.close))
        s_max = float(np.max(series.close))
        center = 0.5 * (s_min + s_max)
        # one-ulp pad keeps the realized extremes inside despite rounding
        return center, max((s_max - s_min) / (2.0 * center) * (1.0 + 1e-12), MERLIN_MIN_WIDTH)


class Bedivere(Strategy):
    """Fixed narrow range at the starting price, never adjusted."""

    name = "bedivere"


class Lancelot(_BandSearch):
    """Greedy: recenter the moment the price leaves the range."""

    name = "lancelot"

    def decide(self, i, price, pos, features):
        return None if ammcore.in_range(pos, price) else price


class GalahadOu(_BandSearch):
    """Forecast-driven recentering, blind to costs.

    Predicts the price `horizon` seconds ahead from the deterministic
    mean-reversion decay and recenters there when the current price is
    out of range and the forecast also lies outside the band. A forecast
    that is not a positive price (a fitted mu far below zero) holds. With
    theta_override=0 the forecast collapses to the current price and the
    behavior matches the greedy strategy on every path.
    """

    name = "galahad"

    def __init__(self, horizon: float = 60.0, theta_override: float | None = None):
        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        self.horizon = horizon
        self.theta_override = theta_override

    def decide(self, i, price, pos, features):
        if ammcore.in_range(pos, price):
            return None
        if self.theta_override is not None:
            theta = self.theta_override
        elif features.valid[i]:
            theta = float(features.theta[i])
        else:
            return None
        decay = math.exp(-theta * self.horizon)
        if decay == 1.0:  # the forecast collapses to the price exactly
            forecast = price
        else:
            mu = float(features.mu[i])
            forecast = mu + (price - mu) * decay
        return None if forecast <= 0.0 or ammcore.in_range(pos, forecast) else forecast


def _margin_bound(net: neural.Mlp) -> tuple[np.ndarray, float]:
    """(gain, offset) such that two float64 forwards of a row x, in any
    summation order, differ in q1 - q0 by less than |x| @ gain + offset.

    Per output j, |q_j - q~_j| <= D_j = 2 L g (1+g)^(2L) S_j, where g is
    gamma_(n+1) = (n+1)u / (1 - (n+1)u) for the widest fan-in n (Higham
    2002, section 3.1), L the number of layers, and S the |W|-chain of
    |x|: S_0 = |x|, S_l = |W_l|^T S_(l-1) + |b_l|, which is affine in |x|.
    The 1.01 covers rounding in the subtraction q1 - q0 and in this bound
    itself; the smallest normal covers underflowing products.
    """
    depth = net.n_layers
    n = max(net.layer_dims[:-1]) + 1
    u = np.finfo(np.float64).eps / 2
    gamma = n * u / (1.0 - n * u)
    scale = 1.01 * 2.0 * depth * gamma * (1.0 + gamma) ** (2 * depth)
    gain = np.eye(net.layer_dims[0])
    offset = np.zeros(net.layer_dims[0])
    for w, b in zip(net.weights, net.biases):
        gain = gain @ np.abs(w)
        offset = offset @ np.abs(w) + np.abs(b)
    return scale * gain.sum(axis=1), scale * float(offset.sum()) + np.finfo(np.float64).tiny


class PolicyStrategy(Strategy):
    """Greedy actions from a frozen Q-network checkpoint.

    The net must not change after the strategy is built: the bound that
    certifies batched decisions is computed from its weights here.
    """

    name = "rammstein"

    def __init__(self, net: neural.Mlp):
        if tuple(net.layer_dims) != Q_NET_DIMS:
            raise ShapeError(f"policy checkpoint must have dims {Q_NET_DIMS}, got {net.layer_dims}")
        self.net = net
        self._bound_gain, self._bound_offset = _margin_bound(net)

    @classmethod
    def from_checkpoint(cls, path) -> "PolicyStrategy":
        net, _, _ = neural.load_checkpoint(path)
        return cls(net)

    def decide(self, i, price, pos, features):
        q = neural.forward(self.net, envsim.build_state(pos, features, i))
        return price if int(q.argmax()) == 1 else None

    def first_recenter(self, lo, hi, pos, features):
        """decide itself for a one-bar window; one batched forward over the
        hold-path observation rows of a longer one.

        A batch runs through other matmul kernels than decide's one-row
        forward, so its last bits differ. A row decides from the batch only
        when its margin q1 - q0 clears _margin_bound, which is then the
        one-row forward's sign too; every other row, a NaN margin included,
        is decided by the one-row forward itself.
        """
        close = features.series.close
        if hi == lo + 1:  # pos stands as before bar lo, so decide needs nothing held
            target = self.decide(lo, float(close[lo]), pos, features)
            return None if target is None else (lo, target)
        rows = envsim.hold_states(pos, features, lo, hi)
        q = neural.forward(self.net, rows)
        margin = q[:, 1] - q[:, 0]
        certified = np.abs(margin) > np.abs(rows) @ self._bound_gain + self._bound_offset
        for j in np.flatnonzero(~certified | (margin > 0.0)).tolist():
            if certified[j] or int(neural.forward(self.net, rows[j].copy()).argmax()) == 1:
                return lo + j, float(close[lo + j])
        return None


def _policy(checkpoint: str | None = None) -> PolicyStrategy:
    if checkpoint is None:
        raise ValueError("rammstein strategy needs a 'checkpoint' param")
    return PolicyStrategy.from_checkpoint(checkpoint)


_BUILDERS = {
    "merlin": Merlin,
    "bedivere": Bedivere,
    "lancelot": Lancelot,
    "galahad": GalahadOu,
    "rammstein": _policy,
}


def make_strategy(name: str, params: dict | None = None) -> Strategy:
    """Build a strategy from its config name and parameter dict.

    The params go to the builder as keyword arguments; config.validate
    has already rejected any a strategy does not take.
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown strategy {name!r}")
    return _BUILDERS[name](**(params or {}))
