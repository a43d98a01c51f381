"""Baseline range-management strategies plus the learned-policy wrapper.

All strategies decide from information available at the current second;
the single exception is the omniscient Merlin, whose opening range spans
the whole series. A decision is the price to recenter at (the current
one or a chosen one), or None to hold. Strategies read the regime
features of bar i from the run's FeatureTrack by index.
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

    def initial_range(self, series: BarSeries, width: float) -> tuple[float, float]:
        """The opening (center, half-width); only oracle strategies look past bar 0."""
        return float(series.close[0]), width

    def decide(self, i: int, price: float, pos: ammcore.Position, features: envsim.FeatureTrack) -> float | None:
        """The price to recenter at for bar i, whose close is `price`, or None to hold.

        Decisions must not depend on gas: backtest.gas_sweep prices every
        gas level from one run per strategy, and a differential test
        against per-level runs enforces it.
        """
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


class Lancelot(Strategy):
    """Greedy: recenter the moment the price leaves the range."""

    name = "lancelot"

    def decide(self, i, price, pos, features):
        return None if ammcore.in_range(pos, price) else price


class GalahadOu(Strategy):
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


class PolicyStrategy(Strategy):
    """Greedy actions from a frozen Q-network checkpoint."""

    name = "rammstein"

    def __init__(self, net: neural.Mlp):
        if tuple(net.layer_dims) != Q_NET_DIMS:
            raise ShapeError(f"policy checkpoint must have dims {Q_NET_DIMS}, got {net.layer_dims}")
        self.net = net

    @classmethod
    def from_checkpoint(cls, path) -> "PolicyStrategy":
        net, _, _ = neural.load_checkpoint(path)
        return cls(net)

    def decide(self, i, price, pos, features):
        q = neural.forward(self.net, envsim.build_state(pos, features, i))
        return price if int(np.argmax(q)) == 1 else None


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
