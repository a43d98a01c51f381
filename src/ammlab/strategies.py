"""Baseline range-management strategies plus the learned-policy wrapper.

All strategies decide from information available at the current second;
the single exception is the omniscient oracle, which fixes its range
from the whole series up front and is flagged as such. Decisions are one
of: hold, or recenter at a price (the current one or a chosen one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ammcore, envsim, neural
from .agent import Q_NET_DIMS
from .errors import ShapeError
from .marketdata import BarSeries
from .regime import RegimeEstimate

MERLIN_MIN_WIDTH = 1e-4


@dataclass(frozen=True)
class Hold:
    pass


@dataclass(frozen=True)
class RecenterAt:
    price: float


HOLD = Hold()


@dataclass(frozen=True)
class DecisionContext:
    index: int
    price: float
    position: ammcore.Position
    estimate: RegimeEstimate
    recent_vol: float


class Strategy:
    """Base: place at the configured width around the first price, then hold."""

    name = "hold"
    oracle = False

    def prepare(self, series: BarSeries) -> None:
        """Called before the run; only oracle strategies may look at it."""

    def initial_range(self, s0: float, default_width: float) -> tuple[float, float]:
        return s0, default_width

    def decide(self, ctx: DecisionContext):
        """HOLD or RecenterAt(price), for the current second.

        Decisions must not depend on gas: backtest.gas_sweep prices every
        gas level from one run per strategy, and a differential test
        against per-level runs enforces it.
        """
        return HOLD


class Merlin(Strategy):
    """Omniscient passive bound: one range spanning the whole realized path."""

    name = "merlin"
    oracle = True

    def __init__(self):
        self.center = None
        self.width = None

    def prepare(self, series: BarSeries) -> None:
        s_min = float(np.min(series.close))
        s_max = float(np.max(series.close))
        self.center = 0.5 * (s_min + s_max)
        # one-ulp pad keeps the realized extremes inside despite rounding
        self.width = max((s_max - s_min) / (2.0 * self.center) * (1.0 + 1e-12), MERLIN_MIN_WIDTH)

    def initial_range(self, s0: float, default_width: float) -> tuple[float, float]:
        if self.center is None:
            raise RuntimeError("Merlin needs prepare(series) before running")
        return self.center, self.width


class Bedivere(Strategy):
    """Fixed narrow range at the starting price, never adjusted."""

    name = "bedivere"


class Lancelot(Strategy):
    """Greedy: recenter the moment the price leaves the range."""

    name = "lancelot"

    def decide(self, ctx: DecisionContext):
        if not ammcore.in_range(ctx.position, ctx.price):
            return RecenterAt(ctx.price)
        return HOLD


class GalahadOu(Strategy):
    """Forecast-driven recentering, blind to costs.

    Predicts the price `horizon` seconds ahead from the deterministic
    mean-reversion decay and recenters there when the current price is
    out of range and the forecast also lies outside the band. With
    theta_override=0 the forecast collapses to the current price and the
    behavior matches the greedy strategy on every path.
    """

    name = "galahad"

    def __init__(self, horizon: float = 60.0, theta_override: float | None = None):
        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        self.horizon = horizon
        self.theta_override = theta_override

    def decide(self, ctx: DecisionContext):
        est = ctx.estimate
        if self.theta_override is not None:
            theta = self.theta_override
        elif est.valid:
            theta = est.theta
        else:
            return HOLD
        decay = math.exp(-theta * self.horizon)
        # decay == 1 collapses the forecast to the price exactly
        forecast = ctx.price if decay == 1.0 else est.mu + (ctx.price - est.mu) * decay
        pos = ctx.position
        forecast_out = not (pos.lower <= forecast <= pos.upper)
        if not ammcore.in_range(pos, ctx.price) and forecast_out:
            return RecenterAt(forecast)
        return HOLD


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

    def decide(self, ctx: DecisionContext):
        state = envsim.build_state(ctx.price, ctx.position, ctx.estimate, ctx.recent_vol)
        q = neural.forward(self.net, state)
        return RecenterAt(ctx.price) if int(np.argmax(q)) == 1 else HOLD


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
