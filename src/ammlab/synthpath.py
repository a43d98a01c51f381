"""Synthetic mean-reverting price paths and piecewise-regime bar series.

Paths use the exact discretization of the OU recursion

    S_{k+1} = mu + (S_k - mu) * exp(-theta*dt) + eta_k,

with eta_k zero-mean Gaussian of variance sigma^2 * (1 - exp(-2*theta*dt))
/ (2*theta). This is distribution-exact at any dt, so estimator tests see
no discretization bias. The theta -> 0 limit (variance sigma^2 * dt) is
switched in analytically to avoid 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .marketdata import BarSeries

# below this, exp(-2*theta*dt) is 1 to double precision; use the random-walk limit
_THETA_DT_EPS = 1e-8


@dataclass(frozen=True)
class OuParams:
    """Mean-reversion speed (1/s), long-run mean (price), diffusion (price/sqrt(s))."""

    theta: float
    mu: float
    sigma: float

    def __post_init__(self):
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.mu <= 0:
            raise ValueError("mu must be > 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")


@dataclass(frozen=True)
class VolumeModel:
    base_notional: float = 15_000.0
    volatility_coupling: float = 1.0

    def __post_init__(self):
        if self.base_notional < 0:
            raise ValueError("base_notional must be >= 0")


@dataclass(frozen=True)
class RegimeSchedule:
    """Ordered (duration_seconds, OuParams) segments plus a volume model."""

    segments: tuple[tuple[int, OuParams], ...]
    initial_price: float
    volume_model: VolumeModel

    def __post_init__(self):
        if len(self.segments) == 0:
            raise ValueError("schedule needs at least one segment")
        if any(d <= 0 for d, _ in self.segments):
            raise ValueError("segment durations must be positive")
        if self.initial_price <= 0:
            raise ValueError("initial_price must be > 0")

    def total_seconds(self) -> int:
        return sum(d for d, _ in self.segments)


def step_noise_std(params: OuParams, dt: float) -> float:
    """Standard deviation of the exact one-step OU innovation."""
    if params.theta * dt < _THETA_DT_EPS:
        return params.sigma * np.sqrt(dt)
    var = params.sigma**2 * (1.0 - np.exp(-2.0 * params.theta * dt)) / (2.0 * params.theta)
    return float(np.sqrt(var))


def simulate_ou(
    params: OuParams,
    s0: float,
    n: int,
    dt: float,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Simulate n exact-discretization OU steps from s0; returns n+1 prices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    decay = np.exp(-params.theta * dt)
    noise_std = step_noise_std(params, dt)
    eta = rng.normal(0.0, 1.0, size=n) * noise_std if noise_std > 0 else np.zeros(n)

    path = np.empty(n + 1)
    path[0] = s0
    s = s0
    for k in range(n):
        s = params.mu + (s - params.mu) * decay + eta[k]
        path[k + 1] = s
    return path


def simulate_schedule(schedule: RegimeSchedule, seed: int | np.random.Generator) -> BarSeries:
    """Generate a gap-free 1 Hz BarSeries from a piecewise-OU schedule.

    Segments continue from the previous segment's final price. Per-second
    volume is base_notional * (1 + coupling * |return| / sigma_ref), floored
    at zero, where sigma_ref is the active segment's one-step noise std.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    vm = schedule.volume_model

    closes = np.empty(schedule.total_seconds())
    sigma_refs = np.empty_like(closes)
    pos = 0
    s = schedule.initial_price
    for duration, params in schedule.segments:
        seg = simulate_ou(params, s, duration, 1.0, rng)
        closes[pos : pos + duration] = seg[1:]
        sigma_refs[pos : pos + duration] = step_noise_std(params, 1.0)
        s = seg[-1]
        pos += duration

    opens = np.empty_like(closes)
    opens[0] = schedule.initial_price
    opens[1:] = closes[:-1]

    returns = closes - opens
    volume = np.full_like(closes, vm.base_notional)
    coupled = sigma_refs > 0
    volume[coupled] *= 1.0 + vm.volatility_coupling * np.abs(returns[coupled]) / sigma_refs[coupled]
    np.maximum(volume, 0.0, out=volume)

    return BarSeries(
        t=np.arange(len(closes), dtype=np.int64),
        open=opens,
        high=np.maximum(opens, closes),
        low=np.minimum(opens, closes),
        close=closes,
        volume=volume,
    )
