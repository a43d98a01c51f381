"""Concentrated-liquidity position math: range logic, fees, rebalance costs.

A position is a price band [c(1-w), c(1+w)] holding capital K. Narrowing
the band concentrates the capital, amplifying its pool share by
lambda = 1/sqrt(w). Fees accrue only while the price is inside the band:

    fee per second = alpha * V_cex * fee_tier * (K * lambda) / pool_tvl

Recentering swaps roughly half the position and pays gas, costing
fee_tier * 0.5 * K + gas. Opening a position counts as the first
rebalance but pays gas only (nothing needs swapping at entry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PoolConfig:
    fee_tier: float = 0.0005
    gas_cost: float = 2.0
    pool_tvl: float = 500_000.0
    dex_cex_ratio: float = 0.10
    width: float = 0.002
    capital: float = 10_000.0

    def __post_init__(self):
        if not 0 < self.fee_tier < 1:
            raise ValueError("fee_tier must be in (0, 1)")
        if self.gas_cost < 0:
            raise ValueError("gas_cost must be >= 0")
        if self.pool_tvl <= 0:
            raise ValueError("pool_tvl must be > 0")
        if not 0 < self.dex_cex_ratio <= 1:
            raise ValueError("dex_cex_ratio must be in (0, 1]")
        if not 0 < self.width < 1:
            raise ValueError("width must be in (0, 1)")
        if self.capital <= 0:
            raise ValueError("capital must be > 0")


@dataclass
class Position:
    center: float
    width: float
    capital: float
    accrued_fees: float = 0.0
    accrued_gas: float = 0.0
    rebalance_count: int = 0
    active_seconds: int = 0
    total_seconds: int = 0

    lower: float = field(init=False)
    upper: float = field(init=False)

    def __post_init__(self):
        if self.center <= 0:
            raise ValueError("center must be > 0")
        if self.capital <= 0:
            raise ValueError("capital must be > 0")
        self._set_bounds()

    def _set_bounds(self):
        self.lower, self.upper = band(self.center, self.width)


def band(center, width):
    """The band's (lower, upper) edges c(1-w), c(1+w), for a center or an
    array of them; in_range, in_band and the QVI fee table all test against it."""
    return center * (1.0 - width), center * (1.0 + width)


def open_position(center: float, cfg: PoolConfig, width: float | None = None) -> Position:
    """Open a fresh position of the pool's capital at `center`; counts as
    rebalance #1, gas only.

    `width` defaults to the pool's configured half-width.
    """
    pos = Position(center=center, width=cfg.width if width is None else width, capital=cfg.capital)
    pos.rebalance_count = 1
    pos.accrued_gas = accrued_gas(cfg, 1)
    return pos


def in_range(pos: Position, s: float) -> bool:
    """True iff s lies in [c(1-w), c(1+w)], boundaries inclusive."""
    return pos.lower <= s <= pos.upper


def in_band(pos: Position, prices: np.ndarray) -> np.ndarray:
    """in_range at each of an array of prices, as a boolean array."""
    return (pos.lower <= prices) & (prices <= pos.upper)


def concentration(w: float) -> float:
    """Fee amplification 1/sqrt(w) from narrowing the band to half-width w."""
    if not 0 < w < 1:
        raise DomainError("width must be in (0, 1)")
    return 1.0 / math.sqrt(w)


def fee_step(pos: Position, s: float, cex_volume: float, cfg: PoolConfig) -> float:
    """Accrue one second of fees; returns the amount (0 when out of range)."""
    if cex_volume < 0:
        raise ValueError("cex_volume must be >= 0")
    pos.total_seconds += 1
    if not in_range(pos, s):
        return 0.0
    pos.active_seconds += 1
    fee = fee_rate(cfg, cex_volume, pos.width, pos.capital)
    pos.accrued_fees += fee
    return fee


def fee_rate(cfg: PoolConfig, cex_volume, width: float, capital: float):
    """What one in-range second of `capital` on a band of half-width `width`
    earns at `cex_volume`, a float or an array of them; the QVI's running
    reward is this rate too."""
    lam = concentration(width)
    return cfg.dex_cex_ratio * cex_volume * cfg.fee_tier * (capital * lam) / cfg.pool_tvl


def hold(pos: Position, prices: np.ndarray, volumes: np.ndarray, cfg: PoolConfig):
    """Accrue a stretch of held seconds in one call; returns (fee, inside) columns.

    Each second earns what fee_step would, and the fees are added to
    pos.accrued_fees in second order, so pos ends as a fee_step per second
    would leave it, bit for bit. A negative volume raises fee_step's error
    before pos changes.
    """
    if np.any(volumes < 0):
        raise ValueError("cex_volume must be >= 0")
    inside = in_band(pos, prices)
    earning = int(np.count_nonzero(inside))
    pos.total_seconds += len(prices)
    pos.active_seconds += earning
    fee = np.zeros(len(prices))
    if earning:
        running = np.empty(earning + 1)
        running[0] = pos.accrued_fees
        running[1:] = fee_rate(cfg, volumes[inside], pos.width, pos.capital)
        fee[inside] = running[1:]
        np.add.accumulate(running, out=running)
        pos.accrued_fees = float(running[-1])
    return fee, inside


def rebalance_cost(cfg: PoolConfig) -> float:
    """Half-position swap fee plus gas."""
    return cfg.fee_tier * (0.5 * cfg.capital) + cfg.gas_cost


def recenter(pos: Position, s: float, cfg: PoolConfig) -> Position:
    """Move the band center to s, charging the full rebalance cost."""
    if s <= 0:
        raise ValueError("price must be > 0")
    pos.center = s
    pos._set_bounds()
    pos.accrued_gas += rebalance_cost(cfg)
    pos.rebalance_count += 1
    return pos


def step(pos: Position, target: float | None, price: float, volume: float, cfg: PoolConfig):
    """One accounted second: recenter at `target` unless it is None, then
    accrue fees at (price, volume). Returns (fee, gas), gas being what
    this second's recenter added to pos.accrued_gas.

    LpEnv.step calls it every second; backtest.run calls it on the bars
    where the strategy recenters and accrues the held bars between them
    through hold. Both decide at bar i and differ only in the bar whose
    fee the decision earns. backtest.run passes bar i itself, so a band
    chosen after seeing close[i] earns second i's fee, and a strategy that
    recenters on exit is in range at every accounted second. LpEnv.step
    passes bar i+1, so the agent is rewarded with a fee it could not see
    when it acted. On the smoke series at seed 0, lancelot makes the same
    298 rebalances under both but is 100% active in the backtest and
    97.0% active in the env.
    """
    gas = 0.0
    if target is not None:
        before = pos.accrued_gas
        recenter(pos, target, cfg)
        gas = pos.accrued_gas - before
    return fee_step(pos, price, volume, cfg), gas


def accrued_gas(cfg: PoolConfig, rebalances: int) -> float:
    """Total rebalance cost of a position after `rebalances` rebalances.

    The opening counts as the first rebalance and pays gas only; every
    later one pays the full rebalance_cost. The charges are added in the
    order a position accrues them, so the result equals that position's
    accrued_gas bit for bit. Since no strategy decides on gas, one run's
    rebalance count prices that run at any gas level.
    """
    if rebalances < 1:
        raise ValueError("rebalances must be >= 1 (opening counts as the first)")
    gas = cfg.gas_cost
    cost = rebalance_cost(cfg)
    for _ in range(rebalances - 1):
        gas += cost
    return gas


def net_roi(pos: Position) -> float:
    """(fees - gas) / capital over the position's life."""
    return (pos.accrued_fees - pos.accrued_gas) / pos.capital


def active_fraction(pos: Position) -> float:
    return pos.active_seconds / max(pos.total_seconds, 1)

