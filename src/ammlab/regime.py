"""Rolling OU parameter estimation and first-passage return probability.

The estimator regresses one-second price changes on price levels,

    S_{t+1} - S_t = alpha + beta * S_t + eps_t,

and recovers theta = -beta/dt (clipped to [0, 1]), mu = -alpha/beta and
sigma = std(residuals)/sqrt(dt). Windows that cannot support the
regression (constant prices, non-negative beta) produce a flagged
fallback estimate instead of an error, because the consumers must always
receive a usable value.

All sums are taken on offset prices (first price subtracted) so that the
estimates are insensitive to the absolute price level.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DegenerateDiffusion, DomainError, WindowTooShort

DEFAULT_WINDOW = 1800
_MIN_REGRESSOR_VAR = 1e-12
# running sums are rebuilt from the raw window this often to stop float drift
_RESYNC_INTERVAL = 65536


@dataclass(frozen=True)
class RegimeEstimate:
    theta: float
    mu: float
    sigma: float
    valid: bool

    def half_life(self) -> float:
        return half_life(self.theta)


def half_life(theta: float) -> float:
    """Deviation half-life ln(2)/theta; inf when theta is zero."""
    if theta < 0:
        raise DomainError("theta must be >= 0")
    if theta == 0.0:
        return math.inf
    return math.log(2.0) / theta


def _fallback(current_price: float) -> RegimeEstimate:
    return RegimeEstimate(theta=0.0, mu=float(current_price), sigma=0.0, valid=False)


def _from_sums(n, sx, sy, sxx, sxy, syy, offset, last_price, dt) -> RegimeEstimate:
    """Build an estimate from pair sums over offset prices."""
    if n < 2:
        return _fallback(last_price)
    mean_x = sx / n
    mean_y = sy / n
    var_x = sxx / n - mean_x * mean_x
    if var_x <= _MIN_REGRESSOR_VAR:
        return _fallback(last_price)
    cov_xy = sxy / n - mean_x * mean_y
    beta = cov_xy / var_x
    if beta >= 0.0:
        return _fallback(last_price)
    alpha = mean_y - beta * mean_x
    theta = min(max(-beta / dt, 0.0), 1.0)
    mu = offset - alpha / beta
    # residual variance via the OLS identity  SSE/n = var_y - beta^2 var_x
    var_y = syy / n - mean_y * mean_y
    resid_var = max(var_y - beta * beta * var_x, 0.0)
    sigma = math.sqrt(resid_var) / math.sqrt(dt)
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        return _fallback(last_price)
    return RegimeEstimate(theta=theta, mu=mu, sigma=sigma, valid=True)


def estimate(prices, dt: float = 1.0) -> RegimeEstimate:
    """OLS regime estimate from one window of prices (length >= 3)."""
    prices = np.asarray(prices, dtype=np.float64)
    if prices.ndim != 1 or len(prices) < 3:
        raise WindowTooShort(f"need at least 3 prices, got {prices.shape}")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    offset = prices[0]
    p = prices - offset
    x = p[:-1]
    y = np.diff(p)
    n = len(x)
    last = float(prices[-1])

    mean_x = float(np.mean(x))
    var_x = float(np.mean((x - mean_x) ** 2))
    if n < 2 or var_x <= _MIN_REGRESSOR_VAR:
        return _fallback(last)
    beta = float(np.mean((x - mean_x) * (y - np.mean(y)))) / var_x
    if beta >= 0.0:
        return _fallback(last)
    alpha = float(np.mean(y)) - beta * mean_x
    theta = min(max(-beta / dt, 0.0), 1.0)
    mu = float(offset) - alpha / beta
    sigma = float(np.std(y - alpha - beta * x)) / math.sqrt(dt)
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        return _fallback(last)
    return RegimeEstimate(theta=theta, mu=mu, sigma=sigma, valid=True)


class RollingOuEstimator:
    """Streaming estimator over a sliding window with O(1) updates.

    Push one price per second; each push returns the estimate for the
    window ending at that price. Windows still filling up are estimated
    from the prices available so far (minimum 3).
    """

    def __init__(self, window: int = DEFAULT_WINDOW, dt: float = 1.0):
        if window < 3:
            raise WindowTooShort("window must be >= 3")
        if dt <= 0:
            raise ValueError("dt must be > 0")
        self.window = window
        self.dt = dt
        self._prices: deque[float] = deque(maxlen=window)
        self._offset: float | None = None
        self._n = 0
        self._sx = self._sy = self._sxx = self._sxy = self._syy = 0.0
        self._pushes = 0

    def _add_pair(self, x: float, y: float, sign: float) -> None:
        self._n += int(sign)
        self._sx += sign * x
        self._sy += sign * y
        self._sxx += sign * x * x
        self._sxy += sign * x * y
        self._syy += sign * y * y

    def _resync(self) -> None:
        p = np.array(self._prices) - self._offset
        x = p[:-1]
        y = np.diff(p)
        self._n = len(x)
        self._sx = float(np.sum(x))
        self._sy = float(np.sum(y))
        self._sxx = float(np.sum(x * x))
        self._sxy = float(np.sum(x * y))
        self._syy = float(np.sum(y * y))

    def push(self, price: float) -> RegimeEstimate:
        if self._offset is None:
            self._offset = float(price)
        price = float(price)
        if len(self._prices) == self._prices.maxlen:
            # evicting the oldest price drops the oldest pair
            old_x = self._prices[0] - self._offset
            old_y = self._prices[1] - self._offset - old_x
            self._add_pair(old_x, old_y, -1.0)
        if self._prices:
            prev = self._prices[-1] - self._offset
            self._add_pair(prev, price - self._offset - prev, +1.0)
        self._prices.append(price)

        self._pushes += 1
        if self._pushes % _RESYNC_INTERVAL == 0:
            self._resync()

        return self.current()

    def current(self) -> RegimeEstimate:
        if len(self._prices) < 3:
            last = self._prices[-1] if self._prices else math.nan
            return _fallback(last)
        return _from_sums(
            self._n,
            self._sx,
            self._sy,
            self._sxx,
            self._sxy,
            self._syy,
            self._offset,
            self._prices[-1],
            self.dt,
        )


def rolling_estimates(closes: np.ndarray, dt: float = 1.0, window: int = DEFAULT_WINDOW):
    """Vectorized per-bar estimates equivalent to pushing closes in order.

    Returns (theta, mu, sigma, valid) arrays, one entry per close. Entries
    before three prices have accumulated are invalid fallbacks.
    """
    closes = np.asarray(closes, dtype=np.float64)
    n_bars = len(closes)
    theta = np.zeros(n_bars)
    mu = closes.copy()
    sigma = np.zeros(n_bars)
    valid = np.zeros(n_bars, dtype=bool)
    if n_bars < 3:
        return theta, mu, sigma, valid

    offset = closes[0]
    p = closes - offset
    x = p[:-1]
    y = np.diff(p)

    def prefix(a):
        out = np.zeros(len(a) + 1)
        np.cumsum(a, out=out[1:])
        return out

    cx, cy = prefix(x), prefix(y)
    cxx, cxy, cyy = prefix(x * x), prefix(x * y), prefix(y * y)

    idx = np.arange(n_bars)
    hi = idx  # pairs available up to bar i: x[0..i-1]
    lo = np.maximum(idx - (window - 1), 0)
    cnt = (hi - lo).astype(np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        sx = cx[hi] - cx[lo]
        sy = cy[hi] - cy[lo]
        sxx = cxx[hi] - cxx[lo]
        sxy = cxy[hi] - cxy[lo]
        syy = cyy[hi] - cyy[lo]
        mean_x = sx / cnt
        mean_y = sy / cnt
        var_x = sxx / cnt - mean_x**2
        cov_xy = sxy / cnt - mean_x * mean_y
        beta = cov_xy / var_x
        alpha = mean_y - beta * mean_x
        var_y = syy / cnt - mean_y**2
        resid_var = np.maximum(var_y - beta**2 * var_x, 0.0)

        ok = (cnt >= 2) & (var_x > _MIN_REGRESSOR_VAR) & (beta < 0.0)
        mu_hat = offset - alpha / beta
        sigma_hat = np.sqrt(resid_var) / math.sqrt(dt)
        theta_hat = np.clip(-beta / dt, 0.0, 1.0)
        ok &= np.isfinite(mu_hat) & np.isfinite(sigma_hat)

    theta[ok] = theta_hat[ok]
    mu[ok] = mu_hat[ok]
    sigma[ok] = sigma_hat[ok]
    valid[ok] = True
    return theta, mu, sigma, valid


def p_return(s: float, mu: float, L: float, theta: float, sigma: float) -> float:
    """Probability the process reaches mu before the outer barrier L.

    Computed as the ratio of scale-function integrals

        P = int_L^s exp(theta (y-mu)^2 / sigma^2) dy
            / int_L^mu exp(theta (y-mu)^2 / sigma^2) dy

    by adaptive quadrature. s must lie between L and mu (either ordering).
    """
    if sigma == 0.0:
        raise DegenerateDiffusion("sigma must be > 0")
    if sigma < 0 or theta < 0:
        raise DomainError("sigma and theta must be non-negative")
    lo, hi = min(L, mu), max(L, mu)
    if not (lo <= s <= hi):
        raise DomainError(f"s={s} must lie between L={L} and mu={mu}")

    # scale by the largest exponent (attained at the barrier) so the
    # integrand stays in (0, 1]; the factor cancels in the ratio
    peak = theta * (L - mu) ** 2 / sigma**2

    def integrand(y):
        return math.exp(theta * (y - mu) ** 2 / sigma**2 - peak)

    num, _ = quad(integrand, L, s, epsrel=1e-8, limit=200)
    den, _ = quad(integrand, L, mu, epsrel=1e-8, limit=200)
    return min(max(num / den, 0.0), 1.0)
