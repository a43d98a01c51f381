"""Rolling OU parameter estimation.

The estimator regresses one-second price changes on price levels,

    S_{t+1} - S_t = alpha + beta * S_t + eps_t,

and recovers theta = -beta (clipped to [0, 1]), mu = -alpha/beta and
sigma = std(residuals). Bars are 1 Hz, so theta and sigma are per second.
Windows that cannot support the regression (constant prices,
non-negative beta) produce a flagged fallback estimate instead of an
error, because the consumers must always receive a usable value.

All sums are taken on offset prices (first price subtracted) so that the
estimates are insensitive to the absolute price level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WindowTooShort

DEFAULT_WINDOW = 1800
_MIN_REGRESSOR_VAR = 1e-12
# rolling entries whose estimated rounding error exceeds this relative
# size are refit directly; the differential test allows 1e-6
_REFIT_TOL = 1e-7


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


def estimate(prices) -> RegimeEstimate:
    """OLS regime estimate from one window of prices (length >= 3)."""
    prices = np.asarray(prices, dtype=np.float64)
    if prices.ndim != 1 or len(prices) < 3:
        raise WindowTooShort(f"need at least 3 prices, got {prices.shape}")
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
    theta = min(max(-beta, 0.0), 1.0)
    mu = float(offset) - alpha / beta
    sigma = float(np.std(y - alpha - beta * x))
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        return _fallback(last)
    return RegimeEstimate(theta=theta, mu=mu, sigma=sigma, valid=True)


def rolling_estimates(closes: np.ndarray, window: int = DEFAULT_WINDOW):
    """Per-bar estimates from running sums, one window per close.

    Entry i agrees with ``estimate`` on closes[max(0, i - window + 1) : i + 1]
    to about ``_REFIT_TOL``: theta and mu relatively, sigma against the
    standard deviation of the price changes. Returns (theta, mu, sigma, valid)
    arrays, one entry per close. Entries before three prices have
    accumulated are invalid fallbacks.
    """
    if window < 3:
        raise WindowTooShort("window must be >= 3")
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
        sigma_hat = np.sqrt(resid_var)
        theta_hat = np.clip(-beta, 0.0, 1.0)
        ok &= np.isfinite(mu_hat) & np.isfinite(sigma_hat)

        # A windowed sum is a difference of prefix sums, so its rounding
        # error scales with the prefix, not the window. Tiny windows late
        # in a long path and near-exact fits (where the square root
        # magnifies the residual variance's error) lose most digits.
        # Entries whose first-order error estimate is too large are refit.
        eps = np.finfo(np.float64).eps
        err_xx = eps * cxx[hi] / cnt
        err_yy = eps * cyy[hi] / cnt
        err_beta = (np.sqrt(err_xx * err_yy) + np.abs(beta) * err_xx) / np.abs(var_x)
        err_mu = (np.sqrt(eps * hi * err_yy / cnt) + np.abs(mean_y) * err_beta / np.abs(beta)) / np.abs(beta)
        err_res = err_yy + beta**2 * err_xx
        err_sigma = np.minimum(np.sqrt(err_res), err_res / (2.0 * np.sqrt(resid_var)))
        refit = (cnt >= 2) & (
            (err_beta > _REFIT_TOL * np.abs(beta))
            | (err_mu > _REFIT_TOL * np.abs(mu_hat))
            | (err_sigma > _REFIT_TOL * np.std(y))
        )

    theta[ok] = theta_hat[ok]
    mu[ok] = mu_hat[ok]
    sigma[ok] = sigma_hat[ok]
    valid[ok] = True
    for i in np.flatnonzero(refit):
        est = estimate(closes[lo[i] : i + 1])
        theta[i], mu[i], sigma[i], valid[i] = est.theta, est.mu, est.sigma, est.valid
    return theta, mu, sigma, valid
