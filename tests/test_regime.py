import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from ammlab import regime, synthpath
from ammlab.errors import DomainError, WindowTooShort
from ammlab.synthpath import OuParams


def noiseless_path(theta, window=1800, mu=100.0, s0=110.0):
    return synthpath.simulate_ou(OuParams(theta, mu, 0.0), s0, window - 1, 1.0, seed=0)


class TestEstimate:
    def test_noiseless_recovery(self):
        est = regime.estimate(noiseless_path(0.01))
        exact = 1.0 - math.exp(-0.01)
        assert est.valid
        assert est.theta == pytest.approx(exact, rel=0.02)
        assert est.mu == pytest.approx(100.0, rel=0.001)
        assert est.sigma < 1e-9

    def test_constant_window_falls_back(self):
        est = regime.estimate(np.full(100, 42.0))
        assert not est.valid
        assert est.theta == 0.0
        assert est.mu == 42.0
        assert est.sigma == 0.0

    def test_random_walk_theta_near_zero(self):
        # frozen from a 200-seed Monte Carlo: the finite-sample bias of the
        # change-on-level regression puts the median near 0.0024
        thetas = []
        for seed in range(200):
            path = synthpath.simulate_ou(OuParams(0.0, 100.0, 1.0), 100.0, 1799, 1.0, 2000 + seed)
            thetas.append(regime.estimate(path).theta)
        assert np.median(thetas) < 0.003

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            regime.estimate([100.0, 101.0])

    def test_affine_shift_covariance(self):
        rng = np.random.default_rng(8)
        path = synthpath.simulate_ou(OuParams(0.02, 100.0, 0.3), 104.0, 1799, 1.0, rng)
        base = regime.estimate(path)
        shifted = regime.estimate(path + 250.0)
        assert shifted.theta == pytest.approx(base.theta, abs=1e-9)
        assert shifted.sigma == pytest.approx(base.sigma, abs=1e-9)
        assert shifted.mu == pytest.approx(base.mu + 250.0, abs=1e-9)

    def test_theta_clipped_to_unit_interval(self):
        # alternating prices imply beta ~ -2, clipped at 1
        prices = np.tile([90.0, 110.0], 50)
        est = regime.estimate(prices)
        assert est.valid and est.theta == 1.0
        # trending prices give beta > 0: fallback, theta 0
        est2 = regime.estimate(np.exp(np.linspace(0, 1, 100)) * 100)
        assert est2.theta == 0.0

    def test_consistency_improves_with_window(self):
        exact = 1.0 - math.exp(-0.01)
        medians = []
        for window in (300, 1800, 7200):
            errs = []
            for seed in range(50):
                rng = np.random.default_rng(1000 + seed)
                s0 = 100.0 + rng.normal(0, 0.1 / math.sqrt(0.02))
                path = synthpath.simulate_ou(OuParams(0.01, 100.0, 0.1), s0, window - 1, 1.0, rng)
                errs.append(abs(regime.estimate(path).theta / exact - 1.0))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


def drifting_path(level, drift, noise, n, seed):
    """Geometric random walk: per-second log drift plus Gaussian noise."""
    steps = drift + noise * np.random.default_rng(seed).standard_normal(n - 1)
    return level * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))


class TestRollingEstimator:
    """``rolling_estimates`` against the direct two-pass fit on each window."""

    def test_matches_pure_estimate(self):
        rng = np.random.default_rng(42)
        path = synthpath.simulate_ou(OuParams(0.02, 100.0, 0.3), 103.0, 5000, 1.0, rng)
        th, mu, sg, va = regime.rolling_estimates(path, 1800)
        pure = regime.estimate(path[-1800:])
        assert va[-1] and pure.valid
        assert th[-1] == pytest.approx(pure.theta, rel=1e-9)
        assert mu[-1] == pytest.approx(pure.mu, rel=1e-9)
        assert sg[-1] == pytest.approx(pure.sigma, rel=1e-6, abs=1e-12)

    # Bounds: theta and mu to 1e-6 relative; sigma to 1e-6 * std(diff(p))
    # absolute, because an exact fit (three prices, two parameters) has
    # sigma 0 and no relative bound holds there. Basis: without the
    # refits inside rolling_estimates, window 3 on 1,500-bar paths was off
    # by 1.9e-6 (theta) and 8.6e-3 * std (sigma); with them, 240 paths
    # (windows 3-600, up to 2,000 bars) gave worst errors of 3.3e-7
    # (theta), 7.7e-8 (mu) and 3.5e-7 * std (sigma), no validity flips.
    @settings(max_examples=40, deadline=None)
    @given(
        level=hst.floats(10.0, 5000.0),
        drift=hst.floats(-1e-4, 1e-4),
        noise=hst.floats(1e-5, 1e-3),
        window=hst.integers(3, 600),
        n=hst.integers(3, 2000),
        seed=hst.integers(0, 2**32 - 1),
    )
    @example(level=10.0, drift=-1e-4, noise=1e-5, window=3, n=1500, seed=1)
    def test_matches_direct_fit_on_every_window(self, level, drift, noise, window, n, seed):
        p = drifting_path(level, drift, noise, n, seed)
        th, mu, sg, va = regime.rolling_estimates(p, window)
        for i in range(min(2, n)):
            assert (th[i], mu[i], sg[i], va[i]) == (0.0, p[i], 0.0, False)
        scale = float(np.std(np.diff(p)))
        for i in range(2, n):
            direct = regime.estimate(p[max(0, i - window + 1) : i + 1])
            assert va[i] == direct.valid, i
            if direct.valid:
                assert abs(th[i] - direct.theta) <= 1e-6 * direct.theta, i
                assert abs(mu[i] - direct.mu) <= 1e-6 * abs(direct.mu), i
                assert abs(sg[i] - direct.sigma) <= 1e-6 * scale, i

    def test_warmup_is_invalid(self):
        th, mu, sg, va = regime.rolling_estimates(np.array([100.0, 101.0, 99.5, 100.5]), 10)
        assert not va[0] and not va[1]
        assert mu[1] == 101.0

    def test_window_minimum(self):
        with pytest.raises(WindowTooShort):
            regime.rolling_estimates(np.linspace(100.0, 101.0, 50), 2)


class TestHalfLife:
    def test_paper_value(self):
        assert regime.half_life(0.01) == pytest.approx(69.31, abs=0.01)

    def test_two_minute_regime(self):
        assert regime.half_life(0.0056) == pytest.approx(123.8, abs=0.05)

    def test_zero_theta_sentinel(self):
        assert regime.half_life(0.0) == math.inf

    def test_estimate_method(self):
        est = regime.estimate(noiseless_path(0.01))
        assert regime.half_life(est.theta) == pytest.approx(math.log(2) / est.theta)

    @given(hst.lists(hst.floats(min_value=0.0), max_size=20))
    @example([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0])
    def test_array_matches_scalar(self, thetas):
        expected = np.array([regime.half_life(theta) for theta in thetas], dtype=np.float64)
        got = regime.half_life(np.array(thetas, dtype=np.float64))
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert (got >= 0.0).all()

    @given(
        hst.lists(hst.floats(min_value=0.0), max_size=10),
        hst.floats(max_value=-5e-324) | hst.just(math.nan),
        hst.integers(0, 10),
    )
    def test_negative_or_nan_rejected(self, good, bad, at):
        with pytest.raises(DomainError):
            regime.half_life(bad)
        with pytest.raises(DomainError):
            regime.half_life(np.array(good[:at] + [bad] + good[at:]))
