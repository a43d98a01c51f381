import math

import numpy as np
import pytest

from ammlab import ammcore, backtest, envsim, marketdata, neural, strategies as st
from ammlab.agent import Q_NET_DIMS
from ammlab.ammcore import PoolConfig
from ammlab.errors import ShapeError
from ammlab.synthpath import OuParams, RegimeSchedule, VolumeModel, simulate_schedule

POOL = PoolConfig()


def series_from_closes(closes, volume=1000.0):
    c = np.array(closes, dtype=np.float64)
    t = np.arange(len(c), dtype=np.int64)
    return marketdata.BarSeries(t=t, open=c, high=c, low=c, close=c, volume=np.full(len(c), float(volume)))


def ctx_for(price, center, theta=0.05, mu=100.0, sigma=0.5, valid=True, width=0.002):
    """decide's arguments for bar 0 of a one-bar series with the given estimate."""
    pos = ammcore.Position(center=center, width=width, capital=1e4)
    features = envsim.FeatureTrack(series_from_closes([price]))
    features.theta[0], features.mu[0], features.sigma[0], features.valid[0] = theta, mu, sigma, valid
    return 0, price, pos, features


def constant_policy_net(q0, q1):
    net = neural.Mlp(Q_NET_DIMS, seed=0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][:] = [q0, q1]
    return net


class TestMerlin:
    def test_range_spans_series(self):
        closes = np.concatenate([np.linspace(2200, 3067, 500), np.linspace(3000, 2108, 500)])
        center, width = st.Merlin().initial_range(series_from_closes(closes), POOL.width)
        assert center == pytest.approx(2587.5)
        assert width == pytest.approx(0.1853, abs=2e-4)
        assert ammcore.concentration(width) == pytest.approx(2.32, abs=0.01)

    def test_constant_series_clamps_width(self):
        _, width = st.Merlin().initial_range(series_from_closes(np.full(100, 100.0)), POOL.width)
        assert width == st.MERLIN_MIN_WIDTH

    def test_small_series(self):
        center, width = st.Merlin().initial_range(series_from_closes([100.0, 102.0]), POOL.width)
        assert center == pytest.approx(101.0)
        assert width == pytest.approx(1.0 / 101.0)

    def test_never_adjusts(self):
        assert st.Merlin().decide(*ctx_for(90.0, 100.0)) is None


class TestBedivere:
    def test_holds_out_of_range(self):
        b = st.Bedivere()
        assert b.decide(*ctx_for(150.0, 100.0)) is None

    def test_single_rebalance_per_run(self):
        series = series_from_closes(100.0 + np.sin(np.arange(300) / 10.0))
        report, _ = backtest.run(st.Bedivere(), series, POOL)
        assert report.rebalance_count == 1


class TestLancelot:
    def test_holds_in_range(self):
        assert st.Lancelot().decide(*ctx_for(100.1, 100.0)) is None

    def test_recenters_when_out(self):
        decision = st.Lancelot().decide(*ctx_for(100.5, 100.0))
        assert decision == 100.5

    def test_always_active_structurally(self):
        rng = np.random.default_rng(0)
        series = series_from_closes(100.0 * np.exp(np.cumsum(rng.normal(0, 2e-3, 2000))))
        report, _ = backtest.run(st.Lancelot(), series, POOL)
        assert report.active_fraction == 1.0


class TestGalahadOu:
    def test_invalid_estimate_holds(self):
        g = st.GalahadOu()
        assert g.decide(*ctx_for(100.5, 100.0, valid=False)) is None

    def test_forecast_value(self):
        g = st.GalahadOu(horizon=60.0)
        decision = g.decide(*ctx_for(104.0, 100.0, theta=0.01, mu=100.0))
        assert decision is not None
        assert decision == pytest.approx(100.0 + 4.0 * math.exp(-0.6), abs=1e-6)
        assert decision == pytest.approx(102.195, abs=1e-3)

    def test_large_theta_targets_mean(self):
        # center far above the mean: the forecast collapses onto mu
        g = st.GalahadOu(horizon=60.0)
        decision = g.decide(*ctx_for(104.0, 105.0, theta=1.0, mu=100.0))
        assert decision is not None
        assert decision == pytest.approx(100.0, abs=1e-12)

    def test_theta_zero_degenerates_to_lancelot(self):
        rng = np.random.default_rng(5)
        series = series_from_closes(100.0 * np.exp(np.cumsum(rng.normal(0, 2e-3, 1500))))
        _, tr_g = backtest.run(st.GalahadOu(theta_override=0.0), series, POOL)
        _, tr_l = backtest.run(st.Lancelot(), series, POOL)
        for k in ("t", "action", "center"):  # center after the bar's decision
            assert np.array_equal(tr_g[k], tr_l[k]), k

    def test_nonpositive_forecast_holds(self):
        # a fitted mu far below zero pulls the forecast under zero, which no band can center on
        g = st.GalahadOu(horizon=60.0)
        assert g.decide(*ctx_for(104.0, 100.0, theta=0.05, mu=-400.0)) is None

    def test_in_range_forecast_holds(self):
        g = st.GalahadOu(horizon=60.0)
        assert g.decide(*ctx_for(100.1, 100.0, theta=0.01)) is None


class TestPolicyStrategy:
    def test_constant_hold(self):
        pol = st.PolicyStrategy(constant_policy_net(0.0, -1.0))
        assert pol.decide(*ctx_for(105.0, 100.0)) is None

    def test_constant_recenter(self):
        pol = st.PolicyStrategy(constant_policy_net(-1.0, 0.0))
        assert pol.decide(*ctx_for(100.0, 100.0)) is not None

    def test_tie_holds(self):
        pol = st.PolicyStrategy(constant_policy_net(0.0, 0.0))
        assert pol.decide(*ctx_for(100.0, 100.0)) is None

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            st.PolicyStrategy(neural.Mlp([8, 4, 2], seed=0))

    def test_from_checkpoint(self, tmp_path):
        net = constant_policy_net(-1.0, 0.0)
        path = tmp_path / "ckpt.json"
        neural.save_checkpoint(path, net)
        pol = st.PolicyStrategy.from_checkpoint(path)
        assert pol.decide(*ctx_for(100.0, 100.0)) is not None


class TestNoLookAhead:
    @pytest.mark.parametrize(
        "factory",
        # seed 2 both holds and recenters; its batched windows read past the prefix
        [st.Lancelot, st.GalahadOu, st.Bedivere, lambda: st.PolicyStrategy(neural.Mlp(Q_NET_DIMS, seed=2))],
    )
    def test_prefix_decisions_stable(self, factory):
        sched = RegimeSchedule(
            segments=((800, OuParams(0.01, 100.0, 0.05)),),
            initial_price=100.0,
            volume_model=VolumeModel(1000.0, 1.0),
        )
        series = simulate_schedule(sched, 3)
        prefix = series.slice(0, 500)
        _, tr_full = backtest.run(factory(), series, POOL)
        _, tr_prefix = backtest.run(factory(), prefix, POOL)
        for k in ("t", "action", "center"):
            assert np.array_equal(tr_full[k][:500], tr_prefix[k]), k


class TestPolicySearchCost:
    """How many forwards first_recenter spends, by how often the policy acts."""

    @pytest.fixture
    def forwards(self, monkeypatch):
        rows = []
        forward = neural.forward

        def counted(net, x, work=None):
            rows.append(0 if np.ndim(x) == 1 else len(x))  # 0: a one-row forward
            return forward(net, x, work)

        monkeypatch.setattr(neural, "forward", counted)
        return rows

    def test_never_acting_policy_batches_every_bar(self, forwards):
        n = 6000
        report, _ = backtest.run(st.PolicyStrategy(constant_policy_net(1.0, 0.0)), wandering(n), POOL)
        assert report.rebalance_count == 1
        # windows of 4, 8, ..., 256 rows, then 512 at a time
        ramp = [4, 8, 16, 32, 64, 128, 256]
        rest = n - sum(ramp)
        assert forwards == ramp + [512] * (rest // 512) + [rest % 512]
        assert 0 not in forwards

    def test_always_acting_policy_costs_a_forward_per_bar(self, forwards):
        n = 3000
        report, _ = backtest.run(st.PolicyStrategy(constant_policy_net(-1.0, 0.0)), wandering(n), POOL)
        assert report.rebalance_count == n + 1
        assert len(forwards) <= n + 2
        assert forwards.count(0) >= n - 2  # one bar at a time after the first recenter

    def test_window_costs_by_length(self, forwards, monkeypatch):
        # recenters exactly when in_range is 0; its margins are +-0.5, so every batched row is certified
        net = constant_policy_net(0.5, 0.0)
        net.weights[0][7, 0] = -1.0
        net.biases[0][0] = 1.0
        net.weights[1][0, 0] = 1.0
        net.weights[2][0, 1] = 1.0
        strategy = st.PolicyStrategy(net)
        windows = []  # (bars, the forwards its search made)
        search = strategy.first_recenter

        def counted(lo, hi, pos, features):
            before = len(forwards)
            found = search(lo, hi, pos, features)
            windows.append((hi - lo, forwards[before:]))
            return found

        monkeypatch.setattr(strategy, "first_recenter", counted)
        report, _ = backtest.run(strategy, wandering(3000, sigma=0.2), POOL)
        assert report.rebalance_count > 100
        sizes = {bars for bars, _ in windows}
        assert {1, 2} <= sizes and max(sizes) >= 4
        for bars, made in windows:
            assert made == ([0] if bars == 1 else [bars]), bars


def wandering(n, sigma=0.05):
    sched = RegimeSchedule(
        segments=((n, OuParams(0.01, 100.0, sigma)),),
        initial_price=100.0,
        volume_model=VolumeModel(1000.0, 1.0),
    )
    return simulate_schedule(sched, 4)


class TestStrategyBase:
    def test_deciding_without_a_search_rejected(self):
        # backtest.run asks first_recenter only; the base one never recenters
        with pytest.raises(TypeError, match="first_recenter"):

            class DecidesOnly(st.Strategy):
                def decide(self, i, price, pos, features):
                    return price


class TestRegistry:
    def test_known_names(self):
        for name, cls in [
            ("merlin", st.Merlin),
            ("bedivere", st.Bedivere),
            ("lancelot", st.Lancelot),
            ("galahad", st.GalahadOu),
        ]:
            assert isinstance(st.make_strategy(name), cls)

    def test_galahad_params(self):
        g = st.make_strategy("galahad", {"horizon": 30.0, "theta_override": 0.0})
        assert g.horizon == 30.0 and g.theta_override == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            st.make_strategy("gawain")

    def test_rammstein_needs_checkpoint(self):
        with pytest.raises(TypeError, match="checkpoint"):
            st.make_strategy("rammstein")
