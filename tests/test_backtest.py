import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from ammlab import backtest as bt
from ammlab import ammcore, artifacts, config, envsim, marketdata, neural, strategies as st
from ammlab.agent import Q_NET_DIMS
from ammlab.ammcore import PoolConfig
from ammlab.errors import EmptyData
from ammlab.synthpath import OuParams, RegimeSchedule, VolumeModel, simulate_schedule

POOL = PoolConfig()


def series_from_closes(closes, volume=1000.0):
    c = np.array(closes, dtype=np.float64)
    t = np.arange(len(c), dtype=np.int64)
    return marketdata.BarSeries(t=t, open=c, high=c, low=c, close=c, volume=np.full(len(c), float(volume)))


def wandering_series(seed=0, n=2000, vol=1000.0):
    sched = RegimeSchedule(
        segments=((n, OuParams(0.001, 100.0, 0.05)),),
        initial_price=100.0,
        volume_model=VolumeModel(vol, 1.0),
    )
    return simulate_schedule(sched, seed)


def constant_policy_net(q0, q1):
    net = neural.Mlp(Q_NET_DIMS, seed=0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][:] = [q0, q1]
    return net


class TestRun:
    def test_bedivere_on_contained_path(self):
        closes = 100.0 + 0.1 * np.sin(np.arange(500) / 20.0)  # never leaves +/-0.2%
        report, _ = bt.run(st.Bedivere(), series_from_closes(closes), POOL)
        assert report.active_fraction == 1.0
        assert report.rebalance_count == 1
        assert report.total_gas == POOL.gas_cost

    def test_lancelot_always_active(self):
        report, _ = bt.run(st.Lancelot(), wandering_series(), POOL)
        assert report.active_fraction == 1.0
        assert report.rebalance_count > 1

    def test_merlin_one_rebalance_full_activity(self):
        report, _ = bt.run(st.Merlin(), wandering_series(3), POOL)
        assert report.active_fraction == 1.0
        assert report.rebalance_count == 1

    def test_roi_identity(self):
        report, _ = bt.run(st.Lancelot(), wandering_series(1), POOL)
        assert report.net_roi == pytest.approx(
            (report.total_fees - report.total_gas) / POOL.capital, abs=1e-12
        )

    def test_empty_series_rejected(self):
        with pytest.raises(EmptyData):
            bt.run(st.Lancelot(), series_from_closes([]), POOL)

    def test_deterministic(self):
        series = wandering_series(7)
        a, _ = bt.run(st.Lancelot(), series, POOL)
        b, _ = bt.run(st.Lancelot(), series, POOL)
        assert a == b

    def test_trace_columns(self):
        series = wandering_series(2, n=300)
        report, trace = bt.run(st.Lancelot(), series, POOL)
        assert list(trace) == envsim.TRACE_HEADER
        assert [len(col) for col in trace.values()] == [300] * len(envsim.TRACE_HEADER)
        assert trace["action"].sum() == report.rebalance_count - 1  # initial placement not traced

    def test_trace_csv_bytes_match_csv_writer(self, tmp_path):
        _, trace = bt.run(st.Lancelot(), wandering_series(2, n=300), POOL)
        envsim.write_trace_csv(tmp_path / "trace.csv", trace)
        rows = zip(*(trace[k].tolist() for k in envsim.TRACE_HEADER))
        artifacts.write_csv(tmp_path / "ref.csv", envsim.TRACE_HEADER, rows)
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_rebalance_deviations_measured_at_trigger(self):
        closes = [100.0, 100.0, 103.0, 103.0]
        _, trace = bt.run(st.Lancelot(), series_from_closes(closes), POOL)
        devs = bt.rebalance_deviations(trace)
        assert devs == pytest.approx([0.03])


def reference_deviations(trace):
    """The row loop rebalance_deviations replaced, over the same columns."""
    out = []
    prev_center = None
    columns = (trace[k].tolist() for k in ("price", "center", "action"))
    for price, center, acted in zip(*columns):
        if acted and prev_center is not None:
            out.append(abs(price / prev_center - 1.0))
        prev_center = center
    return out


positive = hst.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(rows=hst.lists(hst.tuples(positive, positive, hst.booleans()), max_size=40))
@example(rows=[(100.0, 101.0, True), (102.0, 102.0, True), (102.5, 102.0, False)])  # a recenter at bar 0
def test_rebalance_deviations_match_row_loop(rows):
    trace = {
        "price": np.array([r[0] for r in rows], dtype=np.float64),
        "center": np.array([r[1] for r in rows], dtype=np.float64),
        "action": np.array([r[2] for r in rows], dtype=np.int64),
    }
    assert bt.rebalance_deviations(trace) == reference_deviations(trace)


class TestGasSweep:
    def test_passive_slope_is_one_over_capital(self):
        closes = 100.0 + 0.1 * np.sin(np.arange(400) / 20.0)
        series = series_from_closes(closes)
        rows, _ = bt.gas_sweep([st.Bedivere()], series, (1.0, 2.0, 5.0), POOL)
        rois = {g: roi for g, _, roi in rows}
        assert rois[2.0] - rois[1.0] == pytest.approx(-1.0 / 10_000.0, rel=1e-9)
        assert rois[5.0] - rois[2.0] == pytest.approx(-3.0 / 10_000.0, rel=1e-9)

    def test_lancelot_strictly_decreasing(self):
        series = wandering_series(4)
        rows, _ = bt.gas_sweep([st.Lancelot()], series, (1.0, 2.0, 5.0, 10.0), POOL)
        rois = [roi for _, _, roi in sorted(rows)]
        assert all(b < a for a, b in zip(rois, rois[1:]))

    def test_break_even_matches_affine_crossing(self):
        # passive position: roi(G) = (fees - G)/K crosses zero exactly at fees
        closes = 100.0 + 0.1 * np.sin(np.arange(400) / 20.0)
        series = series_from_closes(closes, volume=2_200.0)
        report, _ = bt.run(st.Bedivere(), series, PoolConfig(gas_cost=1.0), features=None)
        fees = report.total_fees
        assert 1.0 < fees < 50.0
        _, break_evens = bt.gas_sweep([st.Bedivere()], series, (1.0, 2.0, 5.0, 10.0, 20.0, 50.0), POOL)
        assert break_evens["bedivere"] == pytest.approx(fees, rel=1e-9)

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            bt.gas_sweep([st.Lancelot()], wandering_series(5, n=100), (0.0, 1.0), POOL)

    def test_repeated_level_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            bt.gas_sweep([st.Lancelot()], wandering_series(5, n=100), (2.0, 2.0), POOL)

    def test_repeated_name_rejected(self):
        # one curve per name: a second galahad would overwrite the first's break-even
        pair = [st.GalahadOu(), st.GalahadOu(horizon=600.0)]
        with pytest.raises(ValueError, match="distinct"):
            bt.gas_sweep(pair, wandering_series(5, n=100), (1.0, 2.0), POOL)


SWEEP_NAMES = ("merlin", "bedivere", "lancelot", "galahad", "rammstein")


@pytest.fixture(scope="module")
def sweep_strategies(tmp_path_factory):
    """Every strategy make_strategy builds, built once; rammstein from a seeded checkpoint."""
    ckpt = tmp_path_factory.mktemp("policy") / "checkpoint.json"
    # seed 2 both holds and recenters on the wandering series
    neural.save_checkpoint(ckpt, neural.Mlp(Q_NET_DIMS, seed=2))
    params = {"rammstein": {"checkpoint": str(ckpt)}}
    return [st.make_strategy(name, params.get(name)) for name in SWEEP_NAMES]


@pytest.fixture(scope="module")
def sweep_series():
    series = wandering_series(2, n=600)
    return series, envsim.FeatureTrack(series)


def assert_sweep_matches_brute_force(strategies, series, features, levels):
    cfg = PoolConfig(gas_cost=3.0)
    rows, break_evens = bt.gas_sweep(strategies, series, levels, cfg, features=features)
    assert [(g, name) for g, name, _ in rows] == [(g, s.name) for s in strategies for g in sorted(levels)]
    for strategy in strategies:
        curve = []
        for g in sorted(levels):
            report, _ = bt.run(strategy, series, replace(cfg, gas_cost=g), features=features)
            curve.append((g, report.net_roi))
        swept = [(g, roi) for g, n, roi in rows if n == strategy.name]
        assert swept == curve, strategy.name  # exact, not approximate
        assert break_evens[strategy.name] == bt._break_even(curve)


class TestGasSweepDifferential:
    """One run per strategy prices every gas level exactly like a run at that level."""

    def test_rebalance_counts_span_passive_to_busy(self, sweep_strategies, sweep_series):
        series, features = sweep_series
        counts = {s.name: bt.run(s, series, POOL, features=features)[0].rebalance_count for s in sweep_strategies}
        assert counts["merlin"] == counts["bedivere"] == 1
        assert min(counts["lancelot"], counts["galahad"], counts["rammstein"]) > 10

    def test_default_levels(self, sweep_strategies, sweep_series):
        assert_sweep_matches_brute_force(sweep_strategies, *sweep_series, (1.0, 2.0, 5.0, 10.0, 20.0, 50.0))

    @settings(max_examples=15, deadline=None)
    @given(
        levels=hst.lists(
            hst.floats(min_value=1e-6, max_value=1e4, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    def test_drawn_levels(self, sweep_strategies, sweep_series, levels):
        assert_sweep_matches_brute_force(sweep_strategies, *sweep_series, levels)


class TestEnvBacktestAccounting:
    """LpEnv and backtest.run share ammcore.step and differ only in the fee bar.

    The backtest credits bar i's fee to the decision made at bar i; the env
    credits bar i+1's. Lancelot's rule, applied through both loops on the
    smoke series, pins that convention with exact equality.
    """

    @pytest.fixture(scope="class")
    def runs(self):
        doc = config.load(Path(__file__).parent.parent / "configs" / "smoke.json")
        series = simulate_schedule(config.schedule(doc), 0)
        features = envsim.FeatureTrack(series)
        cfg = config.pool_config(doc)
        report, bt_trace = bt.run(st.Lancelot(), series, cfg, features=features)
        env = envsim.LpEnv(series, cfg, episode_length=len(series) - 1, features=features)
        step = ammcore.step
        fee_gas, centers, actions = [], [], []

        def recorded(*args):
            fee_gas.append(step(*args))
            return fee_gas[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ammcore, "step", recorded)
            state = env.reset(0)
            while True:
                actions.append(int(state[-1] == 0.0))  # lancelot's rule
                state, _, terminal = env.step(actions[-1])
                centers.append(env.pos.center)
                if terminal:
                    break
        fee, gas = np.array(fee_gas).T
        env_trace = {"center": np.array(centers), "action": np.array(actions), "fee": fee, "gas": gas}
        return report, bt_trace, env.pos, env_trace

    def test_same_rebalances_and_gas(self, runs):
        report, _, env_pos, _ = runs
        assert env_pos.rebalance_count == report.rebalance_count
        assert env_pos.accrued_gas == report.total_gas

    def test_same_center_action_gas_each_step(self, runs):
        _, bt_trace, _, env_trace = runs
        n = len(env_trace["action"])
        assert n == len(bt_trace["action"]) - 1
        for k in ("center", "action", "gas"):
            assert np.array_equal(env_trace[k], bt_trace[k][:n]), k

    def test_env_fee_is_backtest_fee_one_bar_on(self, runs):
        report, bt_trace, env_pos, env_trace = runs
        expected = np.where(bt_trace["action"][1:] == 1, 0.0, bt_trace["fee"][1:])
        assert np.array_equal(env_trace["fee"], expected)
        # lancelot is in range at every backtest second, but not every env second
        assert report.active_fraction == 1.0
        assert ammcore.active_fraction(env_pos) < 1.0


class TestGoldenTraces:
    """Trace bytes and report metrics of every strategy on the smoke series.

    Pinned so that a refactor of the decision loop, the strategies or the
    features cannot change a backtest's output unnoticed.
    """

    GOLDEN = {
        "merlin": (
            "857f84112155cb4fa166b0e1c63268bb92089de16fc119de4a4aaf010fcd6fd0",
            {"active_frac": 1.0, "lambda": 8.37047891894506, "rebalances": 1,
             "fees": 2264.5599515905424, "gas": 2.0, "net_roi": 0.22625599515905423},
        ),
        "bedivere": (
            "2f226240b49debd909b3443988796e58e3cdbbc30b820cbcbf6d3a1dae8ce8d1",
            {"active_frac": 0.4889, "lambda": 22.360679774997898, "rebalances": 1,
             "fees": 2958.148478489728, "gas": 2.0, "net_roi": 0.2956148478489728},
        ),
        "lancelot": (
            "e3d514a869d2699decee8e9ca22b2e44a00ef3212fbf3d18a1bc4a5b1fe5bc45",
            {"active_frac": 1.0, "lambda": 22.360679774997898, "rebalances": 298,
             "fees": 6049.486582445435, "gas": 1338.5, "net_roi": 0.47109865824454344},
        ),
        "galahad": (
            "c18870473a5ad6371b86a13ca163179531c468a3d3ed7b74e89c7f61cd75813f",
            {"active_frac": 0.7856, "lambda": 22.360679774997898, "rebalances": 69,
             "fees": 4752.801999414925, "gas": 308.0, "net_roi": 0.4444801999414925},
        ),
        "galahad-theta-0.02": (
            "2a18f5729527e3f36adf0ecbc53086f6db9c5ec9667927310d1c3f9c436aca32",
            {"active_frac": 0.6764, "lambda": 22.360679774997898, "rebalances": 63,
             "fees": 4087.562981257131, "gas": 281.0, "net_roi": 0.3806562981257131},
        ),
        "rammstein": (
            "7be61bc5300e86e418a6724264987e252454b1e5777003de2b85d459027eb57f",
            {"active_frac": 0.61, "lambda": 22.360679774997898, "rebalances": 3473,
             "fees": 3667.948190989047, "gas": 15626.0, "net_roi": -1.1958051809010952},
        ),
    }
    STRATEGIES = {
        "merlin": st.Merlin(),
        "bedivere": st.Bedivere(),
        "lancelot": st.Lancelot(),
        "galahad": st.GalahadOu(),
        "galahad-theta-0.02": st.GalahadOu(theta_override=0.02),
        # seed 2 both holds and recenters on the smoke series
        "rammstein": st.PolicyStrategy(neural.Mlp(Q_NET_DIMS, seed=2)),
    }

    @pytest.fixture(scope="class")
    def smoke(self):
        doc = config.load(Path(__file__).parent.parent / "configs" / "smoke.json")
        series = simulate_schedule(config.schedule(doc), 0)
        return series, envsim.FeatureTrack(series), config.pool_config(doc)

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_trace_bytes_and_metrics(self, smoke, name, tmp_path):
        series, features, cfg = smoke
        report, trace = bt.run(self.STRATEGIES[name], series, cfg, features)
        path = tmp_path / "trace.csv"
        envsim.write_trace_csv(path, trace)
        sha, metrics = self.GOLDEN[name]
        assert report.metrics() == metrics
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


class TestStrategyIsAValue:
    """A built strategy keeps no state between runs, so one instance serves them all."""

    @pytest.mark.parametrize("name", list(TestGoldenTraces.STRATEGIES))
    def test_same_report_and_trace_bytes_each_run(self, name, sweep_series, tmp_path, monkeypatch):
        series, features = sweep_series
        strategy = TestGoldenTraces.STRATEGIES[name]
        runs = [bt.run(strategy, series, POOL, features), bt.run(strategy, series, POOL, features)]
        run = bt.run

        def recorded(*args):
            runs.append(run(*args))
            return runs[-1]

        monkeypatch.setattr(bt, "run", recorded)
        bt.gas_sweep([strategy], series, (1.0, 2.0), POOL, features)
        assert len(runs) == 3
        traces = []
        for k, (_, trace) in enumerate(runs):
            envsim.write_trace_csv(tmp_path / f"{k}.csv", trace)
            traces.append((tmp_path / f"{k}.csv").read_bytes())
        assert runs[0][0] == runs[1][0] == runs[2][0]
        assert traces[0] == traces[1] == traces[2]


class TestTraceMatchesReport:
    """The trace's columns add up to the report's totals, for every strategy."""

    @pytest.mark.parametrize("name", list(TestGoldenTraces.STRATEGIES))
    @settings(max_examples=20, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 400),
        theta=hst.floats(1e-4, 0.1),
        sigma=hst.floats(0.01, 0.5),
    )
    @example(seed=5090, n=122, theta=0.015625, sigma=0.5)  # bar 121 fits mu = -399.8
    def test_totals(self, name, seed, n, theta, sigma):
        sched = RegimeSchedule(
            segments=((n, OuParams(theta, 100.0, sigma)),),
            initial_price=100.0,
            volume_model=VolumeModel(20_000.0, 1.0),
        )
        series = simulate_schedule(sched, seed)
        features = envsim.FeatureTrack(series, window=30)
        report, trace = bt.run(TestGoldenTraces.STRATEGIES[name], series, POOL, features=features)
        assert trace["action"].sum() == report.rebalance_count - 1
        assert trace["in_range"].mean() == report.active_fraction
        assert np.cumsum(trace["fee"])[-1] == report.total_fees  # accrued in the same order


class TestHeatmap:
    def test_constant_zero_grid(self):
        grid = bt.heatmap(constant_policy_net(0.0, 0.0), [0.0, 0.05, 0.1], np.linspace(-1, 1, 5))
        assert np.all(grid.q_diff == 0.0)
        assert grid.q_diff.shape == (3, 5)

    def test_hold_favoring_grid_uniformly_negative(self):
        grid = bt.heatmap(constant_policy_net(1.0, 0.0), np.linspace(0, 0.1, 4), np.linspace(-1, 1, 7))
        assert np.all(grid.q_diff < 0.0)

    def test_state_construction_rules(self):
        # nonconstant net: verify the grid equals per-cell manual evaluation
        net = neural.Mlp(Q_NET_DIMS, seed=5)
        thetas = [0.0, 0.05]
        edges = [-1.0, 0.0, 0.5, 1.0]
        grid = bt.heatmap(net, thetas, edges, width=0.002, sigma_norm=0.01, recent_vol=0.02)
        for i, th in enumerate(thetas):
            for j, de in enumerate(edges):
                state = np.array(
                    [de * 0.002, de, th, 0.0, 0.01, 0.5, 0.02, 1.0 if abs(de) < 1.0 else 0.0]
                )
                q = neural.forward(net, state)
                assert grid.q_diff[i, j] == pytest.approx(q[1] - q[0], abs=1e-12)

    def test_csv_export(self, tmp_path):
        grid = bt.heatmap(constant_policy_net(0.5, 0.25), [0.0, 0.1], [-1.0, 1.0])
        path = tmp_path / "heatmap.csv"
        bt.write_heatmap_csv(path, grid)
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,d_edge,q_diff"
        assert len(lines) == 5

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        grid = bt.heatmap(neural.Mlp(Q_NET_DIMS, seed=3), np.linspace(0.0, 0.1, 5), np.linspace(-1.0, 1.0, 7))
        bt.write_heatmap_csv(tmp_path / "heatmap.csv", grid)
        rows = [
            (th, d, grid.q_diff[i, j].item())
            for i, th in enumerate(grid.theta_axis.tolist())
            for j, d in enumerate(grid.d_edge_axis.tolist())
        ]
        artifacts.write_csv(tmp_path / "ref.csv", ["theta", "d_edge", "q_diff"], rows)
        assert (tmp_path / "heatmap.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestReports:
    def test_json_schema_fields(self, tmp_path):
        report, _ = bt.run(st.Lancelot(), wandering_series(6, n=200), POOL, config_hash="abc123")
        path = tmp_path / "report.json"
        bt.write_report_json(path, report)
        doc = json.loads(path.read_text())
        assert doc["strategy"] == "lancelot"
        assert doc["config_hash"] == "abc123"
        assert set(doc["metrics"]) == {"active_frac", "lambda", "rebalances", "fees", "gas", "net_roi"}

    def test_gas_sweep_csv(self, tmp_path):
        rows = [(1.0, "lancelot", 0.01), (2.0, "lancelot", 0.005)]
        path = tmp_path / "sweep.csv"
        bt.write_gas_sweep_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "gas,strategy,net_roi"
        assert len(lines) == 3
