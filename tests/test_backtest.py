import hashlib
import json
from dataclasses import asdict, replace
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

    def test_recenter_outside_the_search_rejected(self):
        class Backwards(st.Strategy):
            name = "backwards"

            def first_recenter(self, lo, hi, pos, features):
                return lo - 1, 100.0

        with pytest.raises(ValueError, match="outside"):
            bt.run(Backwards(), series_from_closes([100.0] * 5), POOL)

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
        with pytest.raises(ValueError, match="two gas levels"):
            bt.gas_sweep([st.Lancelot()], wandering_series(5, n=100), (2.0,), POOL)

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
    """LpEnv and backtest.run share the accounting and differ only in the fee bar.

    The env accounts every second through ammcore.step; the backtest
    through ammcore.step on its recenter bars and ammcore.hold on the bars
    it holds. The backtest credits bar i's fee to the decision made at bar
    i; the env credits bar i+1's. Lancelot's rule, applied through both on
    the smoke series, pins that convention with exact equality.
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
            "869d131375187a27981abe48dc1252222324bc4eee091a827f7305d21d3860cb",
            {"active_frac": 1.0, "lambda": 8.37047891894506, "rebalances": 1,
             "fees": 2264.5599515905424, "gas": 2.0, "net_roi": 0.22625599515905423},
        ),
        "bedivere": (
            "847addf2fe16c92279e78cbd0016d531fc8f4e770653e4ba1d0487075ff711d6",
            {"active_frac": 0.4889, "lambda": 22.360679774997898, "rebalances": 1,
             "fees": 2958.148478489728, "gas": 2.0, "net_roi": 0.2956148478489728},
        ),
        "lancelot": (
            "3d681d2b22a1a6674d7022871288eeed83bed2e2d39521caae86811073b81b37",
            {"active_frac": 1.0, "lambda": 22.360679774997898, "rebalances": 298,
             "fees": 6049.486582445435, "gas": 1338.5, "net_roi": 0.47109865824454344},
        ),
        "galahad": (
            "554e1276e8dac74c13abc9ac0abc4ada269e2b70c27182f282debb0e4f47e836",
            {"active_frac": 0.7856, "lambda": 22.360679774997898, "rebalances": 69,
             "fees": 4752.801999414925, "gas": 308.0, "net_roi": 0.4444801999414925},
        ),
        "galahad-theta-0.02": (
            "7e47a56f67904d211b5f8c26ff74a52218705b77ab4d0caf15402500689573a1",
            {"active_frac": 0.6764, "lambda": 22.360679774997898, "rebalances": 63,
             "fees": 4087.562981257131, "gas": 281.0, "net_roi": 0.3806562981257131},
        ),
        "rammstein": (
            "f6e623524f099a7250f37e66c5228d3667279da022c8d33773017b3cf0006c1f",
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
        # nonconstant net: each cell is build_state's row for a position centred at 1
        net = neural.Mlp(Q_NET_DIMS, seed=5)
        thetas = [0.0, 0.05]
        edges = [-1.0, 0.0, 0.5, 1.0]
        grid = bt.heatmap(net, thetas, edges, width=0.002, sigma_norm=0.01, recent_vol=0.02)
        pos = ammcore.Position(center=1.0, width=0.002, capital=1e4, active_seconds=1, total_seconds=2)
        for i, th in enumerate(thetas):
            for j, de in enumerate(edges):
                features = envsim.FeatureTrack(series_from_closes([1.0 + de * 0.002]))
                features.bar_columns = np.array([[th, 0.0, 0.01, 0.02]])
                q = neural.forward(net, envsim.build_state(pos, features, 0))
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


def per_bar_run(strategy, series, cfg, features):
    """backtest.run as it was before first_recenter: the reference.

    Every bar asks decide and goes through ammcore.step.
    """
    center0, width0 = strategy.initial_range(series, cfg.width)
    pos = ammcore.open_position(center0, cfg, width=width0)
    n = len(series)
    center, fee, gas = np.empty(n), np.empty(n), np.empty(n)
    action, in_range = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for i in range(n):
        price = float(series.close[i])
        target = strategy.decide(i, price, pos, features)
        fee[i], gas[i] = ammcore.step(pos, target, price, float(series.volume[i]), cfg)
        center[i] = pos.center
        action[i] = target is not None
        in_range[i] = ammcore.in_range(pos, price)
    report = bt.BacktestReport(
        strategy=strategy.name,
        active_fraction=ammcore.active_fraction(pos),
        normalized_liquidity=ammcore.concentration(pos.width),
        rebalance_count=pos.rebalance_count,
        total_fees=pos.accrued_fees,
        total_gas=pos.accrued_gas,
        net_roi=ammcore.net_roi(pos),
    )
    trace = {
        "t": series.t,
        "price": series.close,
        "center": center,
        "action": action,
        "fee": fee,
        "gas": gas,
        "theta": np.where(features.valid, features.theta, 0.0),
        "in_range": in_range,
    }
    return report, trace


def bits(column):
    column = np.asarray(column)
    return column.view(np.int64) if column.dtype == np.float64 else column


def assert_same_run(got, want):
    (report, trace), (ref_report, ref_trace) = got, want
    assert report == ref_report
    assert list(trace) == list(ref_trace)
    for key in trace:
        assert np.array_equal(bits(trace[key]), bits(ref_trace[key])), key


def tied_net(seed, gap_ulps):
    """A net whose two outputs differ by `gap_ulps` ulps of the last bias
    (0: equal columns, so every margin is exactly zero)."""
    net = neural.Mlp(Q_NET_DIMS, seed=seed)
    net.weights[-1][:, 1] = net.weights[-1][:, 0]
    net.biases[-1][1] = net.biases[-1][0]
    for _ in range(gap_ulps):
        net.biases[-1][1] = np.nextafter(net.biases[-1][1], np.inf)
    return net


def twin_net(seed):
    """A net whose outputs are equal in exact arithmetic but summed in
    other orders: q1 reads twins of the hidden units q0 reads, permuted.
    Their float64 margins are rounding noise, whose sign differs between
    a batched and a one-row forward."""
    net = neural.Mlp(Q_NET_DIMS, seed=seed)
    w2, w3 = net.weights[1], net.weights[2]
    half = w2.shape[1] // 2
    order = np.random.default_rng(seed).permutation(half)
    w2[:, half:] = w2[:, order]  # unit half + j twins unit order[j]
    net.biases[1][:] = 0.01
    w3[half:, 0] = w3[:half, 1] = 0.0
    w3[half:, 1] = w3[order, 0]
    return net


def nan_net(seed, layer, column):
    """A net with one NaN weight, in the given layer and output column."""
    net = neural.Mlp(Q_NET_DIMS, seed=seed)
    w = net.weights[layer]
    w[seed % w.shape[0], column % w.shape[1]] = np.nan
    return net


def out_of_band_net():
    """A net that recenters exactly when the in_range feature is 0: q0 is
    0.5 and q1 is relu(relu(1 - in_range)), so every margin is +-0.5."""
    net = constant_policy_net(0.5, 0.0)
    net.weights[0][7, 0] = -1.0
    net.biases[0][0] = 1.0
    net.weights[1][0, 0] = 1.0
    net.weights[2][0, 1] = 1.0
    return net


DIFFERENTIAL = {
    **TestGoldenTraces.STRATEGIES,
    "recenters-every-bar": st.PolicyStrategy(constant_policy_net(-1.0, 0.0)),
    "recenters-out-of-band": st.PolicyStrategy(out_of_band_net()),
    "equal-outputs": st.PolicyStrategy(tied_net(3, 0)),
    "one-ulp-apart": st.PolicyStrategy(tied_net(4, 1)),
    "twin-outputs": st.PolicyStrategy(twin_net(8)),
    "nan-hidden-weight": st.PolicyStrategy(nan_net(5, 1, 7)),
    "nan-q1-weight": st.PolicyStrategy(nan_net(6, 2, 1)),
    "nan-q0-weight": st.PolicyStrategy(nan_net(7, 2, 0)),
}


def ou_series(seed, n, theta, sigma):
    sched = RegimeSchedule(
        segments=((n, OuParams(theta, 100.0, sigma)),),
        initial_price=100.0,
        volume_model=VolumeModel(20_000.0, 1.0),
    )
    return simulate_schedule(sched, seed)


class TestMatchesPerBarRun:
    """Walking from one recenter to the next gives the per-bar loop's
    report and trace, bit for bit, for every strategy."""

    @pytest.mark.parametrize("name", list(DIFFERENTIAL))
    @settings(max_examples=15, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 400),
        theta=hst.floats(1e-4, 0.1),
        sigma=hst.floats(0.01, 0.5),
    )
    @example(seed=5090, n=122, theta=0.015625, sigma=0.5)  # bar 121 fits mu = -399.8
    def test_ou_paths(self, name, seed, n, theta, sigma):
        series = ou_series(seed, n, theta, sigma)
        features = envsim.FeatureTrack(series, window=30)
        strategy = DIFFERENTIAL[name]
        assert_same_run(bt.run(strategy, series, POOL, features), per_bar_run(strategy, series, POOL, features))

    @pytest.mark.parametrize("name", ["rammstein", "recenters-every-bar", "nan-q1-weight", "twin-outputs"])
    def test_smoke_series(self, name):
        doc = config.load(Path(__file__).parent.parent / "configs" / "smoke.json")
        series = simulate_schedule(config.schedule(doc), 0).slice(0, 3000)
        features, cfg = envsim.FeatureTrack(series), config.pool_config(doc)
        strategy = DIFFERENTIAL[name]
        assert_same_run(bt.run(strategy, series, cfg, features), per_bar_run(strategy, series, cfg, features))


def test_out_of_band_policy_meets_short_windows(monkeypatch):
    """The net that recenters on exit, lancelot's rule, is searched in
    one-bar, two-bar and longer windows, and matches the per-bar loop."""
    strategy = DIFFERENTIAL["recenters-out-of-band"]
    sizes = []
    search = strategy.first_recenter

    def counted(lo, hi, pos, features):
        sizes.append(hi - lo)
        return search(lo, hi, pos, features)

    monkeypatch.setattr(strategy, "first_recenter", counted)
    series = ou_series(1, 400, 0.01, 0.2)
    features = envsim.FeatureTrack(series, window=30)
    assert_same_run(bt.run(strategy, series, POOL, features), per_bar_run(strategy, series, POOL, features))
    assert {1, 2} <= set(sizes) and max(sizes) >= 4
    lancelot, _ = bt.run(st.Lancelot(), series, POOL, features)
    assert bt.run(strategy, series, POOL, features)[0].metrics() == lancelot.metrics()


window_sizes = hst.sampled_from([1, 2, 7, 512, None])  # None: the series' length


@pytest.mark.parametrize("name", list(DIFFERENTIAL))
@settings(max_examples=10, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    n=hst.integers(1, 400),
    theta=hst.floats(1e-4, 0.1),
    sigma=hst.floats(0.01, 0.5),
    first=window_sizes,
    cap=window_sizes,
)
def test_window_sizes_change_speed_only(name, seed, n, theta, sigma, first, cap):
    series = ou_series(seed, n, theta, sigma)
    features = envsim.FeatureTrack(series, window=30)
    strategy = DIFFERENTIAL[name]
    want = bt.run(strategy, series, POOL, features)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bt, "FIRST_WINDOW", first or n)
        patch.setattr(bt, "WINDOW_CAP", cap or n)
        got = bt.run(strategy, series, POOL, features)
    assert_same_run(got, want)


@pytest.mark.parametrize("name", list(DIFFERENTIAL))
@settings(max_examples=15, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    n=hst.integers(1, 300),
    lo=hst.integers(0, 299),
    size=hst.integers(1, 600),
    sigma=hst.floats(0.01, 0.5),
)
def test_first_recenter_leaves_pos_alone(name, seed, n, lo, size, sigma):
    """backtest.run hands every window its own position, not a copy."""
    series = ou_series(seed, n, 0.01, sigma)
    features = envsim.FeatureTrack(series, window=30)
    strategy = DIFFERENTIAL[name]
    lo = min(lo, n - 1)
    center0, width0 = strategy.initial_range(series, POOL.width)
    pos = ammcore.open_position(center0, POOL, width=width0)
    ammcore.hold(pos, series.close[:lo], series.volume[:lo], POOL)
    before = asdict(pos)
    strategy.first_recenter(lo, min(lo + size, n), pos, features)
    assert asdict(pos) == before


@settings(max_examples=60, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    n=hst.integers(1, 300),
    start=hst.integers(0, 299),
    width=hst.sampled_from([0.0005, 0.002, 0.01]),
    sigma=hst.floats(0.01, 0.5),
)
def test_hold_states_match_build_state(seed, n, start, width, sigma):
    series = ou_series(seed, n, 0.01, sigma)
    features = envsim.FeatureTrack(series, window=30)
    start = min(start, n - 1)
    cfg = replace(POOL, width=width)
    pos = ammcore.open_position(float(series.close[seed % n]), cfg)
    for i in range(start):  # the position as a held run leaves it before bar start
        ammcore.fee_step(pos, float(series.close[i]), float(series.volume[i]), cfg)
    rows = envsim.hold_states(pos, features, start, n)
    assert rows.shape == (n - start, envsim.STATE_DIM)
    for k, i in enumerate(range(start, n)):
        assert np.array_equal(bits(rows[k]), bits(envsim.build_state(pos, features, i))), i
        ammcore.fee_step(pos, float(series.close[i]), float(series.volume[i]), cfg)


class TestFeaturesMatchSeries:
    """Strategies read prices from features.series, the accounting from series."""

    @pytest.fixture
    def series(self):
        return wandering_series(8, n=200)

    def test_longer_track_rejected(self, series):
        longer = envsim.FeatureTrack(wandering_series(8, n=300))
        with pytest.raises(ValueError, match="closes differ"):
            bt.run(st.Lancelot(), series, POOL, longer)
        with pytest.raises(ValueError, match="closes differ"):
            bt.gas_sweep([st.Lancelot()], series, (1.0, 2.0), POOL, longer)

    def test_other_values_rejected(self, series):
        other = series.close.copy()
        other[100] += 0.5
        moved = envsim.FeatureTrack(marketdata.BarSeries(
            t=series.t, open=other, high=other, low=other, close=other, volume=series.volume
        ))
        with pytest.raises(ValueError, match="closes differ"):
            bt.run(st.Lancelot(), series, POOL, moved)
        with pytest.raises(ValueError, match="closes differ"):
            bt.gas_sweep([st.Lancelot()], series, (1.0, 2.0), POOL, moved)

    def test_track_of_an_equal_series_accepted(self, series):
        copied = marketdata.BarSeries(
            t=series.t, open=series.open, high=series.high, low=series.low,
            close=series.close.copy(), volume=series.volume,
        )
        report, _ = bt.run(st.Lancelot(), series, POOL, envsim.FeatureTrack(copied))
        assert report == bt.run(st.Lancelot(), series, POOL)[0]
