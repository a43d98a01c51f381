"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run with -s to see them live).
The training-based criteria share module-scoped fixtures: the mixed-regime
agents feed both the laziness and the gas-ordering checks, so the whole
suite stays inside its time budget. Every random quantity is pinned to a
seed, making each criterion's numbers reproducible bit-for-bit.
"""

import filecmp
import json
import math
import os

import numpy as np
import pytest

from ammlab import agent as agent_mod
from ammlab import backtest as bt
from ammlab import cli, config as config_mod, envsim, marketdata, neural, qvi, regime, strategies, synthpath
from ammlab.ammcore import PoolConfig, concentration, rebalance_cost
from ammlab.synthpath import OuParams, RegimeSchedule, VolumeModel

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
POOL = PoolConfig()
EPISODES = 20
EPISODE_LENGTH = 3600
GAS_LEVELS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")


def load_shipped_config(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return config_mod.validate(json.load(fh))


def episode_starts(series, seed=555, n=EPISODES):
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, len(series) - EPISODE_LENGTH - 1, size=n)]


def run_episodes(env, decide, starts):
    """Greedy rollout over fixed episode windows.

    Returns (rebalances, active fraction, total fees, trigger deviations).
    """
    rebalances = 0
    active = 0
    total = 0
    fees = 0.0
    deviations = []
    for s0 in starts:
        state = env.reset(s0)
        while True:
            action = decide(state, env)
            if action == 1:
                deviations.append(abs(float(env.series.close[env._i]) / env.pos.center - 1.0))
            state, _, terminal = env.step(action)
            rebalances += action
            active += state[-1]
            total += 1
            if terminal:
                break
        fees += env.pos.accrued_fees
    return rebalances, active / total, fees, deviations


def roi_curve(fees, n_rebal, gas_levels):
    """(gas, net ROI) of one evaluation at each gas level.

    Strategies never observe gas, so every level follows exactly from one
    evaluation: pnl(G) = fees - swap_fee*N - G*(N + episode inits).
    """
    swap_fee = POOL.fee_tier * 0.5 * POOL.capital
    return [
        (g, (fees - swap_fee * n_rebal - g * (n_rebal + EPISODES)) / POOL.capital)
        for g in gas_levels
    ]


def lancelot_decide(state, env):
    return 0 if state[-1] else 1


def greedy_decide(net):
    def decide(state, env):
        return int(np.argmax(neural.forward(net, state)))

    return decide


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def mixed_setup():
    """Criterion 7/8 environment: shipped smoke config, 5 trained seeds."""
    doc = load_shipped_config("smoke.json")
    schedule = config_mod.schedule(doc)
    eval_series = synthpath.simulate_schedule(schedule, 9999)
    eval_env = envsim.LpEnv(eval_series, POOL, envsim.RewardParams(),
                            episode_length=EPISODE_LENGTH, seed=123)
    starts = episode_starts(eval_series)
    lancelot = run_episodes(eval_env, lancelot_decide, starts)

    agents = []
    for seed in range(5):
        train_series = synthpath.simulate_schedule(schedule, 1000 + seed)
        env = envsim.LpEnv(train_series, POOL, envsim.RewardParams(),
                           episode_length=EPISODE_LENGTH, seed=seed)
        cfg = config_mod.train_config(doc, seed)
        agent, _ = agent_mod.train(env, cfg)
        stats = run_episodes(eval_env, greedy_decide(agent.online), starts)
        agents.append((agent, stats))
    return {"lancelot": lancelot, "agents": agents}


@pytest.fixture(scope="module")
def stationary_setup():
    """Criterion 6 environment: stationary config, one trained seed + oracle."""
    doc = load_shipped_config("stationary.json")
    schedule = config_mod.schedule(doc)
    train_series = synthpath.simulate_schedule(schedule, 2000)
    eval_series = synthpath.simulate_schedule(schedule, 8888)

    env = envsim.LpEnv(train_series, POOL, envsim.RewardParams(),
                       episode_length=EPISODE_LENGTH, seed=0)
    cfg = config_mod.train_config(doc, 0)
    agent, _ = agent_mod.train(env, cfg)

    ou = OuParams(0.05, 100.0, 0.5)
    problem = qvi.QviProblem.default(
        ou, POOL, n_s=400, n_c=100,
        ref_volume=float(np.mean(train_series.volume)),
    )
    solution = qvi.solve(problem)

    eval_env = envsim.LpEnv(eval_series, POOL, envsim.RewardParams(),
                            episode_length=EPISODE_LENGTH, seed=123)
    starts = episode_starts(eval_series)
    return {"agent": agent, "solution": solution, "eval_env": eval_env, "starts": starts}


# ---------------------------------------------------------------- criteria


def test_criterion_1_closed_form_constants():
    lam = concentration(0.002)
    hl = regime.half_life(0.01)
    cost = rebalance_cost(POOL)
    ok = abs(lam - 22.36) <= 0.1 and abs(hl - 69.31) <= 0.01 and cost == 4.50
    _report(1, ok, f"lambda={lam:.4f}, half_life={hl:.4f}s, rebalance_cost={cost}")
    assert abs(lam - 22.36) <= 0.1
    assert abs(hl - 69.31) <= 0.01
    assert cost == 4.50


def test_criterion_2_ou_estimator_recovery():
    worst_theta_err = 0.0
    worst_mu_err = 0.0
    for theta in (0.001, 0.01, 0.05):
        path = synthpath.simulate_ou(OuParams(theta, 100.0, 0.0), 110.0, 1799, 1.0, seed=0)
        est = regime.estimate(path)
        exact = 1.0 - math.exp(-theta)
        worst_theta_err = max(worst_theta_err, abs(est.theta / exact - 1.0))
        worst_mu_err = max(worst_mu_err, abs(est.mu / 100.0 - 1.0))

    exact = 1.0 - math.exp(-0.01)
    errs = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        s0 = 100.0 + rng.normal(0.0, 0.1 / math.sqrt(0.02))  # stationary draw
        path = synthpath.simulate_ou(OuParams(0.01, 100.0, 0.1), s0, 1799, 1.0, rng)
        errs.append(abs(regime.estimate(path).theta / exact - 1.0))
    noisy_median = float(np.median(errs))

    ok = worst_theta_err < 0.02 and worst_mu_err < 0.001 and noisy_median < 0.25
    _report(
        2,
        ok,
        f"noiseless worst theta err={worst_theta_err:.2e}, mu err={worst_mu_err:.2e}, "
        f"noisy median err={noisy_median:.3f} (<0.25)",
    )
    assert worst_theta_err < 0.02
    assert worst_mu_err < 0.001
    assert noisy_median < 0.25


def test_criterion_3_gradient_check():
    worst = 0.0
    h = 1e-5
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        net = neural.Mlp(agent_mod.Q_NET_DIMS, seed=seed)
        x = rng.normal(size=(4, 8))
        grad_out = rng.normal(size=(4, 2))
        cache = neural.Workspace(net.layer_dims, len(x))
        neural.forward(net, x, cache)
        neural.backward(net, cache, grad_out)

        def loss():
            return float(np.sum(neural.forward(net, x) * grad_out))

        for li in range(net.n_layers):
            for arr, grad in ((net.weights[li], cache.grad_w[li]), (net.biases[li], cache.grad_b[li])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    if abs(grad[idx]) <= 1e-8:
                        continue
                    orig = arr[idx]
                    arr[idx] = orig + h
                    lp = loss()
                    arr[idx] = orig - h
                    lm = loss()
                    arr[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    worst = max(worst, abs(fd - grad[idx]) / abs(grad[idx]))
    ok = worst < 1e-4
    _report(3, ok, f"max relative gradient error={worst:.2e} over 5 seeded nets")
    assert worst < 1e-4


def test_criterion_4_double_dqn_semantics():
    # decoupling: online argmax at action 1, target valued there (2), even
    # though the target's own max is action 0 (5)
    def const_net(q0, q1):
        net = neural.Mlp(agent_mod.Q_NET_DIMS, seed=0)
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        net.biases[-1][:] = [q0, q1]
        return net

    batch = (np.zeros((1, 8)), np.zeros(1, dtype=np.int64), np.array([0.1]), np.zeros((1, 8)), np.zeros(1))
    y = agent_mod.ddqn_target(batch, const_net(0.0, 1.0), const_net(5.0, 2.0), 0.99)
    decoupled = y[0] == pytest.approx(0.1 + 0.99 * 2.0, abs=1e-12)

    buf = agent_mod.ReplayBuffer(capacity=1000, state_dim=1)
    for i in range(1010):
        buf.push([float(i)], 0, 0.0, [0.0], False)
    fifo_ok = set(buf.states[:, 0].astype(int)) == set(range(10, 1010))

    rng = np.random.default_rng(0)
    counts = np.zeros(1000)
    draws = 100_000
    for _ in range(100):
        s, *_ = buf.sample(1000, rng)
        np.add.at(counts, (s[:, 0] - 10).astype(int), 1)
    sd = math.sqrt(draws * (1 / 1000) * (1 - 1 / 1000))
    uniform_ok = float(np.max(np.abs(counts - draws / 1000))) < 4 * sd

    ok = decoupled and fifo_ok and uniform_ok
    _report(4, ok, f"decoupled target={y[0]:.4f} (expect 2.08), FIFO={fifo_ok}, uniform={uniform_ok}")
    assert decoupled and fifo_ok and uniform_ok


def test_criterion_5_qvi_oracle():
    ou = OuParams(0.05, 100.0, 0.5)
    s_grid = qvi.GridSpec(88.0, 112.0, 400)
    c_grid = qvi.GridSpec(88.0, 112.0, 100)
    sol = qvi.solve(qvi.QviProblem(ou=ou, pool=POOL, s_grid=s_grid, c_grid=c_grid))
    feas = qvi.obstacle_violation(sol)
    comp = float(qvi.complementarity_residual(sol).max())

    jumps = {}
    for cost in (4.5, 6.75, 9.0):
        jumps[cost] = qvi.solve(
            qvi.QviProblem(ou=ou, pool=POOL, s_grid=s_grid, c_grid=c_grid, cost=cost)
        ).jump
    c_mono = bool(np.all(jumps[6.75] <= jumps[4.5]) and np.all(jumps[9.0] <= jumps[6.75]))

    lo_bounds = []
    counts = []
    sweep_s = qvi.GridSpec(96.0, 104.0, 400)
    sweep_c = qvi.GridSpec(98.0, 102.0, 100)
    for theta in (0.002, 0.01, 0.05):
        s = qvi.solve(qvi.QviProblem(ou=OuParams(theta, 100.0, 0.05), pool=POOL,
                                     s_grid=sweep_s, c_grid=sweep_c))
        lo, hi = qvi.boundary_deviation(s, 100.0)
        lo_bounds.append((lo, hi))
        counts.append(int(s.jump.sum()))
    los, his = zip(*lo_bounds)
    theta_mono = (
        los[0] <= los[1] <= los[2]
        and his[0] <= his[1] <= his[2]
        and counts[0] >= counts[1] >= counts[2] > 0
    )

    fine = qvi.solve(qvi.QviProblem(ou=ou, pool=POOL, s_grid=qvi.GridSpec(88, 112, 799), c_grid=c_grid))
    lo_c, _ = qvi.boundary_deviation(sol, 103.0)
    lo_f, _ = qvi.boundary_deviation(fine, 103.0)
    drift = abs(lo_c - lo_f) * 103.0
    refine_ok = drift < s_grid.step

    ok = sol.converged and feas <= 1e-6 and comp <= 1e-6 and c_mono and theta_mono and refine_ok
    _report(
        5,
        ok,
        f"feasibility={feas:.2e}, complementarity={comp:.2e}, C-mono={c_mono}, "
        f"theta-mono={theta_mono}, refinement drift={drift:.4f}<{s_grid.step:.4f}",
    )
    assert sol.converged
    assert feas <= 1e-6
    assert comp <= 1e-6
    assert c_mono and theta_mono and refine_ok


def test_criterion_6_agent_vs_oracle_boundary(stationary_setup):
    agent = stationary_setup["agent"]
    sol = stationary_setup["solution"]
    env = stationary_setup["eval_env"]
    starts = stationary_setup["starts"]

    _, _, _, agent_devs = run_episodes(env, greedy_decide(agent.online), starts)

    def oracle_decide(state, env_):
        s_val = float(env_.series.close[env_._i])
        i = int(np.clip(np.searchsorted(sol.s, s_val), 0, len(sol.s) - 1))
        j = int(np.clip(np.searchsorted(sol.c, env_.pos.center), 0, len(sol.c) - 1))
        return int(sol.jump[i, j])

    _, _, _, oracle_devs = run_episodes(env, oracle_decide, starts)

    if not agent_devs or not oracle_devs:
        _report(6, False, f"no rebalance events (agent={len(agent_devs)}, oracle={len(oracle_devs)})")
        pytest.xfail("soft criterion: no trigger events to compare")

    agent_median = float(np.median(agent_devs))
    oracle_median = float(np.median(oracle_devs))
    gap = abs(agent_median / oracle_median - 1.0)
    ok = gap <= 0.5
    # On stationary.json the oracle's recenters are reactions to episode
    # starts. The OU spread sigma/sqrt(2 theta) ~ 1.6% is 8x the 0.2% band,
    # so parking the band at mu is optimal, and the solved jump table has
    # no jump node for a center near mu. Each episode opens its band at
    # the start price, 0.05-3% from mu; the oracle recenters in one or two
    # moves that end near mu, then holds: 28 recenters over the 20
    # episodes, all within the first 362 of 3600 steps.
    _report(
        6,
        ok,
        f"agent trigger median={agent_median:.4f}, oracle median={oracle_median:.4f}, "
        f"relative gap={gap:.1%} (soft bound 50%)",
    )
    if not ok:
        pytest.xfail(f"soft criterion unmet: gap {gap:.1%} exceeds 50% (reported above)")


def test_criterion_7_regime_aware_laziness(mixed_setup):
    lancelot_n = mixed_setup["lancelot"][0]
    reductions = []
    actives = []
    for _, (n, active, _, _) in mixed_setup["agents"]:
        reductions.append(1.0 - n / lancelot_n)
        actives.append(active)
    med_red = float(np.median(reductions))
    med_act = float(np.median(actives))
    ok = med_red >= 0.30 and med_act >= 0.70

    def outcome(stats):
        n, active, fees, _ = stats
        [(_, roi)] = roi_curve(fees, n, [POOL.gas_cost])
        return f"(N={n}, active={active:.1%}, fees={fees:.2f}, net ROI={roi:.2%})"

    per_seed = ", ".join(outcome(stats) for _, stats in mixed_setup["agents"])
    _report(
        7,
        ok,
        f"median rebalance reduction={med_red:.1%} (>=30%), median active={med_act:.1%} (>=70%), "
        f"lancelot N={lancelot_n}, agent N per seed={[s[1][0] for s in mixed_setup['agents']]}; "
        f"at gas {POOL.gas_cost:g}: lancelot {outcome(mixed_setup['lancelot'])}, agent per seed [{per_seed}]",
    )
    assert med_red >= 0.30
    assert med_act >= 0.70


def test_criterion_8_gas_sweep_ordering(mixed_setup):
    lancelot_n, _, lancelot_fees, _ = mixed_setup["lancelot"]
    by_count = sorted(mixed_setup["agents"], key=lambda item: item[1][0])
    agent_n, _, agent_fees, _ = by_count[len(by_count) // 2][1]  # median-N seed

    lancelot_curve = roi_curve(lancelot_fees, lancelot_n, GAS_LEVELS)
    agent_curve = roi_curve(agent_fees, agent_n, GAS_LEVELS)
    lancelot_be = bt._break_even(lancelot_curve)
    agent_be = bt._break_even(agent_curve)

    lancelot_rois = [r for _, r in lancelot_curve]
    decreasing = all(b < a for a, b in zip(lancelot_rois, lancelot_rois[1:]))
    ok = agent_be > lancelot_be and decreasing
    _report(
        8,
        ok,
        f"break-even gas: agent={agent_be:.2f} > lancelot={lancelot_be:.2f}; "
        f"lancelot ROI strictly decreasing={decreasing}",
    )
    assert decreasing
    assert agent_be > lancelot_be


def test_trained_heatmap_is_hold_dominant(mixed_setup):
    # not a numbered criterion: the decision grid of a trained agent must
    # prefer holding over most of the state space
    agent = mixed_setup["agents"][0][0]
    grid = bt.heatmap(agent.online, np.linspace(0.0, 0.1, 41), np.linspace(-1.0, 1.0, 41))
    hold_fraction = float(np.mean(grid.q_diff < 0.0))
    print(f"ACCEPTANCE aux: heatmap hold-dominant fraction={hold_fraction:.2f} (>0.5)")
    assert hold_fraction > 0.5


def test_criterion_9_structural_baselines():
    lancelot_ok = True
    merlin_ok = True
    bedivere_ok = True
    galahad_ok = True
    for seed in (11, 12, 13):
        sched = RegimeSchedule(
            segments=((2000, OuParams(0.001, 100.0, 0.05)),),
            initial_price=100.0,
            volume_model=VolumeModel(1000.0, 1.0),
        )
        series = synthpath.simulate_schedule(sched, seed)
        features = envsim.FeatureTrack(series)

        rep_l, tr_l = bt.run(strategies.Lancelot(), series, POOL, features=features)
        lancelot_ok &= rep_l.active_fraction == 1.0

        rep_m, _ = bt.run(strategies.Merlin(), series, POOL, features=features)
        merlin_ok &= rep_m.rebalance_count == 1 and rep_m.active_fraction == 1.0

        rep_b, _ = bt.run(strategies.Bedivere(), series, POOL, features=features)
        bedivere_ok &= rep_b.rebalance_count == 1

        _, tr_g = bt.run(strategies.GalahadOu(theta_override=0.0), series, POOL, features=features)
        galahad_ok &= all(np.array_equal(tr_g[k], tr_l[k]) for k in ("t", "action", "center"))

    ok = lancelot_ok and merlin_ok and bedivere_ok and galahad_ok
    _report(
        9,
        ok,
        f"lancelot 100% active={lancelot_ok}, merlin N=1={merlin_ok}, "
        f"bedivere N=1={bedivere_ok}, galahad(theta=0)==lancelot={galahad_ok}",
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    doc = {
        "seed": 7,
        "data": {
            "synth": {
                "initial_price": 100.0,
                "segments": [
                    {"duration": 300, "theta": 0.05, "mu": 100.0, "sigma": 0.05},
                    {"duration": 300, "theta": 0.0005, "mu": 100.0, "sigma": 0.03},
                ],
                "volume": {"base_notional": 15000.0, "volatility_coupling": 1.0},
            }
        },
        "train": {"episodes": 2, "episode_length": 400},
        "strategy": {"name": "lancelot"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_a), "--seed", "7"]) == 0
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out_b), "--seed", "7"]) == 0
    train_ok = filecmp.cmp(out_a / "checkpoint.json", out_b / "checkpoint.json", shallow=False)

    out_c, out_d = tmp_path / "c", tmp_path / "d"
    assert cli.main(["backtest", "--config", str(cfg_path), "--out", str(out_c), "--seed", "7"]) == 0
    assert cli.main(["backtest", "--config", str(cfg_path), "--out", str(out_d), "--seed", "7"]) == 0
    rep_c = json.loads((out_c / "report.json").read_text())
    rep_d = json.loads((out_d / "report.json").read_text())
    rep_c.pop("trace_path")
    rep_d.pop("trace_path")
    backtest_ok = rep_c == rep_d

    ok = train_ok and backtest_ok
    _report(10, ok, f"train byte-identical={train_ok}, backtest reproducible={backtest_ok}")
    assert ok
