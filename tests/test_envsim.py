import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ammlab import ammcore, backtest, envsim, marketdata, regime, strategies, synthpath
from ammlab.ammcore import PoolConfig
from ammlab.errors import DomainError, EpisodeFinished
from ammlab.synthpath import OuParams

POOL = PoolConfig()
REWARD = envsim.RewardParams()  # scale 100, bonus 1e-4


def flat_series(n=50, price=100.0, volume=0.0):
    return series_from_closes(np.full(n, price), volume)


def series_from_closes(closes, volume=0.0):
    c = np.array(closes, dtype=np.float64)
    t = np.arange(len(c), dtype=np.int64)
    return marketdata.BarSeries(t=t, open=c, high=c, low=c, close=c, volume=np.full(len(c), float(volume)))


def one_bar(s, theta=0.05, mu=100.0, sigma=0.5, valid=True, recent_vol=0.0):
    """The FeatureTrack of a one-bar series closing at s, with the given estimate."""
    features = envsim.FeatureTrack(series_from_closes([s]))
    features.theta[0], features.mu[0], features.sigma[0], features.valid[0] = theta, mu, sigma, valid
    features.recent_vol[0] = recent_vol
    return features


class TestBuildState:
    def test_centered(self):
        pos = ammcore.Position(center=100.0, width=0.002, capital=1e4)
        delta_p, d_edge, *_, in_range = envsim.build_state(pos, one_bar(100.0, mu=100.0), 0)
        assert delta_p == 0.0
        assert d_edge == 0.0
        assert in_range == 1.0

    def test_boundary_hits_edge_exactly(self):
        pos = ammcore.Position(center=100.0, width=0.002, capital=1e4)
        _, d_edge, *_, in_range = envsim.build_state(pos, one_bar(100.0 * 1.002), 0)
        assert d_edge == 1.0
        assert in_range == 1.0

    def test_beyond_boundary_clips(self):
        pos = ammcore.Position(center=100.0, width=0.002, capital=1e4)
        s = 100.0 * 1.004
        delta_p, d_edge, *_, in_range = envsim.build_state(pos, one_bar(s), 0)
        assert d_edge == 1.0
        assert in_range == 0.0
        assert delta_p == pytest.approx(0.004, rel=1e-9)

    def test_invalid_estimate_fallbacks(self):
        pos = ammcore.Position(center=100.0, width=0.002, capital=1e4)
        bad = one_bar(100.0, theta=0.0, mu=100.0, sigma=0.0, valid=False)
        _, _, theta, delta_mu, sigma_norm, *_ = envsim.build_state(pos, bad, 0)
        assert theta == 0.0 and delta_mu == 0.0 and sigma_norm == 0.0

    def test_clips(self):
        pos = ammcore.Position(center=100.0, width=0.002, capital=1e4)
        *_, sigma_norm, _, recent_vol, _ = envsim.build_state(pos, one_bar(100.0, sigma=500.0, recent_vol=7.0), 0)
        assert sigma_norm == envsim.SIGMA_NORM_CLIP
        assert recent_vol == envsim.RECENT_VOL_CLIP

    def test_vector_order(self):
        pos = ammcore.Position(center=100.0, width=0.002, capital=1e4)
        v = envsim.build_state(pos, one_bar(100.0, theta=0.05, recent_vol=0.01), 0)
        assert v.shape == (envsim.STATE_DIM,) and v.dtype == np.float64
        assert v[2] == 0.05 and v[7] == 1.0


def reference_state(s, pos, est, recent_vol):
    """The observation as built from one RegimeEstimate and one recent vol."""
    d_edge = (s - pos.center) / (pos.center * pos.width)
    return np.array(
        [
            s / pos.center - 1.0,
            min(max(d_edge, -1.0), 1.0),
            est.theta if est.valid else 0.0,
            (est.mu - s) / s if est.valid else 0.0,
            min(est.sigma / s, envsim.SIGMA_NORM_CLIP) if est.valid else 0.0,
            ammcore.active_fraction(pos),
            min(max(recent_vol, 0.0), envsim.RECENT_VOL_CLIP),
            1.0 if ammcore.in_range(pos, s) else 0.0,
        ]
    )


def finite(lo, hi):
    return hst.floats(lo, hi, allow_nan=False, allow_infinity=False)


class TestBuildStateMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(data=hst.data())
    def test_bit_for_bit(self, data):
        n = data.draw(hst.integers(1, 6))

        def column(elements):
            return np.array(data.draw(hst.lists(elements, min_size=n, max_size=n)))

        closes = column(finite(1.0, 1e4))
        features = envsim.FeatureTrack(series_from_closes(closes))
        features.theta = column(finite(0.0, 1.0))
        features.mu = column(finite(0.5, 2e4))
        features.sigma = column(finite(0.0, 5e3))  # sigma / s up to 5000: clipped
        features.valid = column(hst.booleans()).astype(bool)
        features.recent_vol = column(finite(-0.05, 1.0))  # clipped on both sides
        i = data.draw(hst.integers(0, n - 1))
        s = float(closes[i])
        width = data.draw(finite(1e-4, 0.05))
        # d_edge near the drawn value: in range for |d| <= 1, out beyond
        d = data.draw(finite(-3.0, 3.0))
        pos = ammcore.Position(center=s / (1.0 + d * width), width=width, capital=1e4)
        pos.active_seconds, pos.total_seconds = data.draw(hst.sampled_from([(0, 0), (3, 7), (5, 5)]))

        est = regime.RegimeEstimate(
            theta=float(features.theta[i]),
            mu=float(features.mu[i]),
            sigma=float(features.sigma[i]),
            valid=bool(features.valid[i]),
        )
        expected = reference_state(s, pos, est, float(features.recent_vol[i]))
        got = envsim.build_state(pos, features, i)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=hst.data())
def test_observations_match_build_state(data):
    center = data.draw(finite(1.0, 1e4))
    width = data.draw(finite(1e-4, 0.05))
    lower, upper = ammcore.band(center, width)
    offsets = data.draw(hst.lists(finite(-3.0, 3.0), max_size=6))
    # each band edge, and one ulp either side of it
    edges = [np.nextafter(edge, toward) for edge in (lower, upper) for toward in (0.0, edge, np.inf)]
    s = np.array([center * (1.0 + u * width) for u in offsets] + edges)
    columns = np.array(data.draw(hst.lists(hst.tuples(*[finite(-1e3, 1e3)] * 4), min_size=len(s), max_size=len(s))))
    total = data.draw(hst.integers(0, 10**9))
    pos = ammcore.Position(
        center=center, width=width, capital=1e4, active_seconds=data.draw(hst.integers(0, total)), total_seconds=total
    )
    features = envsim.FeatureTrack(series_from_closes(s))
    features.bar_columns = columns
    rows = envsim.observations(s, center, width, columns, ammcore.active_fraction(pos))
    assert rows.shape == (len(s), envsim.STATE_DIM)
    for i in range(len(s)):
        assert np.array_equal(rows[i].view(np.int64), envsim.build_state(pos, features, i).view(np.int64)), i


class TestStep:
    def test_hold_out_of_range_zero_reward(self):
        closes = [100.0] + [150.0] * 30  # jumps away immediately, never returns
        env = envsim.LpEnv(series_from_closes(closes, volume=1e5), POOL, REWARD, episode_length=10, seed=0)
        env.reset(0)
        next_state, reward, _ = env.step(0)
        assert reward == 0.0
        assert next_state[-1] == 0.0

    def test_recenter_cost_and_bonus(self):
        env = envsim.LpEnv(flat_series(volume=0.0), POOL, REWARD, episode_length=10, seed=0)
        env.reset(0)
        gas0 = env.pos.accrued_gas
        _, reward, _ = env.step(1)
        # no volume means no fee; pay 4.50 and collect the in-range bonus
        assert reward == pytest.approx(100.0 * (-4.50 / 10_000.0) + 1e-4)
        assert env.pos.accrued_gas - gas0 == pytest.approx(4.50)

    def test_fee_reward_arithmetic(self):
        env = envsim.LpEnv(flat_series(volume=1e5), POOL, REWARD, episode_length=10, seed=0)
        env.reset(0)
        fees0 = env.pos.accrued_fees
        _, reward, _ = env.step(0)
        fee = env.pos.accrued_fees - fees0
        assert fee == pytest.approx(2.236, abs=5e-4)
        assert reward == pytest.approx(100.0 * fee / 10_000.0 + 1e-4)

    def test_one_observation_per_step(self, monkeypatch):
        calls = []
        build_state = envsim.build_state

        def counted(*args):
            calls.append(args)
            return build_state(*args)

        monkeypatch.setattr(envsim, "build_state", counted)
        env = envsim.LpEnv(flat_series(volume=1e5), POOL, REWARD, episode_length=10, seed=0)
        env.reset(0)
        for _ in range(7):
            env.step(0)
        assert len(calls) == 7 + 1

    def test_hold_never_moves_center(self):
        env = envsim.LpEnv(flat_series(), POOL, REWARD, episode_length=10, seed=0)
        env.reset(0)
        c0 = env.pos.center
        for _ in range(5):
            env.step(0)
        assert env.pos.center == c0

    def test_recenter_uses_pre_advance_price(self):
        closes = [100.0, 101.0, 103.0, 99.0, 100.0, 101.0, 102.0]
        env = envsim.LpEnv(series_from_closes(closes), POOL, REWARD, episode_length=4, seed=0)
        env.reset(0)
        env.step(0)  # now at bar 1 (close 101)
        env.step(1)  # recenter at 101, then advance to bar 2
        assert env.pos.center == 101.0

    def test_step_after_terminal_raises(self):
        env = envsim.LpEnv(flat_series(), POOL, REWARD, episode_length=2, seed=0)
        env.reset(0)
        env.step(0)
        _, _, terminal = env.step(0)
        assert terminal
        with pytest.raises(EpisodeFinished):
            env.step(0)

    def test_terminal_at_data_end(self):
        # an episode whose window touches the last bar ends one step early
        env = envsim.LpEnv(flat_series(n=5), POOL, REWARD, episode_length=5, seed=0)
        env.reset(0)
        steps = 0
        while True:
            _, _, terminal = env.step(0)
            steps += 1
            if terminal:
                break
        assert steps == 4


class TestReset:
    def test_centers_at_start_close(self):
        closes = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0]
        env = envsim.LpEnv(series_from_closes(closes), POOL, REWARD, episode_length=3, seed=0)
        *_, active_frac, _, in_range = env.reset(2)
        assert env.pos.center == 102.0
        assert active_frac == 0.0
        assert in_range == 1.0

    def test_initial_placement_charged_gas_only(self):
        env = envsim.LpEnv(flat_series(), POOL, REWARD, episode_length=5, seed=0)
        env.reset(0)
        assert env.pos.rebalance_count == 1
        assert env.pos.accrued_gas == POOL.gas_cost

    def test_random_start_deterministic(self):
        env1 = envsim.LpEnv(flat_series(200), POOL, REWARD, episode_length=10, seed=9)
        env2 = envsim.LpEnv(flat_series(200), POOL, REWARD, episode_length=10, seed=9)
        a = [(env1.reset(), env1._i)[1] for _ in range(5)]
        b = [(env2.reset(), env2._i)[1] for _ in range(5)]
        assert a == b

    def test_out_of_bounds_start(self):
        env = envsim.LpEnv(flat_series(20), POOL, REWARD, episode_length=10, seed=0)
        with pytest.raises(DomainError):
            env.reset(15)
        with pytest.raises(DomainError):
            env.reset(-1)


class TestEpisodeInvariants:
    def make_env(self, seed=0):
        sched = synthpath.RegimeSchedule(
            segments=((600, OuParams(0.02, 100.0, 0.05)),),
            initial_price=100.0,
            volume_model=synthpath.VolumeModel(20_000.0, 1.0),
        )
        series = synthpath.simulate_schedule(sched, seed)
        return envsim.LpEnv(series, POOL, REWARD, episode_length=200, seed=seed)

    def test_reward_roi_consistency(self):
        env = self.make_env()
        env.reset(0)
        fees0, gas0 = env.pos.accrued_fees, env.pos.accrued_gas
        rng = np.random.default_rng(1)
        total = 0.0
        bonus = 0.0
        while True:
            next_state, reward, terminal = env.step(int(rng.random() < 0.05))
            total += reward
            bonus += REWARD.active_bonus * next_state[-1]
            if terminal:
                break
        episode_pnl = (env.pos.accrued_fees - fees0) - (env.pos.accrued_gas - gas0)
        assert (total - bonus) / REWARD.scale == pytest.approx(episode_pnl / 10_000.0, abs=1e-9)

    def test_trace_matches_episode(self):
        env = self.make_env()
        env.reset(0)
        gas0 = env.pos.accrued_gas
        while True:
            _, _, terminal = env.step(0)
            if terminal:
                break
        assert env.pos.total_seconds == 200
        assert env.pos.accrued_gas == gas0 and env.pos.rebalance_count == 1

    def test_fixed_policy_determinism(self):
        seqs = []
        for _ in range(2):
            env = self.make_env(seed=4)
            env.reset()
            rewards = []
            rng = np.random.default_rng(11)
            while True:
                _, reward, terminal = env.step(int(rng.random() < 0.1))
                rewards.append(reward)
                if terminal:
                    break
            seqs.append(rewards)
        assert seqs[0] == seqs[1]


class TestRollingVol:
    def test_warmup_zero(self):
        out = envsim.rolling_log_return_vol(np.array([100.0, 101.0]))
        assert np.all(out == 0.0)

    def test_matches_direct_std(self):
        rng = np.random.default_rng(3)
        closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 1e-3, size=500)))
        out = envsim.rolling_log_return_vol(closes, window=300)
        r = np.diff(np.log(closes))
        i = 450
        direct = np.std(r[i - 300 : i])
        assert out[i] == pytest.approx(direct, rel=1e-9)

    def test_backtest_trace_columns_and_theta_fallback(self):
        series = series_from_closes([100.0] * 5 + [100.5], volume=10.0)
        features = envsim.FeatureTrack(series)  # far too short for a valid estimate
        features.theta[:] = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
        features.valid[4] = True
        _, trace = backtest.run(strategies.Bedivere(), series, POOL, features=features)
        assert list(trace) == envsim.TRACE_HEADER
        assert [trace[k][5].item() for k in envsim.TRACE_HEADER] == [5, 100.5, 100.0, 0, 0.0, 0.0, 0.0, 0]
        assert trace["theta"].tolist() == [0.0, 0.0, 0.0, 0.0, 0.05, 0.0]
        assert trace["in_range"].tolist() == [1, 1, 1, 1, 1, 0]

    def test_trace_csv_round_trip(self, tmp_path):
        row = (0, 100.0, 100.0, 0, 0.1, 0.0, 0.05, 1)
        path = tmp_path / "trace.csv"
        envsim.write_trace_csv(path, {k: np.array([v]) for k, v in zip(envsim.TRACE_HEADER, row)})
        text = path.read_text().splitlines()
        assert text[0] == "t,price,center,action,fee,gas,theta,in_range"
        assert len(text) == 2
