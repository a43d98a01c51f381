import numpy as np
import pytest

from ammlab import agent as ag
from ammlab import envsim, neural, synthpath
from ammlab.ammcore import PoolConfig
from ammlab.errors import BufferTooSmall
from ammlab.synthpath import OuParams


def constant_net(q0, q1):
    """Two-output net that ignores its input: zero weights, bias outputs."""
    net = neural.Mlp(ag.Q_NET_DIMS, seed=0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][:] = [q0, q1]
    return net


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ag.ReplayBuffer(capacity=50, state_dim=1)
        for i in range(50 + 7):
            buf.push([float(i)], 0, 0.0, [0.0], False)
        assert len(buf) == 50
        kept = set(buf.states[:, 0].astype(int))
        assert kept == set(range(7, 57))

    def test_sampling_uniformity(self):
        buf = ag.ReplayBuffer(capacity=100, state_dim=1)
        for i in range(100):
            buf.push([float(i)], 0, 0.0, [0.0], False)
        rng = np.random.default_rng(0)
        counts = np.zeros(100)
        draws = 100_000
        for _ in range(draws // 100):
            s, *_ = buf.sample(100, rng)
            idx = s[:, 0].astype(int)
            np.add.at(counts, idx, 1)
        expected = draws / 100
        sd = np.sqrt(draws * (1 / 100) * (1 - 1 / 100))
        assert np.max(np.abs(counts - expected)) < 4 * sd

    def test_too_small_to_sample(self):
        buf = ag.ReplayBuffer(capacity=10, state_dim=1)
        buf.push([0.0], 0, 0.0, [0.0], False)
        with pytest.raises(BufferTooSmall):
            buf.sample(2, np.random.default_rng(0))


class TestSelectAction:
    def test_full_exploration_is_uniform(self):
        net = constant_net(1.0, 0.0)
        rng = np.random.default_rng(0)
        draws = 10_000
        ones = sum(ag.select_action(net, np.zeros(8), 1.0, rng) for _ in range(draws))
        # chi-square against a fair coin; 6.635 is the 1% critical value
        chi2 = (ones - draws / 2) ** 2 / (draws / 4)
        assert chi2 < 6.635

    def test_greedy_argmax(self):
        net = constant_net(0.3, 0.1)
        rng = np.random.default_rng(0)
        assert ag.select_action(net, np.zeros(8), 0.0, rng) == 0
        net2 = constant_net(0.1, 0.3)
        assert ag.select_action(net2, np.zeros(8), 0.0, rng) == 1

    def test_tie_breaks_to_hold(self):
        net = constant_net(0.2, 0.2)
        rng = np.random.default_rng(0)
        assert ag.select_action(net, np.zeros(8), 0.0, rng) == 0


def batch_of(reward, terminal, n=1):
    states = np.zeros((n, 8))
    actions = np.zeros(n, dtype=np.int64)
    rewards = np.full(n, reward)
    next_states = np.zeros((n, 8))
    terminals = np.full(n, 1.0 if terminal else 0.0)
    return states, actions, rewards, next_states, terminals


class TestDdqnTarget:
    def test_terminal_is_reward_only(self):
        y = ag.ddqn_target(batch_of(0.5, True), constant_net(3.0, 4.0), constant_net(5.0, 6.0), 0.99)
        assert y == pytest.approx([0.5])

    def test_online_selects_target_evaluates(self):
        # online prefers action 1; target's own max is at action 0 but must
        # be read at the online argmax
        online = constant_net(0.0, 1.0)
        target = constant_net(5.0, 2.0)
        y = ag.ddqn_target(batch_of(0.1, False), online, target, 0.99)
        assert y == pytest.approx([0.1 + 0.99 * 2.0])

    def test_gamma_zero(self):
        y = ag.ddqn_target(batch_of(0.7, False), constant_net(1.0, 2.0), constant_net(3.0, 4.0), 1e-12)
        assert y == pytest.approx([0.7], abs=1e-9)


class TestTrainStep:
    def make_agent(self, **kw):
        cfg = ag.TrainConfig(episodes=1, episode_length=10, batch_size=kw.pop("batch_size", 4), seed=0)
        return ag.DdqnAgent(cfg)

    def test_consistent_targets_leave_parameters_fixed(self):
        agent = self.make_agent()
        neural.copy_parameters(agent.online, agent.target)
        # terminal transitions with reward equal to the current Q(s, a)
        q = neural.forward(agent.online, np.zeros(8))
        batch = (
            np.zeros((4, 8)),
            np.zeros(4, dtype=np.int64),
            np.full(4, q[0]),
            np.zeros((4, 8)),
            np.ones(4),
        )
        before = [w.copy() for w in agent.online.weights]
        loss = agent.train_step(batch)
        assert loss == pytest.approx(0.0, abs=1e-20)
        assert all(np.array_equal(a, b) for a, b in zip(before, agent.online.weights))

    def test_single_transition_loss_arithmetic(self):
        agent = self.make_agent(batch_size=1)
        state = np.arange(8.0) / 10
        q_sa = neural.forward(agent.online, state)[1]
        batch = (
            state[None, :],
            np.array([1]),
            np.array([0.25]),
            np.zeros((1, 8)),
            np.array([1.0]),
        )
        loss = agent.train_step(batch)
        assert loss == pytest.approx((q_sa - 0.25) ** 2, rel=1e-12)

    def test_overfits_single_transition(self):
        agent = self.make_agent(batch_size=1)
        batch = (
            np.ones((1, 8)) * 0.3,
            np.array([0]),
            np.array([1.0]),
            np.zeros((1, 8)),
            np.array([1.0]),
        )
        losses = [agent.train_step(batch) for _ in range(500)]
        assert losses[499] < losses[50]

    def test_gradient_isolated_to_taken_action(self):
        # with action 0 taken everywhere, the action-1 output bias never moves
        agent = self.make_agent()
        b1_before = agent.online.biases[-1][1]
        batch = (
            np.random.default_rng(0).normal(size=(4, 8)),
            np.zeros(4, dtype=np.int64),
            np.ones(4),
            np.zeros((4, 8)),
            np.ones(4),
        )
        for _ in range(10):
            agent.train_step(batch)
        assert agent.online.biases[-1][1] == b1_before
        assert agent.online.biases[-1][0] != 0.0


class TestEpsilonSchedule:
    def test_step_mode_decays_to_floor(self):
        eps = ag.EpsilonSchedule(1.0, 0.05, 0.9, "step")
        for _ in range(100):
            eps.on_step()
        assert eps.current == 0.05
        eps.on_episode_end()
        assert eps.current == 0.05

    def test_episode_mode(self):
        eps = ag.EpsilonSchedule(1.0, 0.05, 0.5, "episode")
        eps.on_step()
        assert eps.current == 1.0
        eps.on_episode_end()
        assert eps.current == 0.5


def tiny_env(seed=0, n=400):
    series = synthpath.simulate_schedule(
        synthpath.RegimeSchedule(
            segments=((n, OuParams(0.02, 100.0, 0.05)),),
            initial_price=100.0,
            volume_model=synthpath.VolumeModel(10_000.0, 1.0),
        ),
        seed,
    )
    return envsim.LpEnv(series, PoolConfig(), envsim.RewardParams(), episode_length=50, seed=seed)


class TestTrainLoop:
    def test_no_updates_when_buffer_below_batch(self):
        env = tiny_env()
        cfg = ag.TrainConfig(episodes=1, episode_length=10, batch_size=128, seed=3)
        agent, log = ag.train(env, cfg)
        reference = ag.DdqnAgent(cfg, rng=np.random.default_rng(np.random.SeedSequence(3).spawn(2)[1]))
        x = np.random.default_rng(0).normal(size=8)
        assert np.array_equal(neural.forward(agent.online, x), neural.forward(reference.online, x))
        assert agent.updates == 0

    def test_target_stale_between_syncs(self):
        env = tiny_env()
        cfg = ag.TrainConfig(episodes=1, episode_length=60, batch_size=16, target_sync=1000, seed=1)
        agent, _ = ag.train(env, cfg)
        # updates happened but never hit the sync threshold
        assert 0 < agent.updates < 1000
        fresh = ag.DdqnAgent(cfg, rng=np.random.default_rng(np.random.SeedSequence(1).spawn(2)[1]))
        x = np.zeros(8)
        assert np.array_equal(neural.forward(agent.target, x), neural.forward(fresh.target, x))
        assert not np.array_equal(neural.forward(agent.online, x), neural.forward(agent.target, x))

    def test_sync_copies_online(self):
        env = tiny_env()
        cfg = ag.TrainConfig(episodes=1, episode_length=60, batch_size=16, target_sync=10, seed=1)
        agent, _ = ag.train(env, cfg)
        assert agent.updates >= 40
        # after the last sync both nets drift apart by at most target_sync updates
        x = np.ones(8)
        sync_gap = agent.updates % cfg.target_sync
        assert sync_gap < cfg.target_sync

    def test_deterministic_training(self):
        results = []
        for _ in range(2):
            env = tiny_env(seed=7)
            cfg = ag.TrainConfig(episodes=2, episode_length=80, batch_size=16, seed=7)
            agent, log = ag.train(env, cfg)
            results.append((agent, log))
        a, b = results
        assert a[1] == b[1]
        assert all(np.array_equal(wa, wb) for wa, wb in zip(a[0].online.weights, b[0].online.weights))
        assert all(np.array_equal(ba, bb) for ba, bb in zip(a[0].online.biases, b[0].online.biases))

    def test_buffer_chains_observations(self):
        # within an episode, each transition's next_state is the next one's state
        env = tiny_env()
        cfg = ag.TrainConfig(episodes=2, episode_length=30, batch_size=8, seed=5)
        buf = ag.train(env, cfg)[0].buffer
        assert len(buf) == 60 and np.flatnonzero(buf.terminals[:60]).tolist() == [29, 59]
        for k in range(59):
            if k != 29:
                assert np.array_equal(buf.states[k + 1], buf.next_states[k]), k

    def test_buffer_sized_to_the_run(self, monkeypatch):
        # a ring larger than the run's 60 pushes never wraps, so cutting it to
        # the run changes no sample: logs and nets match the configured ring
        cfg = ag.TrainConfig(episodes=2, episode_length=30, batch_size=8, seed=5)
        agent, log = ag.train(tiny_env(), cfg)
        assert agent.buffer.capacity == 60
        configured = ag.ReplayBuffer
        monkeypatch.setattr(ag, "ReplayBuffer", lambda capacity: configured(cfg.buffer_capacity))
        wide, wide_log = ag.train(tiny_env(), cfg)
        assert wide.buffer.capacity == cfg.buffer_capacity and wide_log == log
        assert all(np.array_equal(a, b) for a, b in zip(agent.online.weights, wide.online.weights))
        monkeypatch.undo()
        # a ring smaller than the run keeps its configured size and wraps
        small_cfg = ag.TrainConfig(episodes=2, episode_length=30, batch_size=8, seed=5, buffer_capacity=50)
        small = ag.train(tiny_env(), small_cfg)[0].buffer
        assert small.capacity == 50 and len(small) == 50

    def test_log_row_shape(self):
        env = tiny_env()
        cfg = ag.TrainConfig(episodes=3, episode_length=30, batch_size=8, seed=5)
        _, log = ag.train(env, cfg)
        assert len(log) == 3
        episodes, returns, epsilons, losses, rebalances, actives = zip(*log)
        assert episodes == (1, 2, 3)
        assert all(0 <= a <= 1 for a in actives)
