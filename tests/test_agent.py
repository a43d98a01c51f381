import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ammlab import agent as ag
from ammlab import cli, envsim, neural, synthpath
from ammlab.ammcore import PoolConfig
from ammlab.errors import BufferTooSmall, ShapeError
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


class TestGoldenCheckpoint:
    # These digests pin this machine's OpenBLAS 0.3.31 (scipy-openblas) and
    # numpy 2.4: another BLAS build or numpy version may round the matmuls
    # differently and then changes them without any change to the learner.
    # Any change to the train step has to leave them as they are.
    CHECKPOINT_SHA256 = "403f432e1e0850bdf7a9a6853f290a65f3736eb6792dde698b11d42d9aee4eca"
    LOG_SHA256 = "5cf63a2f69bfeab7cc9fefeb55eb713b01feb53ab7cefb5da394405e9250e153"

    def test_smoke_train_bytes(self, tmp_path):
        # one 600-step episode at batch 128: 473 updates, so 4 target syncs
        doc = json.loads((Path(__file__).parent.parent / "configs" / "smoke.json").read_text())
        doc["train"].update(episodes=1, episode_length=600)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "train"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        ckpt = out / "checkpoint.json"
        assert json.loads(ckpt.read_text())["metadata"]["training_step"] == 473
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == self.CHECKPOINT_SHA256
        log = out / "training_log.csv"
        assert hashlib.sha256(log.read_bytes()).hexdigest() == self.LOG_SHA256


# The list-of-arrays network kernels from before parameters became one flat
# vector, kept verbatim (calls renamed to ref_*) as the slow reference that
# train_step must match bit for bit.


class RefNet:
    def __init__(self, net):
        self.layer_dims = net.layer_dims
        self.weights = [w.copy() for w in net.weights]
        self.biases = [b.copy() for b in net.biases]

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def ref_as_batch(x, dim):
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"expected input dim {dim}, got shape {x.shape}")
    return x, squeeze


def ref_forward(net, x) -> np.ndarray:
    y, _ = ref_forward_cached(net, x)
    return y


def ref_forward_cached(net, x):
    """Forward pass keeping pre-activations for the backward pass."""
    h, squeeze = ref_as_batch(x, net.layer_dims[0])
    pre = []
    acts = [h]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < net.n_layers - 1 else z
        acts.append(h)
    out = h[0] if squeeze else h
    return out, (pre, acts, squeeze)


def ref_backward(net, cache, grad_out):
    """Gradients of sum(output * grad_out) w.r.t. every weight and bias."""
    pre, acts, squeeze = cache
    g = np.asarray(grad_out, dtype=np.float64)
    if squeeze:
        g = g[None, :]
    if g.shape != pre[-1].shape:
        raise ShapeError(f"grad_out shape {g.shape} != output shape {pre[-1].shape}")
    grads_w = [None] * net.n_layers
    grads_b = [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        if i < net.n_layers - 1:
            g = g * (pre[i] > 0.0)  # ReLU gate
        grads_w[i] = acts[i].T @ g
        grads_b[i] = g.sum(axis=0)
        if i > 0:
            g = g @ net.weights[i].T
    return list(zip(grads_w, grads_b))


@dataclass
class RefAdamState:
    """Bias-corrected first/second moment accumulators for one Mlp."""

    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m_w: list = field(default_factory=list)
    v_w: list = field(default_factory=list)
    m_b: list = field(default_factory=list)
    v_b: list = field(default_factory=list)

    @classmethod
    def for_net(cls, net, learning_rate: float = 1e-4) -> "RefAdamState":
        st = cls(learning_rate=learning_rate)
        st.m_w = [np.zeros_like(w) for w in net.weights]
        st.v_w = [np.zeros_like(w) for w in net.weights]
        st.m_b = [np.zeros_like(b) for b in net.biases]
        st.v_b = [np.zeros_like(b) for b in net.biases]
        return st


def ref_adam_update(net, grads, opt) -> None:
    """One in-place adaptive-moment step on all parameters."""
    if len(grads) != net.n_layers:
        raise ShapeError("gradient list length mismatch")
    opt.step += 1
    c1 = 1.0 - opt.beta1**opt.step
    c2 = 1.0 - opt.beta2**opt.step
    for i, (gw, gb) in enumerate(grads):
        if gw.shape != net.weights[i].shape or gb.shape != net.biases[i].shape:
            raise ShapeError(f"gradient shape mismatch at layer {i}")
        opt.m_w[i] = opt.beta1 * opt.m_w[i] + (1 - opt.beta1) * gw
        opt.v_w[i] = opt.beta2 * opt.v_w[i] + (1 - opt.beta2) * gw**2
        opt.m_b[i] = opt.beta1 * opt.m_b[i] + (1 - opt.beta1) * gb
        opt.v_b[i] = opt.beta2 * opt.v_b[i] + (1 - opt.beta2) * gb**2
        net.weights[i] -= opt.learning_rate * (opt.m_w[i] / c1) / (np.sqrt(opt.v_w[i] / c2) + opt.eps)
        net.biases[i] -= opt.learning_rate * (opt.m_b[i] / c1) / (np.sqrt(opt.v_b[i] / c2) + opt.eps)


def ref_ddqn_target(batch, online, target, gamma: float) -> np.ndarray:
    """Per-transition regression targets; terminal rows are just r."""
    _, _, rewards, next_states, terminals = batch
    if len(rewards) == 0:
        raise ValueError("batch must be non-empty")
    a_star = np.argmax(ref_forward(online, next_states), axis=1)
    q_next = ref_forward(target, next_states)[np.arange(len(a_star)), a_star]
    return rewards + gamma * (1.0 - terminals) * q_next


class RefAgent:
    """The train step on list-based nets, sampling with fancy indexing."""

    def __init__(self, agent):
        self.config = agent.config
        self.rng = copy.deepcopy(agent.rng)
        self.buffer = agent.buffer
        self.online = RefNet(agent.online)
        self.target = RefNet(agent.target)
        self.opt = RefAdamState.for_net(self.online, learning_rate=agent.config.learning_rate)
        self.updates = agent.updates

    def sample(self, batch_size):
        buf = self.buffer
        idx = self.rng.integers(0, buf.size, size=batch_size)
        return buf.states[idx], buf.actions[idx], buf.rewards[idx], buf.next_states[idx], buf.terminals[idx]

    def train_step(self) -> float:
        cfg = self.config
        batch = self.sample(cfg.batch_size)
        states, actions, _, _, _ = batch
        y = ref_ddqn_target(batch, self.online, self.target, cfg.gamma)
        q, cache = ref_forward_cached(self.online, states)
        rows = np.arange(len(actions))
        err = q[rows, actions] - y
        loss = float(np.mean(err**2))
        grad_out = np.zeros_like(q)
        grad_out[rows, actions] = 2.0 * err / len(actions)
        grads = ref_backward(self.online, cache, grad_out)
        ref_adam_update(self.online, grads, self.opt)
        self.updates += 1
        if self.updates % cfg.target_sync == 0:
            self.target.weights = [w.copy() for w in self.online.weights]
            self.target.biases = [b.copy() for b in self.online.biases]
        return loss


def flat(weights, biases):
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])


def filled_agent(batch_size, seed, pushes=400, **overrides):
    """An agent whose ring holds `pushes` random transitions, some terminal."""
    cfg = ag.TrainConfig(batch_size=batch_size, episodes=1, episode_length=1000, seed=seed, **overrides)
    agent = ag.DdqnAgent(cfg, rng=np.random.default_rng(seed))
    data = np.random.default_rng([seed, 1])
    for _ in range(pushes):
        state, next_state = data.normal(size=(2, envsim.STATE_DIM))
        agent.buffer.push(state, int(data.integers(0, 2)), data.normal(), next_state, data.random() < 0.05)
    return agent


class TestTrainStepMatchesListReference:
    @pytest.mark.parametrize("batch_size", [1, 4, 128])
    @settings(max_examples=4, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1))
    def test_bit_for_bit(self, batch_size, seed):
        # 300 updates cross three target syncs (every 100)
        agent = filled_agent(batch_size, seed)
        ref = RefAgent(agent)
        for _ in range(300):
            assert agent.train_step() == ref.train_step()
        assert agent.updates == ref.updates == 300
        assert np.array_equal(agent.online.params, flat(ref.online.weights, ref.online.biases))
        assert np.array_equal(agent.target.params, flat(ref.target.weights, ref.target.biases))
        assert np.array_equal(agent.opt.m, flat(ref.opt.m_w, ref.opt.m_b))
        assert np.array_equal(agent.opt.v, flat(ref.opt.v_w, ref.opt.v_b))


class TestOptimizerRoundTrip:
    def test_resumed_steps_equal_uninterrupted(self, tmp_path):
        a = filled_agent(16, seed=11, target_sync=25)
        for _ in range(40):
            a.train_step()
        path = tmp_path / "checkpoint.json"
        neural.save_checkpoint(path, a.online, opt=a.opt)
        b = ag.DdqnAgent(a.config)
        b.online, _, b.opt = neural.load_checkpoint(path)
        assert all(np.shares_memory(view, b.opt.m) for view in b.opt.m_w + b.opt.m_b)
        assert all(np.shares_memory(view, b.opt.v) for view in b.opt.v_w + b.opt.v_b)
        neural.copy_parameters(a.target, b.target)
        b.buffer, b.updates, b.rng = a.buffer, a.updates, copy.deepcopy(a.rng)
        for _ in range(60):
            assert a.train_step() == b.train_step()
        assert b.opt.step == a.opt.step == 100
        for x, y in ((a.online.params, b.online.params), (a.target.params, b.target.params),
                     (a.opt.m, b.opt.m), (a.opt.v, b.opt.v)):
            assert np.array_equal(x, y)
