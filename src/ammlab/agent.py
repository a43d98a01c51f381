"""Double-DQN learner: replay buffer, epsilon-greedy exploration, training loop.

The bootstrap action is selected with the online network and valued with
the target network, which removes the max-operator overestimation bias:

    y = r + gamma * Q_target(s', argmax_a Q_online(s', a))

Terminal transitions bootstrap nothing (y = r). One gradient update runs
per environment step once the buffer holds a full batch, and the target
network is synced from the online network every `target_sync` updates,
counted across episode boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ammcore, artifacts, neural
from .envsim import STATE_DIM, LpEnv
from .errors import BufferTooSmall
from .neural import Mlp

Q_NET_DIMS = (STATE_DIM, 128, 64, 2)


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions with uniform sampling."""

    def __init__(self, capacity: int = 100_000, state_dim: int = STATE_DIM):
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, state_dim))
        self.terminals = np.zeros(capacity)
        self.size = 0
        self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def push(self, state, action, reward, next_state, terminal) -> None:
        i = self.cursor
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.terminals[i] = 1.0 if terminal else 0.0
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator, out=None):
        """(states, actions, rewards, next_states, terminals) drawn uniformly with replacement.

        With `out`, five arrays of `batch_size` rows shaped like those, the
        batch is gathered into them instead of into new arrays.
        """
        if self.size < batch_size:
            raise BufferTooSmall(f"buffer has {self.size} < batch {batch_size}")
        idx = rng.integers(0, self.size, size=batch_size)
        columns = (self.states, self.actions, self.rewards, self.next_states, self.terminals)
        # idx is in range by construction; "clip" lets take write into out unbuffered
        return tuple(col.take(idx, axis=0, out=o, mode="clip") for col, o in zip(columns, out or (None,) * 5))


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.99
    batch_size: int = 128
    target_sync: int = 100
    episodes: int = 300
    episode_length: int = 36_000
    learning_rate: float = 1e-4
    buffer_capacity: int = 100_000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.9998
    epsilon_decay_mode: str = "step"
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must be in (0, 1)")
        for name in ("batch_size", "target_sync", "episodes", "episode_length", "buffer_capacity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.epsilon_decay_mode not in ("step", "episode"):
            raise ValueError("epsilon_decay_mode must be 'step' or 'episode'")


def select_action(net: Mlp, state, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over the two Q-outputs; exact ties go to hold (0)."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if rng.random() < epsilon:
        return int(rng.integers(0, 2))
    q = neural.forward(net, state)
    return int(q.argmax())  # first max wins, so ties pick action 0


def ddqn_target(batch, online: Mlp, target: Mlp, gamma: float) -> np.ndarray:
    """Per-transition regression targets; terminal rows are just r."""
    _, _, rewards, next_states, terminals = batch
    if len(rewards) == 0:
        raise ValueError("batch must be non-empty")
    a_star = np.argmax(neural.forward(online, next_states), axis=1)
    q_next = neural.forward(target, next_states)[np.arange(len(a_star)), a_star]
    return rewards + gamma * (1.0 - terminals) * q_next


class DdqnAgent:
    """Online/target network pair with its optimizer, buffer and rng."""

    def __init__(self, config: TrainConfig, rng: np.random.Generator | None = None):
        self.config = config
        if rng is None:
            rng = np.random.default_rng(config.seed)
        self.rng = rng
        self.online = Mlp(Q_NET_DIMS, rng=rng)
        self.target = neural.clone(self.online)
        self.opt = neural.AdamState.for_net(self.online, learning_rate=config.learning_rate)
        # a run pushes at most episodes * episode_length transitions, so a
        # larger ring never wraps; sizing it to the run gives the same samples
        # without a mostly idle allocation whose residency is up to malloc
        pushes = config.episodes * config.episode_length
        self.buffer = ReplayBuffer(min(config.buffer_capacity, pushes))
        self.updates = 0
        # train_step's batch, activations and gradients, reused every update
        n = config.batch_size
        self.batch = (
            np.empty((n, STATE_DIM)),
            np.empty(n, dtype=np.int64),
            np.empty(n),
            np.empty((n, STATE_DIM)),
            np.empty(n),
        )
        self.work = neural.Workspace(Q_NET_DIMS, n)
        self.grad_out = np.zeros((n, Q_NET_DIMS[-1]))
        self.rows = np.arange(n)

    def train_step(self, batch=None) -> float:
        """One minibatch regression step; gradients flow only through taken actions.

        A given `batch` must have `config.batch_size` rows, like a sampled one.
        """
        cfg = self.config
        if batch is None:
            batch = self.buffer.sample(cfg.batch_size, self.rng, out=self.batch)
        states, actions, _, _, _ = batch
        y = ddqn_target(batch, self.online, self.target, cfg.gamma)
        q, cache = neural.forward_cached(self.online, states, self.work)
        rows = self.rows
        err = q[rows, actions] - y
        loss = float(np.mean(err**2))
        grad_out = self.grad_out
        grad_out.fill(0.0)
        grad_out[rows, actions] = 2.0 * err / len(actions)
        grads = neural.backward(self.online, cache, grad_out)
        neural.adam_update(self.online, grads, self.opt)
        self.updates += 1
        if self.updates % cfg.target_sync == 0:
            neural.copy_parameters(self.online, self.target)
        return loss


LOG_HEADER = ["episode", "return", "epsilon", "mean_loss", "rebalances", "active_frac"]


def write_train_log(path, rows) -> None:
    artifacts.write_csv(path, LOG_HEADER, rows)


def train(env: LpEnv, config: TrainConfig):
    """Full training loop; returns (agent, per-episode log rows).

    Fully reproducible: the config seed drives separate env and agent
    streams, so identical (data, config) runs produce identical nets.
    """
    env.episode_length = config.episode_length
    env_ss, agent_ss = np.random.SeedSequence(config.seed).spawn(2)
    env.rng = np.random.default_rng(env_ss)
    agent = DdqnAgent(config, rng=np.random.default_rng(agent_ss))
    epsilon = config.epsilon_start
    step_decay = config.epsilon_decay_mode == "step"

    log_rows = []
    for episode in range(1, config.episodes + 1):
        state = env.reset()
        ep_return = 0.0
        losses = []
        rebalances = 0
        while True:
            action = select_action(agent.online, state, epsilon, agent.rng)
            next_state, reward, terminal = env.step(action)
            agent.buffer.push(state, action, reward, next_state, terminal)
            if len(agent.buffer) >= config.batch_size:
                losses.append(agent.train_step())
            if step_decay:
                epsilon = max(config.epsilon_end, epsilon * config.epsilon_decay)
            ep_return += reward
            rebalances += action
            state = next_state
            if terminal:
                break
        if not step_decay:
            epsilon = max(config.epsilon_end, epsilon * config.epsilon_decay)
        log_rows.append(
            (
                episode,
                ep_return,
                epsilon,
                float(np.mean(losses)) if losses else 0.0,
                rebalances,
                ammcore.active_fraction(env.pos),
            )
        )
    return agent, log_rows
