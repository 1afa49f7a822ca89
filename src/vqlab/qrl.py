"""Quantum Q-learning: a circuit-backed DQN with replay and a target snapshot.

The Q-function is a VqcModel: discrete observations enter as basis
states, continuous ones through angle encoding, and Q(s, a) is a
trainable per-action scale times the Z expectation of wire a.  Training
minimizes the one-step TD error against the same model at a periodically
synced frozen copy of its parameters and scales, sampling batches
uniformly from a ring buffer once it holds max(warmup, batch_size)
transitions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from . import optim, vqc
from .envs import Observation, make_env
from .optim import Loss
from .vqc import VqcModel


class Transition(NamedTuple):
    """One replay unit: (s, a, r, s'), plus a terminal flag, which makes
    terminal targets the bare reward; a sampled batch holds one array per
    field."""

    state: Observation
    action: int
    reward: float
    next_state: Observation
    terminal: bool


class ReplayBuffer:
    """Fixed-capacity ring with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._storage: List[Transition] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._storage)

    def push(self, transition: Transition) -> None:
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._cursor] = transition
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int,
               rng: np.random.Generator) -> Transition:
        """Uniform draws with replacement, as one Transition of arrays."""
        if batch_size > len(self._storage):
            raise ValueError("not enough transitions to sample")
        picks = rng.integers(0, len(self._storage), size=batch_size)
        return Transition(*map(np.array,
                               zip(*(self._storage[i] for i in picks))))


@dataclass
class QrlConfig:
    env: str = "frozenlake"
    episodes: int = 500
    num_qubits: int = 4
    depth: int = 2
    entangler: Optional[str] = None
    gamma: float = 0.99
    buffer_capacity: int = 10_000
    batch_size: int = 32
    warmup: int = 100
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.995  # multiplicative, per episode
    target_sync_interval: int = 50
    optimizer: str = "adam"
    lr: float = 0.01
    init_scale: float = math.pi / 100
    loss: str = "mse"
    huber_delta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        for name in ("episodes", "warmup", "init_scale"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 <= self.epsilon_end <= self.epsilon_start <= 1:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not 0 < self.epsilon_decay <= 1:
            raise ValueError("epsilon_decay must lie in (0, 1]")
        if self.target_sync_interval < 1:
            raise ValueError("target_sync_interval must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.batch_size > self.buffer_capacity:
            raise ValueError(
                f"batch_size ({self.batch_size}) must not exceed "
                f"buffer_capacity ({self.buffer_capacity})")
        # each raises naming its field when invalid
        spec = make_env(self.env).spec
        VqcModel(self.num_qubits, self.depth, entangler=self.entangler)
        optim.make_optimizer(self.optimizer, self.lr)
        Loss(self.loss, self.huber_delta)
        if spec.discrete and 2 ** self.num_qubits < spec.observation_size:
            raise ValueError(f"num_qubits {self.num_qubits} cannot index "
                             f"{spec.observation_size} discrete states")
        if not spec.discrete and self.num_qubits != spec.observation_size:
            raise ValueError(
                f"{self.env} needs num_qubits == {spec.observation_size}")


class QrlAgent:
    """Online model and per-action output scales, and a frozen copy of
    both: ``target_params`` and ``target_action_scale``."""

    def __init__(self, online: VqcModel, action_count: int, gamma: float,
                 target_sync_interval: int):
        self.online = online
        self.action_count = action_count
        self.action_scale = np.ones(action_count)
        self.gamma = gamma
        self.target_sync_interval = target_sync_interval
        self.step = 0
        self.sync_target()

    @classmethod
    def for_env(cls, config: QrlConfig) -> "QrlAgent":
        model = VqcModel.random(config.num_qubits, config.depth,
                                seed=config.seed,
                                init_scale=config.init_scale,
                                entangler=config.entangler)
        return cls(model, make_env(config.env).spec.action_count,
                   config.gamma, config.target_sync_interval)

    def sync_target(self) -> None:
        self.target_params = self.online.params
        self.target_action_scale = self.action_scale.copy()


def q_values(agent: QrlAgent, observation: Observation) -> np.ndarray:
    """Q(s, .) = action_scale * <Z> of the first |A| wires."""
    z = vqc.run_circuit_batch(agent.online, agent.online.params,
                              [observation])[0]
    return agent.action_scale * z[:agent.action_count]


def select_action(qvals: np.ndarray, epsilon: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy; greedy ties break to the lowest action index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(0, len(qvals)))
    return int(np.argmax(qvals))


def bellman_targets(batch: Transition, agent: QrlAgent) -> np.ndarray:
    """r + gamma * max_a' Q_target(s', a'), with terminal rows just r;
    Q_target is the online model at the target snapshot."""
    if len(batch.reward) == 0:
        raise ValueError("empty batch")
    z_next = vqc.run_circuit_batch(agent.online, agent.target_params,
                                   batch.next_state)
    q_next = agent.target_action_scale * z_next[:, :agent.action_count]
    return np.where(batch.terminal, batch.reward,
                    batch.reward + agent.gamma * q_next.max(axis=1))


def train_step(agent: QrlAgent, buffer: ReplayBuffer, batch_size: int,
               loss: Loss, optimizer, rng: np.random.Generator) -> float:
    """One replay-batch update of theta and action_scale; returns the
    pre-step batch loss.  Targets are constants: no gradient flows into the
    target snapshot.  An update that makes theta or action_scale non-finite
    raises RuntimeError.
    """
    batch = buffer.sample(batch_size, rng)
    targets = bellman_targets(batch, agent)

    # one online forward: its output states feed the readout and the adjoint
    psi = vqc.output_states(agent.online, batch.state)
    z = vqc.readout(agent.online, psi)
    rows = np.arange(batch_size)
    z_taken = z[rows, batch.action]
    pred = agent.action_scale[batch.action] * z_taken

    value, dpred = optim.loss_and_grad(loss, pred, targets)

    # only the taken action's wire receives upstream gradient
    upstream = np.zeros((batch_size, agent.online.num_qubits))
    upstream[rows, batch.action] = dpred * agent.action_scale[batch.action]
    theta_grads = vqc.grad_batch(agent.online, upstream, batch.state,
                                 psi=psi).sum(axis=0)
    scale_grads = np.zeros(agent.action_count)
    np.add.at(scale_grads, batch.action, dpred * z_taken)

    packed = np.concatenate([agent.online.params, agent.action_scale])
    grads = np.concatenate([theta_grads, scale_grads])
    packed = optimizer.step(packed, grads)
    if not np.all(np.isfinite(packed)):
        raise RuntimeError(f"train step {agent.step + 1} gave non-finite "
                           f"parameters; lower qrl lr ({optimizer.lr})")
    agent.online.params = packed[:agent.online.num_params]
    agent.action_scale = packed[agent.online.num_params:]

    agent.step += 1
    if agent.step % agent.target_sync_interval == 0:
        agent.sync_target()
    return value


def _episode(env, policy: Callable[[Observation], int],
             rng: np.random.Generator) -> Iterator[Transition]:
    """Reset ``env`` and yield each step's transition under ``policy``; the
    caller handles a transition before the policy picks the next action."""
    obs = env.reset(rng)
    done = False
    while not done:
        action = policy(obs)
        next_obs, reward, done = env.step(action)
        yield Transition(obs, action, reward, next_obs, done)
        obs = next_obs


METRIC_COLUMNS = ("episode", "steps", "return", "mean_loss", "epsilon",
                  "wall_ms")


def run_training(config: QrlConfig) -> Tuple[QrlAgent, List[dict]]:
    """Full episode loop; metrics are a deterministic function of the config.

    Returns the trained agent and one metrics row per episode, keyed by
    METRIC_COLUMNS.  wall_ms is kept at 0 so reruns with the same config
    reproduce byte-identical outputs; total wall time belongs in the
    caller's summary, not the metrics.
    """
    rng = np.random.default_rng(config.seed)
    env = make_env(config.env)
    agent = QrlAgent.for_env(config)
    buffer = ReplayBuffer(config.buffer_capacity)
    optimizer = optim.make_optimizer(config.optimizer, config.lr)
    loss = Loss(config.loss, config.huber_delta)
    epsilon = config.epsilon_start
    start = max(config.warmup, config.batch_size)
    metrics: List[dict] = []

    def policy(obs):
        return select_action(q_values(agent, obs), epsilon, rng)

    for episode in range(config.episodes):
        ep_return = 0.0
        ep_steps = 0
        losses: List[float] = []
        for transition in _episode(env, policy, rng):
            buffer.push(transition)
            if len(buffer) >= start:
                losses.append(train_step(agent, buffer, config.batch_size,
                                         loss, optimizer, rng))
            ep_return += transition.reward
            ep_steps += 1
        epsilon = max(config.epsilon_end, epsilon * config.epsilon_decay)
        mean_loss = float(np.mean(losses)) if losses else 0.0
        metrics.append(dict(zip(METRIC_COLUMNS, (episode, ep_steps, ep_return,
                                                 mean_loss, epsilon, 0))))
    return agent, metrics


def _returns(env_kind: str, policy: Callable[[Observation], int],
             episodes: int, rng: np.random.Generator) -> List[float]:
    """The return of each of ``episodes`` rollouts, each in a fresh env."""
    return [sum(t.reward for t in _episode(make_env(env_kind), policy, rng))
            for _ in range(episodes)]


def evaluate(agent: QrlAgent, env_kind: str, episodes: int,
             rng: np.random.Generator) -> dict:
    """Greedy rollouts; success means reaching the goal (FrozenLake) or
    surviving to the step cap (CartPole)."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")

    def greedy(obs):
        return select_action(q_values(agent, obs), 0.0, rng)

    returns = _returns(env_kind, greedy, episodes, rng)
    spec = make_env(env_kind).spec
    successes = sum(r > 0 if spec.discrete else r >= spec.step_cap
                    for r in returns)
    return {"mean_return": float(np.mean(returns)),
            "success_rate": successes / episodes}


def random_policy_baseline(env_kind: str, episodes: int,
                           rng: np.random.Generator) -> dict:
    """Mean return of uniformly random actions under the same seed protocol."""
    action_count = make_env(env_kind).spec.action_count

    def uniform(obs):
        return int(rng.integers(0, action_count))

    return {"mean_return": float(np.mean(
        _returns(env_kind, uniform, episodes, rng)))}


CHECKPOINT_KEYS = {**vqc.MODEL_KEYS, "action_scale": [0.0], "gamma": 0.0,
                   "step": 0}


def agent_to_json(agent: QrlAgent) -> str:
    """Checkpoint: the model document plus scale/gamma/step."""
    return json.dumps({**vqc.model_to_dict(agent.online),
                       "action_scale": agent.action_scale.tolist(),
                       "gamma": agent.gamma, "step": agent.step})


def agent_from_json(text: str) -> QrlAgent:
    model, doc = vqc.read_checkpoint(text, CHECKPOINT_KEYS)
    scale, gamma, step = doc["action_scale"], doc["gamma"], doc["step"]
    for key, ok, rule in (
            ("action_scale", 1 <= len(scale) <= model.num_qubits,
             f"have 1 to {model.num_qubits} entries, one per action"),
            ("gamma", 0 < gamma < 1, "lie in (0, 1)"),
            ("step", step >= 0, "be >= 0")):
        if not ok:
            raise vqc.ModelFormatError(
                f"checkpoint {key} must {rule}, got {doc[key]}")
    agent = QrlAgent(model, len(scale), gamma, QrlConfig.target_sync_interval)
    agent.action_scale = np.array(scale, dtype=np.float64)
    agent.step = step
    agent.sync_target()
    return agent
