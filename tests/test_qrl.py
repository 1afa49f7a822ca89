import json

import numpy as np
import pytest

import vqlab.qrl as qrl
from vqlab import optim, vqc
from vqlab.optim import MSE
from vqlab.qrl import (QrlAgent, QrlConfig, ReplayBuffer, Transition,
                       agent_from_json, agent_to_json, bellman_targets,
                       evaluate, q_values, run_training, select_action,
                       train_step)
from vqlab.vqc import ModelFormatError


def frozenlake_agent(seed=0, depth=2):
    return QrlAgent.for_env(QrlConfig(env="frozenlake", depth=depth,
                                      seed=seed))


def random_transitions(rng, n, action_count=4):
    out = []
    for _ in range(n):
        out.append(Transition(int(rng.integers(16)),
                              int(rng.integers(action_count)),
                              float(rng.random()),
                              int(rng.integers(16)),
                              bool(rng.random() < 0.3)))
    return out


def as_batch(transitions):
    """Transitions as one sampled batch: a Transition of arrays."""
    return Transition(*map(np.array, zip(*transitions)))


class _IdentityOptimizer:
    """Zero-learning-rate stand-in for the lr=0 contract check."""

    def step(self, params, grads):
        return params


class TestReplayBuffer:
    def test_capacity_is_a_ring(self):
        buf = ReplayBuffer(3)
        for t in random_transitions(np.random.default_rng(0), 5):
            buf.push(t)
        assert len(buf) == 3

    def test_capacity_checked(self):
        with pytest.raises(ValueError, match="capacity"):
            ReplayBuffer(0)

    def test_sample_requires_enough_items(self):
        buf = ReplayBuffer(10)
        buf.push(random_transitions(np.random.default_rng(0), 1)[0])
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_uniform_sampling(self):
        n = 20
        buf = ReplayBuffer(n)
        for i in range(n):  # distinct rewards make items identifiable
            buf.push(Transition(0, 0, float(i), 0, False))
        rng = np.random.default_rng(2)
        counts = np.zeros(n)
        for _ in range(5000):
            for reward in buf.sample(n, rng).reward:
                counts[int(reward)] += 1
        freqs = counts / counts.sum()
        assert np.all(np.abs(freqs - 1 / n) <= 0.05 / n)

    def test_sample_is_one_record_of_arrays(self):
        buf = ReplayBuffer(10)
        transitions = random_transitions(np.random.default_rng(1), 10)
        for t in transitions:
            buf.push(t)
        picks = np.random.default_rng(4).integers(0, 10, size=6)
        batch = buf.sample(6, np.random.default_rng(4))
        for field, column in zip(Transition._fields, batch):
            assert isinstance(column, np.ndarray) and column.shape == (6,)
            assert column.tolist() == [getattr(transitions[i], field)
                                       for i in picks]


class TestQValues:
    def test_zero_scale_zeroes_q(self):
        agent = frozenlake_agent()
        agent.action_scale = np.zeros(4)
        assert np.array_equal(q_values(agent, 3), np.zeros(4))

    def test_positive_scaling_preserves_argmax(self):
        agent = frozenlake_agent(seed=3)
        for state in range(16):
            base = q_values(agent, state)
            agent.action_scale *= 2.5
            scaled = q_values(agent, state)
            agent.action_scale /= 2.5
            assert np.allclose(scaled, 2.5 * base)
            assert np.argmax(scaled) == np.argmax(base)

    def test_near_identity_start_matches_bit_pattern(self):
        # state 0 encodes to |0000>; near-identity layers leave <Z> ~ 1
        agent = frozenlake_agent(seed=1)
        q = q_values(agent, 0)
        assert np.max(np.abs(q - agent.action_scale)) < 0.01


class TestSelectAction:
    def test_greedy_argmax(self):
        rng = np.random.default_rng(0)
        assert select_action(np.array([0.1, 0.9]), 0.0, rng) == 1

    def test_tie_breaks_low(self):
        rng = np.random.default_rng(0)
        assert select_action(np.array([0.5, 0.5]), 0.0, rng) == 0

    def test_uniform_at_epsilon_one(self):
        rng = np.random.default_rng(1)
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[select_action(np.zeros(4), 1.0, rng)] += 1
        assert np.all(np.abs(counts / 10_000 - 0.25) <= 0.03)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            select_action(np.zeros(2), 1.5, np.random.default_rng(0))


class TestBellmanTargets:
    def test_terminal_masking(self):
        agent = frozenlake_agent()
        batch = as_batch([Transition(0, 1, 1.0, 15, True)])
        assert np.array_equal(bellman_targets(batch, agent), [1.0])
        # independent of the target parameters
        agent.target_params = agent.target_params + 1.0
        assert np.array_equal(bellman_targets(batch, agent), [1.0])

    def test_degenerate_discount(self):
        agent = frozenlake_agent()
        agent.gamma = 1e-12
        batch = as_batch(random_transitions(np.random.default_rng(3), 8))
        targets = bellman_targets(batch, agent)
        assert np.allclose(targets, batch.reward, atol=1e-10)

    def test_arithmetic(self):
        agent = frozenlake_agent()
        agent.gamma = 0.9
        agent.target_action_scale = np.zeros(4)
        batch = as_batch([Transition(0, 0, 0.0, 1, False)])
        base = bellman_targets(batch, agent)[0]
        assert base == pytest.approx(0.0)
        # force max target-Q = 0.5 via the scale on a +1 wire
        z = vqc.run_circuit_batch(agent.online, agent.target_params, [1])[0]
        wire = int(np.argmax(np.abs(z)))
        scale = np.zeros(4)
        scale[wire] = 0.5 / z[wire]
        agent.target_action_scale = scale
        assert bellman_targets(batch, agent)[0] == pytest.approx(0.45)

    def test_empty_batch_rejected(self):
        empty = Transition(*(np.array([], dtype=int),) * 5)
        with pytest.raises(ValueError, match="empty batch"):
            bellman_targets(empty, frozenlake_agent())

    def test_frozen_between_syncs(self):
        agent = frozenlake_agent(seed=4)
        batch = as_batch(random_transitions(np.random.default_rng(5), 6))
        before = bellman_targets(batch, agent)
        agent.online.params = agent.online.params + 0.3  # theta moves
        agent.action_scale = agent.action_scale * 3.0
        after = bellman_targets(batch, agent)
        assert np.array_equal(before, after)


class TestTrainStep:
    def test_underfull_buffer_not_ready(self):
        agent = frozenlake_agent()
        buf = ReplayBuffer(100)
        with pytest.raises(ValueError, match="not enough transitions"):
            train_step(agent, buf, 32, MSE, optim.Adam(0.01),
                       np.random.default_rng(0))

    def test_zero_lr_changes_nothing(self):
        agent = frozenlake_agent(seed=6)
        buf = ReplayBuffer(100)
        for t in random_transitions(np.random.default_rng(6), 40):
            buf.push(t)
        theta_before = agent.online.params
        scale_before = agent.action_scale.copy()
        loss = train_step(agent, buf, 32, MSE, _IdentityOptimizer(),
                          np.random.default_rng(1))
        assert loss is not None
        assert np.array_equal(agent.online.params, theta_before)
        assert np.array_equal(agent.action_scale, scale_before)

    def test_loss_gradient_matches_finite_differences(self):
        config = QrlConfig(env="frozenlake", depth=1, seed=7)
        agent = QrlAgent.for_env(config)
        batch = as_batch(random_transitions(np.random.default_rng(8), 2))
        targets = bellman_targets(batch, agent)
        actions, states = batch.action, batch.state

        def batch_loss(theta):
            z = vqc.run_circuit_batch(agent.online, theta, states)
            pred = agent.action_scale[actions] * z[np.arange(2), actions]
            value, _ = optim.loss_and_grad(MSE, pred, targets)
            return value

        # replicate the analytic theta gradient the way train_step builds it
        z = vqc.run_circuit_batch(agent.online, agent.online.params, states)
        pred = agent.action_scale[actions] * z[np.arange(2), actions]
        _, dpred = optim.loss_and_grad(MSE, pred, targets)
        upstream = np.zeros((2, 4))
        upstream[np.arange(2), actions] = dpred * agent.action_scale[actions]
        analytic = vqc.grad_batch(agent.online, upstream, states).sum(0)

        h = 1e-5
        theta = agent.online.params
        for k in range(theta.size):
            up = theta.copy()
            up[k] += h
            down = theta.copy()
            down[k] -= h
            fd = (batch_loss(up) - batch_loss(down)) / (2 * h)
            assert abs(fd - analytic[k]) <= 1e-5

    @pytest.mark.parametrize("env", ["frozenlake", "cartpole"])
    def test_one_online_forward_per_step(self, env, monkeypatch):
        agent = QrlAgent.for_env(QrlConfig(env=env, seed=10))
        rng = np.random.default_rng(10)
        buf = ReplayBuffer(100)
        for t in random_transitions(rng, 40, agent.action_count):
            if env == "cartpole":
                t = Transition(rng.normal(size=4), t.action, t.reward,
                               rng.normal(size=4), t.terminal)
            buf.push(t)
        # between syncs: the target's forward runs at other parameters
        agent.target_params = agent.target_params + 0.1
        # counted at the public entry points: basis inputs on the block
        # path read the cached Z table without building output states
        forwards = []
        run, states = vqc.run_circuit_batch, vqc.output_states

        def counted_run(model, thetas, observations):
            forwards.append(np.array_equal(thetas, agent.online.params))
            return run(model, thetas, observations)

        def counted_states(model, observations):
            forwards.append(True)
            return states(model, observations)
        monkeypatch.setattr(vqc, "run_circuit_batch", counted_run)
        monkeypatch.setattr(vqc, "output_states", counted_states)
        train_step(agent, buf, 16, MSE, optim.Adam(0.05), rng)
        assert forwards.count(True) == 1

    def test_target_sync_interval(self):
        config = QrlConfig(env="frozenlake", depth=1, seed=9,
                           target_sync_interval=3)
        agent = QrlAgent.for_env(config)
        buf = ReplayBuffer(100)
        for t in random_transitions(np.random.default_rng(9), 40):
            buf.push(t)
        opt = optim.Adam(0.05)
        rng = np.random.default_rng(2)
        for step in range(1, 7):
            train_step(agent, buf, 16, MSE, opt, rng)
            synced = np.array_equal(agent.target_params, agent.online.params)
            assert synced == (step % 3 == 0)


class TestTraining:
    def test_zero_episodes_keeps_initial_policy(self):
        config = QrlConfig(env="frozenlake", episodes=0, seed=10)
        agent, metrics = run_training(config)
        fresh = QrlAgent.for_env(config)
        assert metrics == []
        assert np.array_equal(agent.online.params, fresh.online.params)

    def test_training_starts_at_batch_size(self, monkeypatch):
        # warmup below batch_size: the first step waits for a full batch
        config = QrlConfig(env="frozenlake", episodes=3, warmup=5,
                           batch_size=12, seed=11)
        filled = []
        original = qrl.train_step

        def counted(agent, buffer, *args):
            filled.append(len(buffer))
            return original(agent, buffer, *args)
        monkeypatch.setattr(qrl, "train_step", counted)
        run_training(config)
        assert filled[0] == 12

    def test_training_is_deterministic(self):
        config = QrlConfig(env="frozenlake", episodes=8, warmup=20, seed=11)
        _, a = run_training(config)
        _, b = run_training(config)
        assert a == b

    def test_metrics_schema(self):
        config = QrlConfig(env="frozenlake", episodes=2, seed=12)
        _, metrics = run_training(config)
        assert len(metrics) == 2
        assert set(metrics[0]) == {"episode", "steps", "return", "mean_loss",
                                   "epsilon", "wall_ms"}

    def test_cartpole_smoke(self):
        config = QrlConfig(env="cartpole", episodes=2, warmup=20, seed=13)
        _, metrics = run_training(config)
        assert all(m["return"] >= 1 for m in metrics)


class TestEvaluate:
    def test_scripted_policy_reaches_goal(self, monkeypatch):
        # always prefer Down, then Right: follows the hole-free left rim
        agent = frozenlake_agent()

        def scripted(agent_, obs):
            prefer_down = obs in (0, 4, 9)
            return np.array([0.0, 1.0, 0.5, 0.0]) if prefer_down \
                else np.array([0.0, 0.5, 1.0, 0.0])

        monkeypatch.setattr(qrl, "q_values", scripted)
        result = evaluate(agent, "frozenlake", 5, np.random.default_rng(0))
        assert result == {"mean_return": 1.0, "success_rate": 1.0}

    def test_deterministic_env_greedy_constant_return(self):
        agent = frozenlake_agent(seed=14)
        a = evaluate(agent, "frozenlake", 3, np.random.default_rng(0))
        b = evaluate(agent, "frozenlake", 3, np.random.default_rng(1))
        assert a == b  # greedy on a deterministic env ignores the rng

    def test_episode_count_checked(self):
        with pytest.raises(ValueError):
            evaluate(frozenlake_agent(), "frozenlake", 0,
                     np.random.default_rng(0))


class TestCheckpoint:
    def test_round_trip(self):
        agent = frozenlake_agent(seed=15)
        agent.action_scale = np.array([1.0, 2.0, 3.0, 4.0])
        agent.step = 123
        restored = agent_from_json(agent_to_json(agent))
        assert restored.online == agent.online
        assert np.array_equal(restored.action_scale, agent.action_scale)
        assert restored.gamma == agent.gamma
        assert restored.step == 123

    def test_embeds_model_schema(self):
        doc = json.loads(agent_to_json(frozenlake_agent()))
        assert doc["schema"] == "vqc-v1"
        assert {"action_scale", "gamma", "step"} <= set(doc)

    @pytest.mark.parametrize("key", ["action_scale", "gamma", "step"])
    def test_missing_key_named(self, key):
        doc = json.loads(agent_to_json(frozenlake_agent()))
        del doc[key]
        with pytest.raises(ModelFormatError, match=key):
            agent_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [
        ("action_scale", [float("nan"), 1.0, 1.0, 1.0]),
        ("action_scale", [1.0] * 6),
        ("gamma", 7.0),
        ("gamma", 0.0),
        ("gamma", None),
        ("step", None),
        ("step", 1.5),
        ("action_scale", {}),
        ("step", -5),
        ("action_scale", []),
        ("action_scale", ["2", 1.0, 1.0, 1.0]),
        ("action_scale", [{}, 1.0, 1.0, 1.0]),
        ("params", ["0.5"] * 24),
        ("params", [True] * 24),
        ("encoding", {"nonlinearity": "sigmoid", "scale": float("nan")}),
        ("encoding", {"nonlinearity": "sigmoid", "scale": float("inf")}),
    ])
    def test_bad_value_named(self, key, value):
        doc = json.loads(agent_to_json(frozenlake_agent()))
        doc[key] = value
        with pytest.raises(ModelFormatError, match=key):
            agent_from_json(json.dumps(doc))

    def test_every_written_key_checked(self):
        # the keys come from a written checkpoint, so a new key is covered
        def corruptions(doc):
            for key, value in doc.items():
                wrong_type = {} if isinstance(value, list) else []
                for bad in (wrong_type, True, "1"):
                    yield key, {**doc, key: bad}
                if isinstance(value, dict):
                    for inner, bad in corruptions(value):
                        yield inner, {**doc, key: bad}
                if isinstance(value, list):
                    for bad in ("1", {}, float("nan")):
                        yield key, {**doc, key: [bad] + value[1:]}

        doc = json.loads(agent_to_json(frozenlake_agent()))
        cases = list(corruptions(doc))
        assert {key for key, _ in cases} >= set(doc) | set(doc["encoding"])
        for key, bad in cases:
            with pytest.raises(ModelFormatError, match=key):
                agent_from_json(json.dumps(bad))

    def test_unknown_key_rejected(self):
        doc = json.loads(agent_to_json(frozenlake_agent()))
        doc["epsilon"] = 0.1
        with pytest.raises(ModelFormatError, match="epsilon"):
            agent_from_json(json.dumps(doc))

    def test_malformed_json_reports_location(self):
        with pytest.raises(ModelFormatError, match="line 1 column 2"):
            agent_from_json("{")


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0),
        ("lr", -1.0),
        ("warmup", -5),
        ("num_qubits", 0),
        ("epsilon_decay", 2.0),
        ("epsilon_decay", -1.0),
        ("epsilon_decay", 0.0),
        ("gamma", 1.0),
        ("epsilon_start", 0.01),  # below epsilon_end
        ("target_sync_interval", 0),
    ])
    def test_out_of_range_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            QrlConfig(**{field: value})

    def test_batch_larger_than_buffer_rejected(self):
        with pytest.raises(ValueError, match="buffer_capacity"):
            QrlConfig(batch_size=64, buffer_capacity=32)
