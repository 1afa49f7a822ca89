import json
import math

import numpy as np
import pytest

from vqlab import qrl, simcore, vqc
from vqlab.vqc import (EncodingSpec, ModelFormatError, VqcModel,
                       deserialize_model, finite_diff_grad, forward,
                       parameter_shift_grad, phi, serialize_model)

SIGMOID = EncodingSpec("sigmoid")


@pytest.fixture(params=["blocks", "per-gate", "per-gate, strided"])
def engine_path(request, monkeypatch):
    """Runs a test on the cached-block path and on the per-gate path, the
    latter with each form of the rotation kernel."""
    monkeypatch.setattr(vqc, "BLOCK_MAX_QUBITS", simcore.DEFAULT_QUBIT_CAP
                        if request.param == "blocks" else 0)
    if request.param == "per-gate, strided":
        monkeypatch.setattr(simcore, "GATHER_MAX_AMPS", 0)
    return request.param


def dense_oracle_z(model, observation):
    """Per-wire <Z> of one circuit through embed_gate and dense_apply_oracle
    alone: a basis index, or RY(scale * phi(x_w)) encoding on |0...0>."""
    u = model.num_qubits
    gates = []
    if np.ndim(observation) == 0:
        state = simcore.basis_state(u, int(observation))
    else:
        state = simcore.zero_state(u)
        spec = model.encoding
        gates += [simcore.GateOp("RY", (w,), spec.scale * phi(x, spec))
                  for w, x in enumerate(observation)]
    for layer in model.layers:
        gates += [simcore.GateOp("CNOT", pair)
                  for pair in vqc.entangler_pairs(u, model.entangler)]
        for w in range(u):
            gates += [simcore.GateOp(kind, (w,), float(angle)) for kind, angle
                      in zip(("RX", "RY", "RZ"), (layer.alphas[w],
                                                  layer.betas[w],
                                                  layer.gammas[w]))]
    for gate in gates:
        state = simcore.dense_apply_oracle(state, simcore.embed_gate(gate, u))
    return np.array([simcore.expectation_z(state, w) for w in range(u)])


def output_state(model, observation):
    """One observation's output state, as a Statevector."""
    amps = vqc.output_states(model, [observation])[0]
    return simcore.Statevector(model.num_qubits, amps)


def encode(x, spec, num_qubits):
    """The angle-encoded input state of ``x``: a depth-0 model's output."""
    return output_state(VqcModel(num_qubits, 0, encoding=spec), x)


def random_model(rng, max_qubits=4, max_depth=3):
    u = int(rng.integers(1, max_qubits + 1))
    depth = int(rng.integers(1, max_depth + 1))
    params = rng.uniform(-np.pi, np.pi, 3 * u * depth)
    return VqcModel(u, depth, params,
                    entangler=str(rng.choice(["chain", "ring"])))


class TestPhi:
    def test_sigmoid_at_zero(self):
        assert phi(0.0, SIGMOID) == 0.5

    def test_sigmoid_saturates(self):
        assert abs(phi(1e9, SIGMOID) - 1.0) <= 1e-12
        assert abs(phi(-1e9, SIGMOID)) <= 1e-12

    def test_clamp_identity_in_range(self):
        spec = EncodingSpec("clamp01")
        assert phi(0.3, spec) == 0.3
        assert phi(-2.0, spec) == 0.0
        assert phi(7.0, spec) == 1.0

    def test_none_passthrough(self):
        assert phi(2.5, EncodingSpec("none")) == 2.5

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            phi(float("nan"), SIGMOID)
        with pytest.raises(ValueError):
            phi(float("inf"), SIGMOID)

    def test_unknown_nonlinearity_rejected(self):
        with pytest.raises(ValueError):
            EncodingSpec("relu")

    @staticmethod
    def reference_phi(v, nonlinearity):
        """The per-coordinate definition, in math on Python floats."""
        if nonlinearity == "sigmoid":
            if v >= 0:
                return 1.0 / (1.0 + math.exp(-v))
            return math.exp(v) / (1.0 + math.exp(v))
        if nonlinearity == "clamp01":
            return min(max(v, 0.0), 1.0)
        return v

    @pytest.mark.parametrize("nonlinearity", vqc.NONLINEARITIES)
    def test_array_matches_reference_loop(self, nonlinearity):
        spec = EncodingSpec(nonlinearity)
        x = np.random.default_rng(8).normal(scale=20.0, size=(6, 4))
        x[0, :2] = [0.0, -0.0]
        want = [[self.reference_phi(float(v), nonlinearity) for v in row]
                for row in x]
        got = phi(x, spec)
        assert got.shape == x.shape
        # NumPy's exp may differ from math.exp in the last bit
        assert np.max(np.abs(got - want)) <= 2 * np.finfo(float).eps
        for v, w in zip(x.ravel(), np.ravel(want)):
            one = phi(float(v), spec)
            assert isinstance(one, float)
            assert abs(one - w) <= 2 * np.finfo(float).eps

    def test_non_finite_array_rejected(self):
        with pytest.raises(ValueError):
            phi(np.array([0.0, float("nan")]), SIGMOID)
        with pytest.raises(ValueError):
            vqc.encoding_angles(np.array([[0.0], [float("-inf")]]), SIGMOID)


class TestEncode:
    """The RY angle encoding, read from the output of depth-0 models."""

    def test_zero_input_gives_cos_quarter_pi(self):
        state = encode([0.0, 0.0], SIGMOID, 2)
        for wire in range(2):
            assert abs(simcore.expectation_z(state, wire)
                       - math.cos(math.pi / 4)) <= 1e-12

    def test_saturated_negative_input_stays_zero_ket(self):
        state = encode([-1e9, -1e9], SIGMOID, 2)
        assert abs(simcore.expectation_z(state, 0) - 1.0) <= 1e-9

    def test_amplitudes_real_non_negative_on_quarter_range(self):
        # RY with angles in [0, pi/2] on |0> keeps amplitudes in the
        # non-negative real quadrant
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = encode(rng.normal(size=3), SIGMOID, 3)
            assert np.max(np.abs(state.amps.imag)) <= 1e-12
            assert np.min(state.amps.real) >= -1e-12

    def test_matches_dense_oracle(self):
        x = np.array([0.4, -1.2])
        state = encode(x, SIGMOID, 2)
        angles = vqc.encoding_angles(x, SIGMOID)
        full = np.kron(simcore.gate_matrix("RY", angles[0]),
                       simcore.gate_matrix("RY", angles[1]))
        oracle = simcore.dense_apply_oracle(simcore.zero_state(2), full)
        assert np.max(np.abs(state.amps - oracle.amps)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encode([0.0, 0.0, 0.0], SIGMOID, 2)

    def test_qubit_cap(self):
        with pytest.raises(simcore.ResourceLimitError):
            encode(np.zeros(25), SIGMOID, 25)


class TestPqcApply:
    """One layer, read from the output of depth-1 models on basis inputs."""

    def test_single_qubit_has_no_entangler(self):
        model = VqcModel(1, 1, [0.0, 0.3, 0.0])
        state = output_state(model, 0)
        assert abs(simcore.expectation_z(state, 0) - math.cos(0.3)) <= 1e-12

    def test_zero_angles_chain_fixes_00(self):
        model = VqcModel(2, 1, np.zeros(6), entangler="chain")
        state = output_state(model, 0)
        assert np.allclose(state.amps, simcore.zero_state(2).amps)

    def test_zero_angles_chain_flips_target_of_10(self):
        model = VqcModel(2, 1, np.zeros(6), entangler="chain")
        state = output_state(model, 2)
        assert np.allclose(state.amps, simcore.basis_state(2, 3).amps)

    def test_ring_adds_wraparound_cnot(self):
        assert vqc.entangler_pairs(4, "ring") == [(0, 1), (1, 2), (2, 3),
                                                  (3, 0)]
        assert vqc.entangler_pairs(4, "chain") == [(0, 1), (1, 2), (2, 3)]
        assert vqc.entangler_pairs(1, "ring") == []


class TestForward:
    def test_depth_zero_reduces_to_encoding(self):
        model = VqcModel(2, 0)
        out = forward(model, np.zeros(2))
        assert np.allclose(out, math.cos(math.pi / 4), atol=1e-12)

    def test_analytic_forward_is_pure(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        x = rng.normal(size=model.num_qubits)
        assert np.array_equal(forward(model, x), forward(model, x))

    def test_outputs_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            model = random_model(rng)
            out = forward(model, rng.normal(size=model.num_qubits))
            assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_basis_index_input(self):
        model = VqcModel(3, 0)
        out = forward(model, 5)  # |101>
        assert np.allclose(out, [-1.0, 1.0, -1.0])

    def test_integer_vector_is_angle_input(self):
        # the input's shape, not its dtype, picks basis vs angle encoding
        model = VqcModel.random(2, 1, seed=4, init_scale=np.pi)
        assert np.array_equal(forward(model, [0, 1]),
                              forward(model, [0.0, 1.0]))

    def test_encoding_injectivity_on_grid(self):
        model = VqcModel.random(2, 1, seed=42, init_scale=np.pi)
        grid = [np.array([a, b], dtype=float)
                for a in (-2, -1, 0, 1, 2) for b in (-2, -1, 0, 1, 2)]
        outputs = [forward(model, x) for x in grid]
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                assert np.max(np.abs(outputs[i] - outputs[j])) > 1e-6


class TestRunCircuitBatch:
    def test_flat_params_match_tiled(self):
        rng = np.random.default_rng(22)
        for trial in range(40):
            model = random_model(rng, max_qubits=5)
            u, n = model.num_qubits, int(rng.integers(1, 9))
            if trial % 2:
                observations = rng.integers(0, 2 ** u, n)
            else:
                observations = rng.normal(size=(n, u))
            flat = vqc.run_circuit_batch(model, model.params, observations)
            tiled = vqc.run_circuit_batch(
                model, np.tile(model.params, (n, 1)), observations)
            assert flat.shape == tiled.shape == (n, u)
            assert np.max(np.abs(flat - tiled)) <= 1e-12
            # distinct rows: each must match its own flat-vector run
            rows = rng.uniform(-np.pi, np.pi, (n, model.num_params))
            per_row = vqc.run_circuit_batch(model, rows, observations)
            for b in range(n):
                own = vqc.run_circuit_batch(model, rows[b],
                                            observations[b:b + 1])
                assert np.max(np.abs(per_row[b] - own[0])) <= 1e-12

    @pytest.mark.parametrize("observations", [
        [4], [-1], [0.5], [True], [[0.1, 0.2, 0.3]], [[[0.1, 0.2]]]])
    def test_bad_observations_rejected(self, observations):
        model = VqcModel(2, 1)
        with pytest.raises(ValueError):
            vqc.run_circuit_batch(model, model.params, observations)

    @pytest.mark.parametrize("shape", [(36,), (2, 36), (30,), (3, 24),
                                       (1, 2, 24)])
    @pytest.mark.parametrize("observations", [[0, 5], np.zeros((2, 4))])
    def test_parameter_shape_checked(self, shape, observations):
        # a 36-entry vector must not run as a 3-layer circuit
        model = VqcModel(4, 2)
        want = (r"expected parameters of shape \(24,\) or \(2, 24\), "
                rf"got shape \({', '.join(map(str, shape))},?\)")
        with pytest.raises(ValueError, match=want):
            vqc.run_circuit_batch(model, np.zeros(shape), observations)


class TestEnginePaths:
    """The cached-block path against the per-gate path and the dense
    oracle, to 1e-12."""

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
    def test_paths_match_dense_oracle(self, num_qubits, monkeypatch):
        rng = np.random.default_rng(60 + num_qubits)
        u = num_qubits
        for depth in range(4):
            for entangler in ("chain", "ring"):
                model = VqcModel(u, depth,
                                 rng.uniform(-np.pi, np.pi, 3 * u * depth),
                                 entangler=entangler)
                basis = rng.integers(0, 2 ** u, 2)
                vectors = rng.normal(size=(2, u))
                for observations in (basis, vectors):
                    got = {}
                    for limit in (u, u - 1):  # blocks, then per-gate
                        monkeypatch.setattr(vqc, "BLOCK_MAX_QUBITS", limit)
                        got[limit] = vqc.run_circuit_batch(
                            model, model.params, observations)
                    assert np.max(np.abs(got[u] - got[u - 1])) <= 1e-12
                    oracle = np.array([dense_oracle_z(model, obs)
                                       for obs in observations])
                    assert np.max(np.abs(got[u] - oracle)) <= 1e-12

    def test_block_building_runs_simcore_kernels(self, monkeypatch):
        calls = {"apply_rotation_batch": 0, "apply_cnot_batch": 0}
        for name in calls:
            def counted(*args, name=name, original=getattr(simcore, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(simcore, name, counted)
        vqc._circuit_blocks.cache_clear()
        model = VqcModel.random(4, 2, seed=61, entangler="ring")
        vqc.run_circuit_batch(model, model.params, [0, 5])
        # per layer: 4 ring CNOTs and one fused rotation per wire
        assert calls == {"apply_rotation_batch": 8, "apply_cnot_batch": 8}
        vqc.run_circuit_batch(model, model.params, [3])
        vqc.grad_batch(model, np.ones((1, 4)), [3])
        assert calls == {"apply_rotation_batch": 8, "apply_cnot_batch": 8}

    def test_block_path_bounds(self):
        theta = np.zeros(3 * 6 * 2)
        assert vqc._blocks(VqcModel(6, 2), theta) is not None
        assert vqc._blocks(VqcModel(6, 2), np.tile(theta, (3, 1))) is None
        assert vqc._blocks(VqcModel(vqc.BLOCK_MAX_QUBITS + 1, 1),
                           np.zeros(3 * (vqc.BLOCK_MAX_QUBITS + 1))) is None
        # 300 layers of 4^6 entries pass BLOCK_MAX_AMPS
        assert vqc._blocks(VqcModel(6, 300), np.zeros(3 * 6 * 300)) is None

    def test_cached_arrays_refuse_writes(self):
        model = VqcModel.random(3, 2, seed=62)
        layers, product, z_table = vqc._blocks(model, model.params)
        for array in layers + (product, z_table):
            with pytest.raises(ValueError):
                array[0, 0] = 0.0
        z = vqc.run_circuit_batch(model, model.params, [1, 2])
        want = z.copy()
        z[:] = 7.0  # the caller's copy, not the cached table
        assert np.array_equal(
            vqc.run_circuit_batch(model, model.params, [1, 2]), want)

    def test_new_params_are_never_stale(self):
        agent = qrl.QrlAgent(VqcModel.random(4, 2, seed=63), 4, 0.9, 50)
        for obs in (6, np.array([0.3, -1.0, 0.5, 2.0])):
            before = qrl.q_values(agent, obs)
            agent.online.params = agent.online.params + 0.1
            after = qrl.q_values(agent, obs)
            assert np.max(np.abs(after - before)) > 1e-6
            oracle = dense_oracle_z(agent.online, obs)
            assert np.max(np.abs(after - oracle)) <= 1e-12
            assert np.max(np.abs(forward(agent.online, obs) - after)) <= 1e-12
            target = vqc.run_circuit_batch(agent.online, agent.target_params,
                                           [obs])[0]
            assert np.max(np.abs(target - after)) > 1e-6
            agent.sync_target()
            assert np.array_equal(vqc.run_circuit_batch(
                agent.online, agent.target_params, [obs])[0], after)

    def test_output_states_feed_readout_and_adjoint(self):
        rng = np.random.default_rng(64)
        model = VqcModel.random(4, 2, seed=64)
        observations = rng.normal(size=(5, 4))
        upstreams = rng.normal(size=(5, 4))
        psi = vqc.output_states(model, observations)
        assert np.array_equal(
            vqc.readout(model, psi),
            vqc.run_circuit_batch(model, model.params, observations))
        assert np.array_equal(
            vqc.grad_batch(model, upstreams, observations, psi=psi),
            vqc.grad_batch(model, upstreams, observations))


class TestGradients:
    def test_single_qubit_closed_form(self):
        # RY(theta_enc) RY(beta) on |0>: d<Z>/dbeta = -sin(theta_enc + beta)
        x = 0.7
        beta = 0.4
        model = VqcModel(1, 1, [0.0, beta, 0.0])
        theta_enc = (math.pi / 2) * phi(x, SIGMOID)
        grad = parameter_shift_grad(model, np.array([x]), np.ones(1))
        assert abs(grad[1] + math.sin(theta_enc + beta)) <= 1e-12
        assert abs(grad[0]) <= 1e-12  # alpha at 0 is a stationary point

    def test_zero_upstream_gives_zero_gradient(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        grad = parameter_shift_grad(model, rng.normal(size=model.num_qubits),
                                    np.zeros(model.num_qubits))
        assert np.array_equal(grad, np.zeros(model.num_params))

    def test_last_layer_rz_gradients_vanish(self):
        # RZ commutes with the Z readout
        rng = np.random.default_rng(6)
        model = random_model(rng)
        u = model.num_qubits
        grad = parameter_shift_grad(model, rng.normal(size=u),
                                    rng.normal(size=u))
        gamma_block = vqc.layer_view(grad, u)[-1, 2]
        assert np.max(np.abs(gamma_block)) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            model = random_model(rng)
            x = rng.normal(size=model.num_qubits)
            upstream = rng.normal(size=model.num_qubits)
            ps = parameter_shift_grad(model, x, upstream)
            fd = finite_diff_grad(model, x, upstream, h=1e-4)
            worst = max(worst, float(np.max(np.abs(ps - fd))))
        assert worst <= 1e-5

    def test_depth_zero_has_empty_gradient(self):
        model = VqcModel(2, 0)
        for x in (np.zeros(2), 3):
            assert parameter_shift_grad(model, x, np.ones(2)).shape == (0,)
            assert finite_diff_grad(model, x, np.ones(2)).shape == (0,)

    @pytest.mark.parametrize("grad", [
        lambda m, up: vqc.grad_batch(m, up[None], [3]),
        lambda m, up: vqc.grad_batch(m, up[None], [3], parameter_shift=True),
        lambda m, up: vqc.grad_batch(m, np.tile(up, (2, 1)), [3]),
        lambda m, up: parameter_shift_grad(m, 3, up),
        lambda m, up: finite_diff_grad(m, 3, up),
    ], ids=["adjoint", "shift-batch", "rows", "parameter-shift",
            "finite-diff"])
    def test_upstream_shape_checked(self, grad):
        model = VqcModel(4, 2)
        with pytest.raises(ValueError, match=r"expected upstreams? of shape"):
            grad(model, np.ones(3))

    def test_finite_diff_h_range(self):
        model = VqcModel(1, 1)
        with pytest.raises(ValueError):
            finite_diff_grad(model, np.zeros(1), np.ones(1), h=0.5)
        with pytest.raises(ValueError):
            finite_diff_grad(model, np.zeros(1), np.ones(1), h=1e-8)

    def test_broken_shift_hook_breaks_exactness(self, monkeypatch):
        rng = np.random.default_rng(8)
        model = random_model(rng)
        x = rng.normal(size=model.num_qubits)
        upstream = rng.normal(size=model.num_qubits)
        good = parameter_shift_grad(model, x, upstream)
        monkeypatch.setattr(vqc, "SHIFT", 1.0)
        bad = parameter_shift_grad(model, x, upstream)
        assert np.max(np.abs(good - bad)) > 1e-5


class TestAdjointGradients:
    """grad_batch's default adjoint path against the parameter-shift batch."""

    def test_matches_parameter_shift(self):
        self.check_against_parameter_shift(seed=21, trials=120)

    def test_matches_parameter_shift_on_each_path(self, engine_path):
        self.check_against_parameter_shift(seed=23, trials=60)

    @staticmethod
    def check_against_parameter_shift(seed, trials):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for trial in range(trials):
            u = int(rng.integers(1, 6))
            depth = int(rng.integers(0, 4))
            params = rng.uniform(-np.pi, np.pi, 3 * u * depth)
            model = VqcModel(u, depth, params,
                             entangler=("chain", "ring")[trial % 2])
            n = int(rng.integers(2, 9))
            upstreams = rng.normal(size=(n, u))
            if trial % 4 < 2:
                observations = rng.integers(0, 2 ** u, n)
            else:
                observations = rng.normal(size=(n, u))
            adjoint = vqc.grad_batch(model, upstreams, observations)
            shifted = vqc.grad_batch(model, upstreams, observations,
                                     parameter_shift=True)
            assert adjoint.shape == shifted.shape == (n, model.num_params)
            if adjoint.size:
                worst = max(worst, float(np.max(np.abs(adjoint - shifted))))
        assert worst <= 1e-12

    def test_depth_zero_has_no_columns(self):
        model = VqcModel(3, 0)
        grads = vqc.grad_batch(model, np.ones((5, 3)), np.arange(5))
        assert grads.shape == (5, 0)


class TestParams:
    def test_flat_structured_bijection(self):
        rng = np.random.default_rng(9)
        model = random_model(rng)
        flat = model.params
        layers = model.layers
        rebuilt = np.concatenate(
            [np.concatenate([l.alphas, l.betas, l.gammas]) for l in layers])
        assert np.array_equal(flat, rebuilt)
        model.params = flat
        assert np.array_equal(model.params, flat)

    def test_param_length_checked(self):
        model = VqcModel(2, 1)
        with pytest.raises(ValueError):
            model.params = np.zeros(5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_params_rejected(self, bad):
        params = np.zeros(6)
        params[4] = bad
        with pytest.raises(ValueError, match="finite"):
            VqcModel(2, 1, params)
        model = VqcModel(2, 1)
        with pytest.raises(ValueError, match="finite"):
            model.params = params
        assert np.array_equal(model.params, np.zeros(6))

    def test_layer_view_is_the_flat_layout(self):
        u, depth = 3, 2
        flat = np.arange(3 * u * depth, dtype=float)
        view = vqc.layer_view(flat, u)
        assert view.shape == (depth, 3, u)
        assert np.shares_memory(view, flat)
        # layer-major; each layer's RX, RY, RZ angles as rows of U wires
        assert view[1, 2, 0] == flat[3 * u * 1 + 2 * u + 0]
        batch = np.stack([flat, -flat])
        assert np.array_equal(vqc.layer_view(batch, u)[1], -view)

    def test_near_identity_initialization(self):
        model = VqcModel.random(3, 2, seed=0)
        assert np.max(np.abs(model.params)) < np.pi / 100

    @pytest.mark.parametrize("build, named", [
        (lambda: vqc.entangler_pairs(3, "star"), "star"),
        (lambda: VqcModel.random(3, 2, seed=0, init_scale=-1.0), "init_scale"),
    ])
    def test_bad_argument_named(self, build, named):
        with pytest.raises(ValueError, match=named):
            build()


class TestSerialization:
    def test_round_trip(self):
        model = VqcModel.random(3, 2, seed=1,
                                encoding=EncodingSpec("clamp01", 1.25))
        assert deserialize_model(serialize_model(model)) == model

    def test_missing_key_named(self):
        doc = json.loads(serialize_model(VqcModel(2, 1)))
        del doc["params"]
        with pytest.raises(ModelFormatError, match="params"):
            deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [
        ("num_qubits", None), ("depth", 1.7), ("depth", True),
        ("params", {}), ("entangler", 3), ("encoding", None),
        ("scale", None), ("nonlinearity", 1)])
    def test_bad_value_named(self, key, value):
        doc = json.loads(serialize_model(VqcModel(2, 1)))
        if key in doc["encoding"]:
            doc["encoding"][key] = value
        else:
            doc[key] = value
        with pytest.raises(ModelFormatError, match=key):
            deserialize_model(json.dumps(doc))

    def test_version_mismatch(self):
        doc = json.loads(serialize_model(VqcModel(2, 1)))
        doc["schema"] = "vqc-v0"
        with pytest.raises(ModelFormatError, match="schema"):
            deserialize_model(json.dumps(doc))

    def test_malformed_json_reports_location(self):
        with pytest.raises(ModelFormatError, match="line"):
            deserialize_model("{not json")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_encoding_scale_rejected(self, bad):
        with pytest.raises(ValueError, match="scale"):
            EncodingSpec("sigmoid", bad)
        doc = json.loads(serialize_model(VqcModel(2, 1)))
        doc["encoding"]["scale"] = bad
        with pytest.raises(ModelFormatError, match="scale"):
            deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_params_rejected(self, bad):
        doc = json.loads(serialize_model(VqcModel(2, 1)))
        doc["params"][2] = bad
        with pytest.raises(ModelFormatError, match="finite"):
            deserialize_model(json.dumps(doc))
