import functools
import itertools
import json
import math

import numpy as np
import pytest

from vqlab import qrl, simcore, vqc
from vqlab.vqc import (EncodingSpec, ModelFormatError, VqcModel,
                       deserialize_model, finite_diff_grad, forward,
                       parameter_shift_grad, phi, serialize_model)

SIGMOID = EncodingSpec("sigmoid")

# Gradients from the engine that ran every shifted row of a gradient as one
# batch, rounded to 15 decimals; TestGradients checks the per-layer batches
# against them.
FROZEN = {
    "ps_vectors": [
        [-0.771625693177421, -0.374369177732566, -0.151016473362143,
         0.296834903334788, -0.768361722583888, 0.216968432166696,
         0.368053488279006, 0.151768013769813, -0.049301354295568,
         -0.557591141714775, -0.0, 0.0],
        [0.370212771976587, 0.004300195863369, 0.497139162166459,
         -0.147310629912644, 0.451195684231999, 0.035266390077889,
         0.105363093488653, 0.096340715955983, -0.045681786146424,
         0.574647684259089, 0.0, -0.0]],
    "ps_basis": [
        [-0.687469109363335, 0.557102917004391, -0.003864173525333,
         0.208826204073632, -0.719894337877494, -0.253164954330035,
         -0.105297427213557, -0.065900454655614, -0.210605229188638,
         0.456530158052227, -0.0, 0.0],
        [-0.718913425006055, 0.128814773772878, -0.003590185855217,
         0.159350749794472, -0.747189654727797, 0.072332844094296,
         -0.001788569696482, -0.045623391684656, 0.086537548012101,
         0.316059340190004, 0.0, 0.0]],
    "fd_vector": [
        -0.771625691889467, -0.3743691771073, -0.151016473110846,
        0.296834902841887, -0.768361721300848, 0.216968431805603,
        0.368053487665006, 0.151768013518433, -0.049301354214576,
        -0.557591140785026, 1.492e-12, -6.38e-13],
    "fd_basis": [
        -0.540711977112252, -0.128814752303796, -0.001153311891106,
        -0.159350723236126, -0.542649319494001, -0.072332832038793,
        0.00178856939835, 0.045623384080887, -0.086537533589195,
        0.152787350538142, -2.8e-14, 1.1e-14],
    "ps_5": [
        -0.091136564284764, 0.108460510689725, -0.135446292973973,
        -0.227889198894488, -0.041011986563341, 0.002513189809086,
        -0.167079164833667, -0.047434410039663, 0.072896322480748,
        -0.046913160550905, 0.073022762073205, -0.185975841577656,
        -0.136872589627996, 0.04490187247443, 0.131242972917907,
        0.267822314572748, -0.040637946033653, -0.233411356680905,
        0.141930445530516, -0.005066560145048, -0.056981976066721,
        -0.405540578796574, 0.239007185278562, 0.058410610584477,
        -0.007463500766322, -0.0, -0.0, -0.0, -0.0, -0.0],
    "fd_5": [
        -0.091136564133339, 0.108460510509677, -0.135446292749732,
        -0.227889198513929, -0.041011986495677, 0.002513189805295,
        -0.16707916455632, -0.047434409959284, 0.0728963223592,
        -0.046913160471771, 0.073022761951447, -0.185975841266426,
        -0.136872589400377, 0.044901872399903, 0.131242972699131,
        0.267822314125933, -0.040637945964826, -0.233411356291673,
        0.141930445294138, -0.005066560136537, -0.056981975973128,
        -0.405540578120089, 0.23900718487997, 0.058410610486909,
        -0.007463500754435, -1.13e-13, 6.8e-13, -1.81e-13, 4.61e-13,
        -8.16e-13],
}


@pytest.fixture(params=["blocks", "per-gate"])
def engine_path(request, monkeypatch):
    """Runs a test on the cached-block path and on the per-gate path."""
    monkeypatch.setattr(vqc, "BLOCK_MAX_QUBITS", simcore.DEFAULT_QUBIT_CAP
                        if request.param == "blocks" else 0)
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

    @pytest.mark.parametrize("num_qubits,rows", [(1, 1), (4, 0), (4, 3),
                                                 (4, 729), (7, 5)])
    def test_batch_matches_per_row_kron(self, num_qubits, rows):
        # the product state of each row, wire by wire, in the same order
        obs = np.random.default_rng(num_qubits + rows).normal(
            size=(rows, num_qubits))
        model = VqcModel(num_qubits, 0)
        half = vqc.encoding_angles(obs, model.encoding) / 2.0
        want = np.zeros((rows, 2 ** num_qubits), complex)
        for b in range(rows):
            state = np.ones(1)
            for w in range(num_qubits):
                state = np.kron(state, [np.cos(half[b, w]),
                                        np.sin(half[b, w])])
            want[b] = state
        assert np.array_equal(vqc._input_states(model, obs), want)

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
            sets = int(rng.integers(1, 5))
            flat = vqc.run_circuit_batch(model, model.params, observations)
            tiled = vqc.run_circuit_batch(
                model, np.tile(model.params, (sets, 1)), observations)
            assert flat.shape == (n, u)
            assert tiled.shape == (n, sets, u)
            assert np.max(np.abs(flat[:, None] - tiled)) <= 1e-12
            # distinct sets: each must match its own flat-vector run
            thetas = rng.uniform(-np.pi, np.pi, (sets, model.num_params))
            per_set = vqc.run_circuit_batch(model, thetas, observations)
            for s in range(sets):
                own = vqc.run_circuit_batch(model, thetas[s], observations)
                assert np.max(np.abs(per_set[:, s] - own)) <= 1e-12

    @pytest.mark.parametrize("observations", [
        [4], [-1], [0.5], [True], [[0.1, 0.2, 0.3]], [[[0.1, 0.2]]]])
    def test_bad_observations_rejected(self, observations):
        model = VqcModel(2, 1)
        with pytest.raises(ValueError):
            vqc.run_circuit_batch(model, model.params, observations)

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 4))])
    def test_empty_batch(self, empty, engine_path):
        model = VqcModel.random(4, 2, seed=63)
        n = model.num_params
        assert vqc.output_states(model, empty).shape == (0, 16)
        for thetas, shape in [(model.params, (0, 4)),
                              (np.zeros((0, n)), (0, 0, 4)),
                              (np.zeros((3, n)), (0, 3, 4))]:
            assert vqc.run_circuit_batch(model, thetas, empty).shape == shape
        for shift in (False, True):
            grads = vqc.grad_batch(model, np.zeros((0, 4)), empty,
                                   parameter_shift=shift)
            assert grads.shape == (0, n)

    @pytest.mark.parametrize("shape", [(36,), (2, 36), (30,), (),
                                       (1, 2, 24)])
    @pytest.mark.parametrize("observations", [[0, 5], np.zeros((2, 4))])
    def test_parameter_shape_checked(self, shape, observations):
        # a 36-entry vector must not run as a 3-layer circuit
        model = VqcModel(4, 2)
        want = (r"expected parameters of shape \(24,\) or \(S, 24\), "
                rf"got shape \({', '.join(map(str, shape))},?\)")
        with pytest.raises(ValueError, match=want):
            vqc.run_circuit_batch(model, np.zeros(shape), observations)
        # three sets of 24, whatever the observation count
        z = vqc.run_circuit_batch(model, np.zeros((3, 24)), observations)
        assert z.shape == (2, 3, 4)

    @pytest.mark.parametrize("depth, sets, n", [
        (0, 5, 2), (0, 0, 2), (0, 5, 0), (2, 0, 3), (2, 5, 0), (2, 0, 0),
        (1, 1, 3)])
    def test_set_batch_shape(self, depth, sets, n, engine_path):
        # a set batch is (n, S, U) also where no layer broadcasts the states
        rng = np.random.default_rng(66)
        model = VqcModel.random(3, depth, seed=66)
        thetas = rng.uniform(-np.pi, np.pi, (sets, model.num_params))
        for observations in (rng.integers(0, 8, n), rng.normal(size=(n, 3))):
            z = vqc.run_circuit_batch(model, thetas, observations)
            assert z.shape == (n, sets, 3)
            for s in range(sets):
                own = vqc.run_circuit_batch(model, thetas[s], observations)
                assert np.max(np.abs(z[:, s] - own), initial=0) <= 1e-12


class TestRowEngine:
    """The parameter-set engine against row-by-row flat-vector runs on
    both engine paths, to 1e-12: each set runs on every observation, and
    a layer whose angles are equal in every set runs in the shared form."""

    @staticmethod
    def set_thetas(rng, model, sets, shared):
        """(sets, 3UL) parameters whose layers in ``shared`` are the same in
        every set; in each other layer, some sets after the first differ
        in one angle, as a parameter shift does."""
        thetas = np.tile(model.params, (sets, 1))
        layers = vqc.layer_view(thetas, model.num_qubits)
        for layer in set(range(model.depth)) - set(shared):
            picked = rng.permutation(np.arange(1, sets))[
                :rng.integers(1, sets)]
            kind, wire = rng.integers(3), rng.integers(model.num_qubits)
            layers[picked, layer, kind, wire] += rng.uniform(0.1, 1.0)
        return thetas

    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_matches_row_by_row(self, num_qubits, monkeypatch):
        rng = np.random.default_rng(1410 + num_qubits)
        u, n, sets = num_qubits, 4, 5
        for depth, entangler in itertools.product(range(4),
                                                  ("chain", "ring")):
            model = VqcModel(u, depth,
                             rng.uniform(-np.pi, np.pi, 3 * u * depth),
                             entangler=entangler)
            basis = rng.integers(0, 2 ** u, n)
            vectors = rng.normal(size=(n, u))
            repeated = [basis[[0, 1, 0, 0]], vectors[[2, 2, 0, 2]],
                        np.round(vectors[[1, 3, 1, 3]]).astype(int)]
            all_layers = range(depth)
            for observations, shared in itertools.product(
                    [basis, vectors] + repeated,
                    [all_layers, all_layers[::2], all_layers[1:], ()]):
                thetas = self.set_thetas(rng, model, sets, shared)
                got = vqc.run_circuit_batch(model, thetas, observations)
                assert got.shape == (n, sets, u)
                for limit in (simcore.DEFAULT_QUBIT_CAP, 0):  # both paths
                    monkeypatch.setattr(vqc, "BLOCK_MAX_QUBITS", limit)
                    want = [[vqc.run_circuit_batch(model, theta, [obs])[0]
                             for obs in observations] for theta in thetas]
                    assert np.max(np.abs(got.swapaxes(0, 1) - want)) <= 1e-12


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
        for depth in (2, 3):
            model = VqcModel.random(4, depth, seed=61, entangler="ring")
            vqc.run_circuit_batch(model, model.params, [0, 5])
            # for every layer at once: one call for the 4 ring CNOTs, one
            # for every rotation
            assert calls == {"apply_rotation_batch": 1, "apply_cnot_batch": 1}
            vqc.run_circuit_batch(model, model.params, [3])
            vqc.grad_batch(model, np.ones((1, 4)), [3])
            assert calls == {"apply_rotation_batch": 1, "apply_cnot_batch": 1}
            calls.update(dict.fromkeys(calls, 0))

    @pytest.mark.parametrize("num_qubits", range(1, 6))
    def test_one_call_build_matches_per_layer_build(self, num_qubits):
        rng = np.random.default_rng(70 + num_qubits)
        u = num_qubits
        eye = np.eye(2 ** u, dtype=complex)
        for depth, entangler in itertools.product(range(4),
                                                  ("chain", "ring")):
            theta = rng.uniform(-np.pi, np.pi, 3 * u * depth)
            layers, product, _ = vqc._circuit_blocks(u, entangler,
                                                     theta.tobytes())
            pairs = vqc.entangler_pairs(u, entangler)
            want = [vqc._apply_layers(eye, u, pairs, angles[None])
                    for angles in vqc.layer_view(theta, u)]
            assert len(layers) == depth
            assert all(map(np.array_equal, layers, want))
            assert np.array_equal(product,
                                  functools.reduce(np.matmul, want, eye))

    def test_block_path_bounds(self):
        u = vqc.BLOCK_MAX_QUBITS
        theta = np.zeros(3 * u * 2)
        assert vqc._blocks(VqcModel(u, 2), theta) is not None
        assert vqc._blocks(VqcModel(u, 2), np.tile(theta, (3, 1))) is None
        assert vqc._blocks(VqcModel(u + 1, 1), np.zeros(3 * (u + 1))) is None
        # one layer more than BLOCK_MAX_AMPS holds of 4^U entries each
        depth = vqc.BLOCK_MAX_AMPS // 4 ** u + 1
        assert vqc._blocks(VqcModel(u, depth),
                           np.zeros(3 * u * depth)) is None

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


class TestLayerRotations:
    """_layer_rotations, the one statement of a layer's rotations, and the
    per-gate un-apply by its conjugate transpose."""

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 1)])
    def test_matches_gate_matrix_product(self, shape):
        # (3, U) one layer, (L, 3, U) layers, (S, 3, U) sets, and the
        # block build's (L, 1, 3, U)
        rng = np.random.default_rng(65)
        u = 3
        angles = rng.uniform(-2 * np.pi, 2 * np.pi, shape + (3, u))
        rs = vqc._layer_rotations(angles)
        assert rs.shape == (2, 2, u) + shape
        for index in np.ndindex(shape):
            for w in range(u):
                alpha, beta, gamma = angles[index][:, w]
                want = (simcore.gate_matrix("RZ", gamma)
                        @ simcore.gate_matrix("RY", beta)
                        @ simcore.gate_matrix("RX", alpha))
                got = rs[(slice(None), slice(None), w) + index]
                assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_unapply_undoes_apply(self, num_qubits):
        u = num_qubits
        rng = np.random.default_rng(66 + u)
        amps = rng.normal(size=(3, 2 ** u)) + 1j * rng.normal(size=(3, 2 ** u))
        for entangler in ("chain", "ring"):
            pairs = vqc.entangler_pairs(u, entangler)
            angles = rng.uniform(-np.pi, np.pi, (3, u))
            there = vqc._apply_layers(amps, u, pairs, angles[None])
            back = vqc._unapply_layer(there, u, pairs, angles)
            assert np.max(np.abs(back - amps)) <= 1e-12


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

    @pytest.mark.parametrize("grad, too_large, shiftable", [
        (parameter_shift_grad, 1e17, 1e13),
        (finite_diff_grad, 1e13, 1e10),
    ], ids=["parameter-shift", "finite-diff"])
    def test_unshiftable_parameter_rejected(self, grad, too_large, shiftable,
                                            monkeypatch):
        # theta +/- shift rounds to theta, so the difference would read 0
        params = np.zeros(6)
        params[2] = shiftable
        model = VqcModel(2, 1, params)
        assert np.any(grad(model, 1, np.ones(2)) != 0)
        params[2] = too_large
        model.params = params
        monkeypatch.setattr(vqc, "run_circuit_batch", None)  # none may run
        with pytest.raises(ValueError) as raised:
            grad(model, 1, np.ones(2))
        assert str(raised.value).startswith(
            f"parameter 2 is {too_large:g}, too large to shift by")

    def test_broken_shift_hook_breaks_exactness(self, monkeypatch):
        rng = np.random.default_rng(8)
        model = random_model(rng)
        x = rng.normal(size=model.num_qubits)
        upstream = rng.normal(size=model.num_qubits)
        good = parameter_shift_grad(model, x, upstream)
        monkeypatch.setattr(vqc, "SHIFT", 1.0)
        bad = parameter_shift_grad(model, x, upstream)
        assert np.max(np.abs(good - bad)) > 1e-5


    def test_matches_frozen_values(self):
        model = VqcModel.random(2, 2, seed=1401, init_scale=np.pi,
                                entangler="ring")
        upstreams = np.array([[0.7, -1.3], [0.2, 0.9]])
        vectors = [[0.4, -1.1], [1.6, 0.3]]
        for got, want in [
            (vqc.grad_batch(model, upstreams, vectors, parameter_shift=True),
             FROZEN["ps_vectors"]),
            (vqc.grad_batch(model, upstreams, [2, 1], parameter_shift=True),
             FROZEN["ps_basis"]),
            (finite_diff_grad(model, vectors[0], upstreams[0]),
             FROZEN["fd_vector"]),
            (finite_diff_grad(model, 3, upstreams[1], h=1e-3),
             FROZEN["fd_basis"]),
        ]:
            assert np.max(np.abs(got - want)) <= 1e-12
        model = VqcModel.random(5, 2, seed=1402, init_scale=np.pi,
                                entangler="chain")
        rng = np.random.default_rng(1402)
        x, upstream = rng.normal(size=5), rng.normal(size=5)
        ps = parameter_shift_grad(model, x, upstream)
        assert np.max(np.abs(ps - FROZEN["ps_5"])) <= 1e-12
        fd = finite_diff_grad(model, x, upstream)
        assert np.max(np.abs(fd - FROZEN["fd_5"])) <= 1e-12

    @pytest.mark.parametrize("num_qubits,depth,n", [(1, 1, 1), (3, 2, 2),
                                                    (4, 3, 3)])
    def test_shifted_rows_one_batch_per_layer(self, num_qubits, depth, n,
                                              monkeypatch):
        batches, encoded = [], []

        def counted(model, thetas, observations,
                    original=vqc.run_circuit_batch):
            batches.append((len(thetas), len(observations)))
            return original(model, thetas, observations)

        def encoding(model, obs, original=vqc._input_states):
            encoded.append(len(obs))
            return original(model, obs)

        monkeypatch.setattr(vqc, "run_circuit_batch", counted)
        monkeypatch.setattr(vqc, "_input_states", encoding)
        u = num_qubits
        model = VqcModel.random(u, depth, seed=1420)
        observations = np.random.default_rng(1421).normal(size=(n, u))
        vqc.grad_batch(model, np.ones((n, u)), observations,
                       parameter_shift=True)
        # per layer: its 2 * 3U shifted sets on the n observations
        assert batches == [(2 * 3 * u, n)] * depth
        assert encoded == [n] * depth
        batches.clear()
        encoded.clear()
        finite_diff_grad(model, observations[0], np.ones(u))
        assert batches == [(2 * 3 * u, 1)] * depth
        assert encoded == [1] * depth

    def test_parameter_shift_rejects_psi(self):
        model = VqcModel.random(2, 1, seed=1422)
        psi = vqc.output_states(model, [1])
        with pytest.raises(ValueError, match="psi"):
            vqc.grad_batch(model, np.ones((1, 2)), [1], parameter_shift=True,
                           psi=psi)


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

    @staticmethod
    def per_layer_sweep(model, upstreams, observations):
        """The reverse sweep with one _layer_derivatives call per layer,
        each at the (psi, lambda) pair of that layer's end."""
        u, theta = model.num_qubits, model.params
        psi = vqc.output_states(model, observations)
        pair = np.stack([psi, psi * (upstreams @ simcore.z_signs(u))])
        grads = np.empty((len(psi), theta.size))
        angles, blocks = vqc.layer_view(theta, u), vqc._blocks(model, theta)
        for layer in reversed(range(model.depth)):
            vqc.layer_view(grads, u)[:, layer] = vqc._layer_derivatives(
                pair[:, None], u, angles[layer:layer + 1])[0]
            if blocks is not None:
                pair = pair @ blocks[0][layer].conj().T
            else:
                pair = vqc._unapply_layer(
                    pair, u, vqc.entangler_pairs(u, model.entangler),
                    angles[layer])
        return grads

    def test_one_call_matches_per_layer_sweep(self, engine_path):
        rng = np.random.default_rng(24)
        cases = list(itertools.product(
            range(1, 6), range(4), ("chain", "ring"), (0, 1, 5)))
        # stacks whose (L, n, 2^U) halves reach 256 KiB, the size from which
        # NumPy may compute a product in place of a temporary operand
        cases += [(4, 2, "ring", 512), (6, 2, "ring", 128)]
        for u, depth, entangler, n in cases:
            model = VqcModel(u, depth,
                             rng.uniform(-np.pi, np.pi, 3 * u * depth),
                             entangler=entangler)
            upstreams = rng.normal(size=(n, u))
            for observations in (rng.integers(0, 2 ** u, n),
                                 rng.normal(size=(n, u))):
                got = vqc.grad_batch(model, upstreams, observations)
                want = self.per_layer_sweep(model, upstreams, observations)
                assert got.shape == want.shape == (n, 3 * u * depth)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_one_derivative_call_per_gradient(self, depth, engine_path,
                                              monkeypatch):
        stacks = []

        def counted(ends, num_qubits, angles,
                    original=vqc._layer_derivatives):
            stacks.append(ends.shape)
            return original(ends, num_qubits, angles)

        monkeypatch.setattr(vqc, "_layer_derivatives", counted)
        model = VqcModel.random(3, depth, seed=25)
        vqc.grad_batch(model, np.ones((4, 3)), [0, 1, 2, 7])
        assert stacks == [(2, depth, 4, 8)]

    @pytest.mark.parametrize("shape", [(1, 16), (3, 8), (2, 3, 16), (2,)])
    def test_bad_psi_rejected(self, shape):
        model = VqcModel.random(4, 2, seed=26)
        with pytest.raises(ValueError, match=r"expected psi of shape "
                                             r"\(2, 16\)"):
            vqc.grad_batch(model, np.ones((2, 4)), [0, 1],
                           psi=np.zeros(shape, complex))


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
        (lambda: VqcModel.random(3, 2, seed=0, init_scale=1e308),
         "init_scale must lie in"),
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
