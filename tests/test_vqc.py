import json
import math

import numpy as np
import pytest

from vqlab import simcore, vqc
from vqlab.vqc import (EncodingSpec, MeasurementConfig, ModelFormatError,
                       VqcModel, basis_encode, deserialize_model, encode,
                       finite_diff_grad, forward, parameter_shift_grad, phi,
                       pqc_apply, serialize_model)

SIGMOID = EncodingSpec("sigmoid")


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

    def test_basis_encode(self):
        assert np.array_equal(basis_encode(5, 3).amps,
                              simcore.basis_state(3, 5).amps)
        assert np.array_equal(basis_encode(0, 4).amps,
                              simcore.zero_state(4).amps)
        with pytest.raises(ValueError):
            basis_encode(16, 4)


class TestPqcApply:
    def test_single_qubit_has_no_entangler(self):
        model = VqcModel(1, 1, [0.0, 0.3, 0.0])
        state = pqc_apply(simcore.zero_state(1), model, 0)
        assert abs(simcore.expectation_z(state, 0) - math.cos(0.3)) <= 1e-12

    def test_zero_angles_chain_fixes_00(self):
        model = VqcModel(2, 1, np.zeros(6), entangler="chain")
        state = pqc_apply(simcore.zero_state(2), model, 0)
        assert np.allclose(state.amps, simcore.zero_state(2).amps)

    def test_zero_angles_chain_flips_target_of_10(self):
        model = VqcModel(2, 1, np.zeros(6), entangler="chain")
        state = pqc_apply(simcore.basis_state(2, 2), model, 0)
        assert np.allclose(state.amps, simcore.basis_state(2, 3).amps)

    def test_layer_index_range(self):
        model = VqcModel(2, 1, np.zeros(6))
        with pytest.raises(ValueError):
            pqc_apply(simcore.zero_state(2), model, 1)

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

    def test_shots_mode_matches_analytic(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, max_qubits=3)
        x = rng.normal(size=model.num_qubits)
        exact = forward(model, x)
        inside = 0
        for seed in range(100):
            sampled = forward(model, x,
                              MeasurementConfig("shots", 10_000, seed))
            inside += int(np.max(np.abs(sampled - exact)) <= 0.05)
        assert inside >= 99

    def test_shots_mode_reproducible(self):
        model = VqcModel(2, 0)
        cfg = MeasurementConfig("shots", 50, seed=9)
        assert np.array_equal(forward(model, np.ones(2), cfg),
                              forward(model, np.ones(2), cfg))

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
                inputs = {"basis_indices": rng.integers(0, 2 ** u, n)}
            else:
                inputs = {"enc_angles": vqc.encoding_angles(
                    rng.normal(size=(n, u)), SIGMOID)}
            flat = vqc.run_circuit_batch(model, model.params, **inputs)
            tiled = vqc.run_circuit_batch(
                model, np.tile(model.params, (n, 1)), **inputs)
            assert flat.shape == tiled.shape == (n, u)
            assert np.max(np.abs(flat - tiled)) <= 1e-12


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
        gamma_block = grad[3 * u * (model.depth - 1) + 2 * u:]
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

    def test_shots_mode_unsupported(self):
        model = VqcModel(1, 1)
        with pytest.raises(ValueError):
            parameter_shift_grad(model, np.zeros(1), np.ones(1),
                                 MeasurementConfig("shots", 10, 0))

    def test_finite_diff_h_range(self):
        model = VqcModel(1, 1)
        with pytest.raises(ValueError):
            finite_diff_grad(model, np.zeros(1), np.ones(1), h=0.5)
        with pytest.raises(ValueError):
            finite_diff_grad(model, np.zeros(1), np.ones(1), h=1e-8)

    def test_broken_shift_hook_breaks_exactness(self):
        rng = np.random.default_rng(8)
        model = random_model(rng)
        x = rng.normal(size=model.num_qubits)
        upstream = rng.normal(size=model.num_qubits)
        good = parameter_shift_grad(model, x, upstream)
        bad = parameter_shift_grad(model, x, upstream, shift=1.0)
        assert np.max(np.abs(good - bad)) > 1e-5


class TestAdjointGradients:
    """grad_batch's default adjoint path against the parameter-shift batch."""

    def test_matches_parameter_shift(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for trial in range(120):
            u = int(rng.integers(1, 6))
            depth = int(rng.integers(0, 4))
            params = rng.uniform(-np.pi, np.pi, 3 * u * depth)
            model = VqcModel(u, depth, params,
                             entangler=("chain", "ring")[trial % 2])
            n = int(rng.integers(2, 9))
            upstreams = rng.normal(size=(n, u))
            if trial % 4 < 2:
                inputs = {"basis_indices": rng.integers(0, 2 ** u, n)}
            else:
                inputs = {"enc_angles": np.stack(
                    [vqc.encoding_angles(x, SIGMOID)
                     for x in rng.normal(size=(n, u))])}
            adjoint = vqc.grad_batch(model, upstreams, **inputs)
            shifted = vqc.grad_batch(model, upstreams, **inputs,
                                     shift=vqc.SHIFT)
            assert adjoint.shape == shifted.shape == (n, model.num_params)
            if adjoint.size:
                worst = max(worst, float(np.max(np.abs(adjoint - shifted))))
        assert worst <= 1e-12

    def test_depth_zero_has_no_columns(self):
        model = VqcModel(3, 0)
        grads = vqc.grad_batch(model, np.ones((5, 3)),
                               basis_indices=np.arange(5))
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

    def test_near_identity_initialization(self):
        model = VqcModel.random(3, 2, seed=0)
        assert np.max(np.abs(model.params)) < np.pi / 100


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

    def test_version_mismatch(self):
        doc = json.loads(serialize_model(VqcModel(2, 1)))
        doc["schema"] = "vqc-v0"
        with pytest.raises(ModelFormatError, match="schema"):
            deserialize_model(json.dumps(doc))

    def test_malformed_json_reports_location(self):
        with pytest.raises(ModelFormatError, match="line"):
            deserialize_model("{not json")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_params_rejected(self, bad):
        doc = json.loads(serialize_model(VqcModel(2, 1)))
        doc["params"][2] = bad
        with pytest.raises(ModelFormatError, match="finite"):
            deserialize_model(json.dumps(doc))
