import math

import numpy as np
import pytest

from vqlab import simcore
from vqlab.simcore import (GateOp, ResourceLimitError, apply_gate, basis_state,
                           dense_apply_oracle, embed_gate, expectation_z,
                           gate_matrix, sample_z_mean, zero_state)

ALL_KINDS = simcore.FIXED_KINDS + simcore.ROTATION_KINDS
ROTATION_KINDS = simcore.ROTATION_KINDS


def random_gate(rng, num_qubits):
    kind = rng.choice(ALL_KINDS)
    if kind in simcore.TWO_QUBIT_KINDS:
        wires = tuple(rng.choice(num_qubits, size=2, replace=False))
    else:
        wires = (int(rng.integers(num_qubits)),)
    angle = float(rng.uniform(-2 * np.pi, 2 * np.pi)) \
        if kind in simcore.ROTATION_KINDS else None
    return GateOp(kind, wires, angle)


class TestStatePreparation:
    def test_zero_state_one_qubit(self):
        assert np.array_equal(zero_state(1).amps, [1, 0])

    def test_zero_state_two_qubits(self):
        assert np.array_equal(zero_state(2).amps, [1, 0, 0, 0])

    def test_zero_state_cap(self):
        with pytest.raises(ResourceLimitError, match="2\\^25"):
            zero_state(25)

    def test_basis_state(self):
        state = basis_state(2, 3)
        assert np.array_equal(state.amps, [0, 0, 0, 1])

    def test_basis_state_zero_matches_zero_state(self):
        assert np.array_equal(basis_state(2, 0).amps, zero_state(2).amps)

    def test_basis_state_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(2, 4)
        with pytest.raises(ValueError):
            basis_state(2, -1)

    @pytest.mark.parametrize("num_qubits, amps, named", [
        (1, [1, 0, 0], "expected 2 amplitudes"),
        (1, [math.nan, 0], "finite"),
        (0, [1], "num_qubits"),
    ])
    def test_statevector_checked(self, num_qubits, amps, named):
        with pytest.raises(ValueError, match=named):
            simcore.Statevector(num_qubits, np.array(amps))


class TestGateMatrix:
    def test_cz_is_diagonal(self):
        assert np.array_equal(gate_matrix("CZ"), np.diag([1, 1, 1, -1]))

    def test_zero_rotation_is_identity(self):
        for kind in ("RX", "RY", "RZ"):
            assert np.allclose(gate_matrix(kind, 0.0), np.eye(2))

    def test_ry_pi(self):
        # cos(pi/2) I - i sin(pi/2) Y = [[0, -1], [1, 0]]
        assert np.allclose(gate_matrix("RY", math.pi), [[0, -1], [1, 0]],
                           atol=1e-15)

    def test_paper_x_y_z(self):
        assert np.array_equal(gate_matrix("X"), [[0, 1], [1, 0]])
        assert np.array_equal(gate_matrix("Y"), [[0, -1j], [1j, 0]])
        assert np.array_equal(gate_matrix("Z"), [[1, 0], [0, -1]])

    def test_cnot(self):
        expect = np.eye(4)[[0, 1, 3, 2]]
        assert np.array_equal(gate_matrix("CNOT"), expect)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unitarity(self, kind):
        angle = 0.7 if kind in simcore.ROTATION_KINDS else None
        mat = gate_matrix(kind, angle)
        assert np.allclose(mat @ mat.conj().T, np.eye(mat.shape[0]),
                           atol=1e-14)

    def test_angle_usage_errors(self):
        with pytest.raises(ValueError):
            gate_matrix("RX")
        with pytest.raises(ValueError):
            gate_matrix("X", 0.5)
        with pytest.raises(ValueError):
            gate_matrix("CNOT", 0.5)
        with pytest.raises(ValueError, match="CZ takes no angle"):
            gate_matrix("CZ", 0.1)
        with pytest.raises(ValueError, match="unknown gate kind 'H'"):
            gate_matrix("H")


class TestGateOpValidation:
    def test_wire_count(self):
        with pytest.raises(ValueError):
            GateOp("CNOT", (0,))
        with pytest.raises(ValueError):
            GateOp("X", (0, 1))

    def test_distinct_wires(self):
        with pytest.raises(ValueError):
            GateOp("CNOT", (1, 1))

    def test_angle_presence(self):
        with pytest.raises(ValueError):
            GateOp("RY", (0,))
        with pytest.raises(ValueError):
            GateOp("Z", (0,), 0.1)
        with pytest.raises(ValueError, match="finite"):
            GateOp("RY", (0,), math.inf)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind 'H'"):
            GateOp("H", (0,))


class TestApplyGate:
    def test_x_flips(self):
        state = apply_gate(zero_state(1), GateOp("X", (0,)))
        assert np.allclose(state.amps, [0, 1])

    def test_cnot_on_10(self):
        state = apply_gate(basis_state(2, 2), GateOp("CNOT", (0, 1)))
        assert np.allclose(state.amps, basis_state(2, 3).amps)

    def test_cz_on_11(self):
        state = apply_gate(basis_state(2, 3), GateOp("CZ", (0, 1)))
        assert np.allclose(state.amps, [0, 0, 0, -1])

    def test_wire_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), GateOp("X", (2,)))

    def test_input_not_mutated(self):
        state = zero_state(1)
        apply_gate(state, GateOp("X", (0,)))
        assert np.array_equal(state.amps, [1, 0])

    @pytest.mark.parametrize("kind", ["X", "Y", "Z"])
    def test_pauli_involutions(self, kind):
        rng = np.random.default_rng(11)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = simcore.Statevector(3, amps)
        gate = GateOp(kind, (1,))
        twice = apply_gate(apply_gate(state, gate), gate)
        assert np.allclose(twice.amps, amps, atol=1e-12)

    @pytest.mark.parametrize("kind", ["CNOT", "CZ"])
    def test_two_qubit_self_inverse(self, kind):
        rng = np.random.default_rng(12)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = simcore.Statevector(3, amps)
        gate = GateOp(kind, (2, 0))
        twice = apply_gate(apply_gate(state, gate), gate)
        assert np.allclose(twice.amps, amps, atol=1e-12)

    def test_norm_preserved_over_random_sequence(self):
        rng = np.random.default_rng(3)
        state = zero_state(6)
        for _ in range(1000):
            state = apply_gate(state, random_gate(rng, 6))
        assert abs(state.norm_sq() - 1.0) <= 1e-9

    def test_ry_readout_is_cosine(self):
        rng = np.random.default_rng(4)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=100):
            state = apply_gate(zero_state(1), GateOp("RY", (0,), float(theta)))
            assert abs(expectation_z(state, 0) - math.cos(theta)) <= 1e-12


class TestDenseOracle:
    def test_identity(self):
        state = basis_state(2, 2)
        out = dense_apply_oracle(state, np.eye(4))
        assert np.array_equal(out.amps, state.amps)

    def test_x_tensor_identity(self):
        full = np.kron(gate_matrix("X"), np.eye(2))
        out = dense_apply_oracle(zero_state(2), full)
        assert np.allclose(out.amps, basis_state(2, 2).amps)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dense_apply_oracle(zero_state(2), np.eye(8))

    def test_qubit_cap(self):
        with pytest.raises(ResourceLimitError):
            dense_apply_oracle(zero_state(11), np.eye(2 ** 11))

    def test_random_circuit_agrees_with_fast_path(self):
        rng = np.random.default_rng(5)
        fast = zero_state(2)
        slow = zero_state(2)
        for _ in range(40):
            gate = random_gate(rng, 2)
            fast = apply_gate(fast, gate)
            slow = dense_apply_oracle(slow, embed_gate(gate, 2))
        assert np.max(np.abs(fast.amps - slow.amps)) <= 1e-12

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_every_kind_on_every_basis_state(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        gates = []
        for kind in simcore.FIXED_KINDS:
            if kind in simcore.TWO_QUBIT_KINDS and num_qubits < 2:
                continue
            wires = (0,) if kind not in simcore.TWO_QUBIT_KINDS \
                else (0, num_qubits - 1)
            gates.append(GateOp(kind, wires))
        for kind in simcore.ROTATION_KINDS:
            for angle in rng.uniform(-2 * np.pi, 2 * np.pi, size=10):
                wire = int(rng.integers(num_qubits))
                gates.append(GateOp(kind, (wire,), float(angle)))
        for gate in gates:
            full = embed_gate(gate, num_qubits)
            for index in range(2 ** num_qubits):
                state = basis_state(num_qubits, index)
                fast = apply_gate(state, gate)
                slow = dense_apply_oracle(state, full)
                assert np.max(np.abs(fast.amps - slow.amps)) <= 1e-12


class TestMeasurement:
    def test_z_eigenstates(self):
        assert expectation_z(zero_state(1), 0) == 1.0
        one = apply_gate(zero_state(1), GateOp("X", (0,)))
        assert expectation_z(one, 0) == -1.0

    def test_plus_state_is_balanced(self):
        plus = apply_gate(zero_state(1), GateOp("RY", (0,), math.pi / 2))
        assert abs(expectation_z(plus, 0)) <= 1e-12

    def test_wire_validation(self):
        with pytest.raises(ValueError):
            expectation_z(zero_state(2), 2)

    def test_sampling_deterministic_outcomes(self):
        rng = np.random.default_rng(0)
        assert sample_z_mean(zero_state(1), 0, 17, rng) == 1.0
        one = apply_gate(zero_state(1), GateOp("X", (0,)))
        assert sample_z_mean(one, 0, 17, rng) == -1.0

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_z_mean(zero_state(1), 0, 0, np.random.default_rng(0))

    def test_sampling_reproducible_per_seed(self):
        plus = apply_gate(zero_state(1), GateOp("RY", (0,), math.pi / 2))
        a = sample_z_mean(plus, 0, 100, np.random.default_rng(42))
        b = sample_z_mean(plus, 0, 100, np.random.default_rng(42))
        assert a == b

    def test_plus_state_sample_concentration(self):
        # binomial std at M=10000 is 0.01; 0.05 is a 5-sigma band
        plus = apply_gate(zero_state(1), GateOp("RY", (0,), math.pi / 2))
        inside = sum(
            abs(sample_z_mean(plus, 0, 10_000, np.random.default_rng(seed)))
            <= 0.05
            for seed in range(100))
        assert inside >= 99

    def test_shot_noise_scaling(self):
        plus = apply_gate(zero_state(1), GateOp("RY", (0,), math.pi / 2))
        small = [sample_z_mean(plus, 0, 100, np.random.default_rng(s))
                 for s in range(200)]
        large = [sample_z_mean(plus, 0, 10_000, np.random.default_rng(s))
                 for s in range(200)]
        ratio = np.std(small) / np.std(large)
        assert 7 <= ratio <= 13


def _dense_rotations(kinds, angles, wire, num_qubits):
    """Product of embed_gate matrices for rotations applied in order."""
    full = np.eye(2 ** num_qubits, dtype=np.complex128)
    for kind, angle in zip(kinds, angles):
        gate = GateOp(kind, (wire,), float(angle))
        full = embed_gate(gate, num_qubits) @ full
    return full


def _random_amps(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.fixture(params=["gather", "strided"])
def kernel_form(request, monkeypatch):
    """Runs a test under each of apply_rotation_batch's two forms."""
    if request.param == "strided":
        monkeypatch.setattr(simcore, "GATHER_MAX_AMPS", 0)
    return request.param


class TestFusedRotation:
    """A tuple of kinds against sequential single-kind calls and the
    dense oracle, on every wire, to 1e-12."""

    KINDS = ("RX", "RY", "RZ")

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
    def test_shared_and_per_row_angles(self, num_qubits, kernel_form):
        rng = np.random.default_rng(40 + num_qubits)
        batch = 3
        amps = _random_amps(rng, (batch, 2 ** num_qubits))
        for wire in range(num_qubits):
            shared = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
            rows = rng.uniform(-2 * np.pi, 2 * np.pi, (batch, 3))
            for theta in (shared, rows):
                fused = simcore.apply_rotation_batch(amps, num_qubits, wire,
                                                     self.KINDS, theta)
                seq = amps
                for j, kind in enumerate(self.KINDS):
                    seq = simcore.apply_rotation_batch(seq, num_qubits, wire,
                                                       kind, theta[..., j])
                row_angles = np.broadcast_to(theta, (batch, 3))
                dense = np.stack([
                    _dense_rotations(self.KINDS, row_angles[b], wire,
                                     num_qubits) @ amps[b]
                    for b in range(batch)])
                assert np.max(np.abs(fused - seq)) <= 1e-12
                assert np.max(np.abs(fused - dense)) <= 1e-12

    @pytest.mark.parametrize("kind", ROTATION_KINDS)
    def test_single_kind_scalar_and_per_row(self, kind, kernel_form):
        rng = np.random.default_rng(50)
        amps = _random_amps(rng, (4, 8))
        for wire in range(3):
            scalar = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            rows = rng.uniform(-2 * np.pi, 2 * np.pi, 4)
            got = simcore.apply_rotation_batch(amps, 3, wire, kind, scalar)
            want = amps @ _dense_rotations((kind,), [scalar], wire, 3).T
            assert np.max(np.abs(got - want)) <= 1e-12
            got = simcore.apply_rotation_batch(amps, 3, wire, kind, rows)
            want = np.stack([_dense_rotations((kind,), [rows[b]], wire, 3)
                             @ amps[b] for b in range(4)])
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_pair_shaped_input(self, kernel_form):
        # (2, n, 2^U): the adjoint pass's stacked psi and lambda
        rng = np.random.default_rng(51)
        pair = _random_amps(rng, (2, 5, 16))
        kinds = ("RZ", "RY", "RX")
        for wire in range(4):
            shared = rng.uniform(-np.pi, np.pi, 3)
            rows = rng.uniform(-np.pi, np.pi, (5, 3))
            for theta in (shared, rows):
                got = simcore.apply_rotation_batch(pair, 4, wire, kinds, theta)
                angles = np.broadcast_to(theta, (5, 3))
                for half in range(2):
                    want = np.stack([
                        _dense_rotations(kinds, angles[b], wire, 4)
                        @ pair[half, b] for b in range(5)])
                    assert np.max(np.abs(got[half] - want)) <= 1e-12

    def test_angle_count_checked(self):
        amps = zero_state(2).amps[None, :]
        with pytest.raises(ValueError):
            simcore.apply_rotation_batch(amps, 2, 0, ("RX", "RY"), [0.1])
        with pytest.raises(ValueError):
            simcore.apply_rotation_batch(amps, 2, 0, ("RX", "RY"), 0.1)
        with pytest.raises(ValueError):
            simcore.apply_rotation_batch(amps, 2, 0, ("RX", "X"), [0.1, 0.2])


class TestExpectZSequence:
    def test_matches_per_wire_calls(self):
        rng = np.random.default_rng(52)
        for num_qubits in range(1, 6):
            amps = _random_amps(rng, (7, 2 ** num_qubits))
            wires = list(rng.permutation(num_qubits))
            together = simcore.expect_z_batch(amps, num_qubits, wires)
            assert together.shape == (7, num_qubits)
            for j, wire in enumerate(wires):
                alone = simcore.expect_z_batch(amps, num_qubits, int(wire))
                assert alone.shape == (7,)
                assert np.max(np.abs(together[:, j] - alone)) <= 1e-12


class TestKernelsLeaveInputsAlone:
    """Kernels return new arrays: neither the input nor a cached table may
    change, also when the caller then writes into the result."""

    def _calls(self):
        rng = np.random.default_rng(53)
        rows = rng.uniform(-np.pi, np.pi, (3, 3))
        return [
            lambda a: simcore.apply_x_batch(a, 3, 1),
            lambda a: simcore.apply_y_batch(a, 3, 1),
            lambda a: simcore.apply_z_batch(a, 3, 1),
            lambda a: simcore.apply_cnot_batch(a, 3, 0, 2),
            lambda a: simcore.apply_cz_batch(a, 3, 2, 0),
            lambda a: simcore.apply_rotation_batch(a, 3, 1, "RX", 0.4),
            lambda a: simcore.apply_rotation_batch(a, 3, 1, "RY", rows[:, 0]),
            lambda a: simcore.apply_rotation_batch(a, 3, 2, ("RX", "RY", "RZ"),
                                                   rows[0]),
            lambda a: simcore.apply_rotation_batch(a, 3, 0, ("RZ", "RX"),
                                                   rows[:, :2]),
            lambda a: simcore.expect_z_batch(a, 3, 1),
            lambda a: simcore.expect_z_batch(a, 3, [2, 0]),
        ]

    def test_input_and_tables_unchanged(self, kernel_form):
        rng = np.random.default_rng(54)
        amps = _random_amps(rng, (3, 8))
        for call in self._calls():
            before = amps.copy()
            first = call(amps)
            assert np.array_equal(amps, before)
            assert not np.shares_memory(first, amps)
            first[...] = 7.0  # a write into the result reaches nothing else
            assert np.array_equal(amps, before)
            assert np.array_equal(call(amps), call(before))
        for table in (simcore._flip_index(3, 1), simcore._flip_index(3, 2, 0),
                      simcore._bit_table(3, (1,)),
                      simcore._bit_table(3, (2, 0))):
            assert not table.flags.writeable
        idx = np.arange(8)
        assert np.array_equal(simcore._flip_index(3, 1), idx ^ 2)
        assert np.array_equal(simcore._flip_index(3, 2, 0),
                              np.where(idx & 4, idx ^ 1, idx))
        assert np.array_equal(simcore._bit_table(3, (2, 0)),
                              [(idx & 1) != 0, (idx & 4) != 0])
