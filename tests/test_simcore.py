import functools
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


@pytest.mark.parametrize("kind, angle, message", [
    ("H", None, "unknown gate kind 'H'"),
    ("H", 0.5, "unknown gate kind 'H'"),
    ("RX", None, "RX requires an angle"),
    ("RY", math.nan, "RY angle must be finite"),
    ("RY", math.inf, "RY angle must be finite"),
    ("RZ", -math.inf, "RZ angle must be finite"),
    ("X", 0.5, "X takes no angle"),
    ("Z", math.nan, "Z takes no angle"),
    ("CNOT", 0.5, "CNOT takes no angle"),
    ("CZ", 0.1, "CZ takes no angle"),
])
def test_gate_op_and_matrix_share_one_rule(kind, angle, message):
    wires = (0, 1) if kind in simcore.TWO_QUBIT_KINDS else (0,)
    for build in (lambda: GateOp(kind, wires, angle),
                  lambda: gate_matrix(kind, angle)):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


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

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
    def test_one_qubit_embedding_is_kron(self, num_qubits):
        u = num_qubits
        for kind in ALL_KINDS:
            if kind in simcore.TWO_QUBIT_KINDS:
                continue
            angle = 0.9 if kind in simcore.ROTATION_KINDS else None
            for w in range(u):
                want = functools.reduce(np.kron, [
                    np.eye(2 ** w), gate_matrix(kind, angle),
                    np.eye(2 ** (u - w - 1))])
                got = embed_gate(GateOp(kind, (w,), angle), u)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
    def test_every_kind_on_every_basis_state(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        gates = []
        for kind in simcore.FIXED_KINDS:
            if kind not in simcore.TWO_QUBIT_KINDS:
                gates.append(GateOp(kind, (0,)))
            elif num_qubits >= 2:
                gates += [GateOp(kind, (0, num_qubits - 1)),
                          GateOp(kind, (num_qubits - 1, 0))]
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


def _on_wire(theta, wire, num_qubits):
    """(..., k) angles as (..., k, U) every-wire angles, zero off ``wire``."""
    theta = np.asarray(theta, dtype=np.float64)
    out = np.zeros(theta.shape + (num_qubits,))
    out[..., wire] = theta
    return out


def _composed(kinds, angles):
    """The (2, 2, U, B...) matrices apply_rotation_batch takes for ``kinds``
    applied in order at (B..., k, U) ``angles``: per wire and row, the
    product of their gate_matrix entries (the identity at angle 0)."""
    angles = np.asarray(angles, dtype=np.float64)
    rows, u = angles.shape[:-2], angles.shape[-1]
    rs = np.empty((2, 2, u) + rows, complex)
    for row in np.ndindex(rows):
        for w in range(u):
            r = np.eye(2)
            for kind, angle in zip(kinds, angles[row][:, w]):
                r = gate_matrix(kind, float(angle)) @ r
            rs[(slice(None), slice(None), w) + row] = r
    return rs


def _kron_reference(rs, amps):
    """Each row of ``amps`` times the Kronecker product of the U matrices
    of (2, 2, U) ``rs``, or of (2, 2, U, B) ``rs``'s column for that row."""
    if rs.ndim == 3:
        rs = np.broadcast_to(rs[..., None], rs.shape + (len(amps),))
    return np.stack([
        functools.reduce(np.kron, [rs[:, :, w, b] for w in range(rs.shape[2])])
        @ amps[b] for b in range(len(amps))])


def _random_matrices(rng, shape):
    """(2, 2) + ``shape`` complex matrices that keep a state's norm on
    average, so a product over many wires stays near 1."""
    return _random_amps(rng, (2, 2) + shape) / 2


def _gate_by_gate(gates, num_qubits, amps):
    """Gates applied in order to the state ``amps`` through apply_gate."""
    state = simcore.Statevector(num_qubits, amps)
    for gate in gates:
        state = apply_gate(state, gate)
    return state.amps


class TestFusedRotation:
    """One wire's matrix (the identity on every other wire) against
    apply_gate, the dense oracle and the Kronecker reference, on every
    wire, to 1e-12."""

    KINDS = ("RX", "RY", "RZ")

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
    def test_shared_and_per_row_angles(self, num_qubits):
        rng = np.random.default_rng(40 + num_qubits)
        batch = 3
        amps = _random_amps(rng, (batch, 2 ** num_qubits))
        for wire in range(num_qubits):
            shared = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
            rows = rng.uniform(-2 * np.pi, 2 * np.pi, (batch, 3))
            for theta in (shared, rows):
                rs = _composed(self.KINDS, _on_wire(theta, wire, num_qubits))
                fused = simcore.apply_rotation_batch(amps, num_qubits, rs)
                row_angles = np.broadcast_to(theta, (batch, 3))
                seq = np.stack([_gate_by_gate(
                    [GateOp(kind, (wire,), float(angle))
                     for kind, angle in zip(self.KINDS, row_angles[b])],
                    num_qubits, amps[b]) for b in range(batch)])
                dense = np.stack([
                    _dense_rotations(self.KINDS, row_angles[b], wire,
                                     num_qubits) @ amps[b]
                    for b in range(batch)])
                assert np.max(np.abs(fused - seq)) <= 1e-12
                assert np.max(np.abs(fused - dense)) <= 1e-12
            # any complex 2x2 matrix on the wire, shared and per row
            for shape in ((), (batch,)):
                rs = np.zeros((2, 2, num_qubits) + shape, complex)
                rs[0, 0] = rs[1, 1] = 1.0
                rs[:, :, wire] = _random_matrices(rng, shape)
                got = simcore.apply_rotation_batch(amps, num_qubits, rs)
                assert np.max(np.abs(got - _kron_reference(rs, amps))) \
                    <= 1e-12

    @pytest.mark.parametrize("kind", ROTATION_KINDS)
    def test_single_kind_scalar_and_per_row(self, kind):
        rng = np.random.default_rng(50)
        amps = _random_amps(rng, (4, 8))
        for wire in range(3):
            scalar = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            rows = rng.uniform(-2 * np.pi, 2 * np.pi, 4)
            got = simcore.apply_rotation_batch(
                amps, 3, _composed((kind,), _on_wire([scalar], wire, 3)))
            want = amps @ _dense_rotations((kind,), [scalar], wire, 3).T
            assert np.max(np.abs(got - want)) <= 1e-12
            got = simcore.apply_rotation_batch(
                amps, 3, _composed((kind,), _on_wire(rows[:, None], wire, 3)))
            want = np.stack([_dense_rotations((kind,), [rows[b]], wire, 3)
                             @ amps[b] for b in range(4)])
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_pair_shaped_input(self):
        # (2, n, 2^U): the adjoint pass's stacked psi and lambda
        rng = np.random.default_rng(51)
        pair = _random_amps(rng, (2, 5, 16))
        kinds = ("RZ", "RY", "RX")
        for wire in range(4):
            shared = rng.uniform(-np.pi, np.pi, 3)
            rows = rng.uniform(-np.pi, np.pi, (5, 3))
            for theta in (shared, rows):
                got = simcore.apply_rotation_batch(
                    pair, 4, _composed(kinds, _on_wire(theta, wire, 4)))
                angles = np.broadcast_to(theta, (5, 3))
                for half in range(2):
                    want = np.stack([
                        _dense_rotations(kinds, angles[b], wire, 4)
                        @ pair[half, b] for b in range(5)])
                    assert np.max(np.abs(got[half] - want)) <= 1e-12

    def test_angle_count_checked(self):
        # one matrix per wire: neither fewer nor more
        amps = zero_state(2).amps[None, :]
        for rs in (np.zeros((2, 2, 1)), np.zeros((2, 2, 3)),
                   np.zeros((2, 2, 1, 1)), np.zeros((2, 2))):
            with pytest.raises(ValueError, match="2x2 matrix per wire"):
                simcore.apply_rotation_batch(amps, 2, rs)


def _dense_apply(gates, num_qubits, amps):
    """Gates applied in order to each row of ``amps`` through embed_gate."""
    for gate in gates:
        amps = amps @ embed_gate(gate, num_qubits).T
    return amps


class TestLayerKernels:
    """The composed-pairs CNOT call and the every-wire rotation call
    against sequential single-gate calls, the dense oracle and the
    Kronecker reference, to 1e-12."""

    KINDS = ("RX", "RY", "RZ")

    @pytest.mark.parametrize("num_qubits", range(1, 11))
    def test_cnot_pairs(self, num_qubits):
        u = num_qubits
        rng = np.random.default_rng(70 + u)
        amps = _random_amps(rng, (2, 2 ** u))
        for ring in (False, True):
            pairs = [(w, w + 1) for w in range(u - 1)]
            if ring and u >= 2:
                pairs.append((u - 1, 0))
            got = simcore.apply_cnot_batch(amps, u, pairs)
            seq = amps
            for pair in pairs:
                seq = simcore.apply_cnot_batch(seq, u, [pair])
            assert np.array_equal(got, seq)
            dense = _dense_apply([GateOp("CNOT", p) for p in pairs], u, amps)
            assert np.max(np.abs(got - dense)) <= 1e-12

    @pytest.mark.parametrize("num_qubits", range(1, 11))
    def test_rotations_on_every_wire(self, num_qubits):
        u = num_qubits
        rng = np.random.default_rng(80 + u)
        batch = 2
        amps = _random_amps(rng, (batch, 2 ** u))
        for rs in (_random_matrices(rng, (u,)),
                   _random_matrices(rng, (u, batch))):
            got = simcore.apply_rotation_batch(amps, u, rs)
            assert np.max(np.abs(got - _kron_reference(rs, amps))) <= 1e-12
        shared = rng.uniform(-2 * np.pi, 2 * np.pi, (3, u))
        rows = rng.uniform(-2 * np.pi, 2 * np.pi, (batch, 3, u))
        for theta in (shared, rows):
            got = simcore.apply_rotation_batch(
                amps, u, _composed(self.KINDS, theta))
            angles = np.broadcast_to(theta, (batch, 3, u))
            for b in range(batch):
                gates = [GateOp(kind, (w,), float(angles[b, k, w]))
                         for w in range(u)
                         for k, kind in enumerate(self.KINDS)]
                seq = _gate_by_gate(gates, u, amps[b])
                assert np.max(np.abs(got[b] - seq)) <= 1e-12
                dense = _dense_apply(gates, u, amps[b])
                assert np.max(np.abs(got[b] - dense)) <= 1e-12

    @pytest.mark.parametrize("num_qubits", [1, 3, 4, 6])
    def test_one_kind_on_every_wire(self, num_qubits):
        u = num_qubits
        rng = np.random.default_rng(90 + u)
        amps = _random_amps(rng, (3, 2 ** u))
        for kind in ROTATION_KINDS:
            for theta in (rng.uniform(-np.pi, np.pi, u),
                          rng.uniform(-np.pi, np.pi, (3, u))):
                got = simcore.apply_rotation_batch(
                    amps, u, _composed((kind,), theta[..., None, :]))
                angles = np.broadcast_to(theta, (3, u))
                seq = np.stack([_gate_by_gate(
                    [GateOp(kind, (w,), float(angles[b, w]))
                     for w in range(u)], u, amps[b]) for b in range(3)])
                assert np.max(np.abs(got - seq)) <= 1e-12

    @pytest.mark.parametrize("num_qubits", [3, 5])
    def test_pair_shaped_input(self, num_qubits):
        # (2, n, 2^U): the adjoint pass's stacked psi and lambda
        u = num_qubits
        rng = np.random.default_rng(100 + u)
        pair = _random_amps(rng, (2, 4, 2 ** u))
        for rs in (_random_matrices(rng, (u,)),
                   _random_matrices(rng, (u, 4))):
            got = simcore.apply_rotation_batch(pair, u, rs)
            for half in range(2):
                want = simcore.apply_rotation_batch(pair[half], u, rs)
                assert np.max(np.abs(got[half] - want)) <= 1e-12
        pairs = [(w, (w + 1) % u) for w in range(u)]
        got = simcore.apply_cnot_batch(pair, u, pairs)
        for half in range(2):
            want = simcore.apply_cnot_batch(pair[half], u, pairs)
            assert np.array_equal(got[half], want)

    @pytest.mark.parametrize("num_qubits", [1, 3, 4, 5, 9])
    def test_set_angles_broadcast_states(self, num_qubits):
        # (n, 1, 2^U) states at (2, 2, U, S) matrices: every set on every
        # state
        u = num_qubits
        rng = np.random.default_rng(120 + u)
        amps = _random_amps(rng, (3, 1, 2 ** u))
        rs = _random_matrices(rng, (u, 5))
        got = simcore.apply_rotation_batch(amps, u, rs)
        assert got.shape == (3, 5, 2 ** u)
        for s in range(5):
            shared = simcore.apply_rotation_batch(amps[:, 0], u, rs[..., s])
            assert np.max(np.abs(got[:, s] - shared)) <= 1e-12

    @pytest.mark.parametrize("num_qubits", [4, 12])
    def test_repeated_calls_are_bit_identical(self, num_qubits):
        u = num_qubits
        rng = np.random.default_rng(110 + u)
        amps = _random_amps(rng, (16, 2 ** u))
        for rs in (_random_matrices(rng, (u,)),
                   _random_matrices(rng, (u, 16))):
            first = simcore.apply_rotation_batch(amps, u, rs)
            for _ in range(3):
                again = simcore.apply_rotation_batch(amps, u, rs)
                assert np.array_equal(first, again)

    def test_empty_batch(self):
        for u in (1, 4, 5):
            amps = np.zeros((0, 2 ** u), complex)
            for rs in (np.zeros((2, 2, u)), np.zeros((2, 2, u, 0))):
                got = simcore.apply_rotation_batch(amps, u, rs)
                assert got.shape == (0, 2 ** u)
            pairs = [(w, (w + 1) % u) for w in range(u - 1)]
            assert simcore.apply_cnot_batch(amps, u, pairs).shape == amps.shape

    def test_wires_and_angles_checked(self):
        # the leading axes are a 2x2 matrix, then the U wires
        amps = zero_state(3).amps[None, :]
        for rs in (np.zeros(3), np.zeros((3, 2, 2)), np.zeros((2, 3, 3)),
                   np.zeros((3, 3, 3)), np.zeros((1, 2, 3)),
                   np.zeros((4, 2, 2, 3))):
            with pytest.raises(ValueError, match="2x2 matrix per wire"):
                simcore.apply_rotation_batch(amps, 3, rs)


class TestExpectZSequence:
    def test_matches_per_wire_calls(self):
        rng = np.random.default_rng(52)
        for num_qubits in range(1, 6):
            amps = _random_amps(rng, (7, 2 ** num_qubits))
            amps /= np.linalg.norm(amps, axis=1, keepdims=True)
            together = simcore.expect_z_batch(amps, num_qubits)
            assert together.shape == (7, num_qubits)
            for b in range(7):
                state = simcore.Statevector(num_qubits, amps[b])
                for wire in range(num_qubits):
                    alone = expectation_z(state, wire)
                    assert abs(together[b, wire] - alone) <= 1e-12


class TestKernelsLeaveInputsAlone:
    """Kernels return new arrays: neither the input nor a cached table may
    change, also when the caller then writes into the result."""

    def _calls(self):
        rng = np.random.default_rng(53)
        shared = _random_matrices(rng, (3,))
        rows = _random_matrices(rng, (3, 3))
        return [
            lambda a: simcore.apply_x_batch(a, 3, 1),
            lambda a: simcore.apply_cnot_batch(a, 3, [(0, 2)]),
            lambda a: simcore.apply_cnot_batch(a, 3, [(0, 1), (2, 0)]),
            lambda a: simcore.apply_rotation_batch(a, 3, shared),
            lambda a: simcore.apply_rotation_batch(a, 3, rows),
            lambda a: simcore.apply_rotation_batch(
                a, 3, rows.swapaxes(0, 1).conj()),
            lambda a: simcore.expect_z_batch(a, 3),
            lambda a: apply_gate(simcore.Statevector(3, a[1]),
                                 GateOp("RY", (1,), 0.4)).amps,
            lambda a: apply_gate(simcore.Statevector(3, a[1]),
                                 GateOp("CZ", (2, 0))).amps,
        ], (shared, rows)

    def test_input_and_tables_unchanged(self):
        rng = np.random.default_rng(54)
        amps = _random_amps(rng, (3, 8))
        calls, matrices = self._calls()
        matrices_before = [m.copy() for m in matrices]
        for call in calls:
            before = amps.copy()
            first = call(amps)
            assert np.array_equal(amps, before)
            assert not np.shares_memory(first, amps)
            first[...] = 7.0  # a write into the result reaches nothing else
            assert np.array_equal(amps, before)
            assert np.array_equal(call(amps), call(before))
        assert all(map(np.array_equal, matrices, matrices_before))
        for table in (simcore._flip_index(3, 1), simcore._flip_index(3, 2, 0),
                      simcore.z_signs(3),
                      simcore._cnot_index(3, ((0, 1), (2, 0)))):
            assert not table.flags.writeable
        idx = np.arange(8)
        assert np.array_equal(simcore._cnot_index(3, ((0, 1), (2, 0))),
                              simcore._flip_index(3, 1, 0)[
                                  simcore._flip_index(3, 0, 2)])
        assert np.array_equal(simcore._flip_index(3, 1), idx ^ 2)
        assert np.array_equal(simcore._flip_index(3, 2, 0),
                              np.where(idx & 4, idx ^ 1, idx))
        assert np.array_equal(simcore.z_signs(3),
                              [np.where(idx & 4, -1, 1),
                               np.where(idx & 2, -1, 1),
                               np.where(idx & 1, -1, 1)])
