"""Exact complex statevector simulation of a small gate set.

Supports X, Y, Z, RX, RY, RZ, CNOT and CZ on up to 24 qubits (double
precision, 2^24 amplitudes ~ 256 MiB).  Qubit ordering is big-endian:
qubit 0 is the most significant bit of the amplitude index, so on two
qubits index 2 (binary ``10``) means qubit 0 in |1> and qubit 1 in |0>.

A gate on its own (:func:`apply_gate`) is one contraction of its small
matrix with the gate's wire axes of the amplitudes, viewed as U axes of
size 2.  The circuit engine runs two layer kernels instead: a layer's
CNOTs as one composed permutation (:func:`apply_cnot_batch`), and one
2x2 matrix on every wire (:func:`apply_rotation_batch`), which knows no
gate kinds: the caller composes each wire's rotations into its matrix.
That kernel is one matmul per group of :data:`ROTATION_GROUP` adjacent
wires, by the Kronecker product of their matrices: at most 16x16, and so
the whole 2^U x 2^U layer for U <= 4.  (:mod:`vqlab.vqc` also holds dense
per-layer blocks for circuits of at most ``vqc.BLOCK_MAX_QUBITS`` qubits,
built by running these kernels on the identity.)  The Z readout
(:func:`expect_z_batch`) reads every wire at once.  A dense matrix-vector
oracle (:func:`dense_apply_oracle`, fed by :func:`embed_gate`) exists
purely for cross-checking the fast path in tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_QUBIT_CAP = 24
ORACLE_QUBIT_CAP = 10

# the fixed gates; rotation RP reads its Pauli P here
_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "CNOT": np.array([[1, 0, 0, 0],
                      [0, 1, 0, 0],
                      [0, 0, 0, 1],
                      [0, 0, 1, 0]], dtype=np.complex128),
    "CZ": np.diag([1, 1, 1, -1]).astype(np.complex128),
}

FIXED_KINDS = tuple(_MATRICES)
ROTATION_KINDS = ("RX", "RY", "RZ")
TWO_QUBIT_KINDS = ("CNOT", "CZ")


class ResourceLimitError(RuntimeError):
    """Raised when a request would exceed the configured qubit budget."""


def _check_kind(kind: str, angle: Optional[float]) -> None:
    """A known kind; a rotation takes a finite angle, a fixed gate none."""
    if kind in ROTATION_KINDS:
        if angle is None:
            raise ValueError(f"{kind} requires an angle")
        if not math.isfinite(angle):
            raise ValueError(f"{kind} angle must be finite")
    elif kind not in _MATRICES:
        raise ValueError(f"unknown gate kind {kind!r}")
    elif angle is not None:
        raise ValueError(f"{kind} takes no angle")


@dataclass(frozen=True)
class GateOp:
    """One gate application: kind, target wires, optional rotation angle.

    ``wires`` holds one index for single-qubit kinds and (control, target)
    for CNOT; CZ is symmetric so the pair order is irrelevant.
    """

    kind: str
    wires: tuple[int, ...]
    angle: Optional[float] = None

    def __post_init__(self):
        _check_kind(self.kind, self.angle)
        want = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.wires) != want:
            raise ValueError(
                f"{self.kind} takes {want} wire(s), got {len(self.wires)}")
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"{self.kind} wires must be distinct: {self.wires}")


@dataclass
class Statevector:
    """2^num_qubits complex amplitudes, big-endian wire order."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if self.amps.shape != (2 ** self.num_qubits,):
            raise ValueError(
                f"expected {2 ** self.num_qubits} amplitudes, "
                f"got shape {self.amps.shape}")
        if not np.all(np.isfinite(self.amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


def check_qubit_budget(num_qubits: int) -> None:
    """Reject a qubit count below 1 or above DEFAULT_QUBIT_CAP."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    if num_qubits > DEFAULT_QUBIT_CAP:
        # the message never evaluates 2^U: U may be astronomically large
        raise ResourceLimitError(
            f"{num_qubits} qubits need 2^{num_qubits} complex amplitudes "
            f"of 16 bytes; cap is {DEFAULT_QUBIT_CAP} qubits")


def zero_state(num_qubits: int) -> Statevector:
    """|0...0> on ``num_qubits`` wires."""
    return basis_state(num_qubits, 0)


def basis_state(num_qubits: int, index: int) -> Statevector:
    """Computational basis state |index> (big-endian bit pattern)."""
    check_qubit_budget(num_qubits)
    if not 0 <= index < 2 ** num_qubits:
        raise ValueError(
            f"basis index {index} out of range for {num_qubits} qubit(s)")
    amps = np.zeros(2 ** num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return Statevector(num_qubits, amps)


def gate_matrix(kind: str, angle: Optional[float] = None) -> np.ndarray:
    """Dense 2x2 (or 4x4 for CNOT/CZ) unitary for one gate.

    Rotations follow RP(theta) = cos(theta/2) I - i sin(theta/2) P.
    """
    _check_kind(kind, angle)
    if angle is None:
        return _MATRICES[kind].copy()
    pauli = _MATRICES[kind[1]]
    return (math.cos(angle / 2) * np.eye(2)
            - 1j * math.sin(angle / 2) * pauli).astype(np.complex128)


# ---------------------------------------------------------------------------
# Batched kernels.  All take amplitudes of shape (..., 2^U), usually (B, 2^U),
# and return a new array; the input is never written.  These are the
# kernels the vectorized circuit engine runs: the two layer kernels, the X
# flip its adjoint reads derivatives with, and the Z readout.  Index and
# sign tables are built on first use and cached read-only.

# adjacent wires per dense block (2^4 x 2^4) of the every-wire rotation
ROTATION_GROUP = 4


def _wire_mask(num_qubits: int, wire: int) -> int:
    return 1 << (num_qubits - 1 - wire)


def _check_wire(num_qubits: int, wire: int) -> None:
    if not 0 <= wire < num_qubits:
        raise ValueError(f"wire {wire} out of range for {num_qubits} qubit(s)")


@functools.lru_cache(maxsize=64)
def _flip_index(num_qubits: int, wire: int,
                control: Optional[int] = None) -> np.ndarray:
    """Gather index that flips ``wire``'s bit where ``control``'s bit is 1
    (everywhere when ``control`` is None)."""
    idx = np.arange(2 ** num_qubits)
    flipped = idx ^ _wire_mask(num_qubits, wire)
    if control is not None:
        flipped = np.where(idx & _wire_mask(num_qubits, control), flipped, idx)
    flipped.setflags(write=False)
    return flipped


@functools.lru_cache(maxsize=64)
def z_signs(num_qubits: int) -> np.ndarray:
    """(U, 2^U) read-only table: row w holds Z's eigenvalue on wire w,
    +1 or -1, at each index."""
    masks = np.array([[_wire_mask(num_qubits, w)] for w in range(num_qubits)])
    signs = np.where(np.arange(2 ** num_qubits) & masks, -1.0, 1.0)
    signs.setflags(write=False)
    return signs


def apply_x_batch(amps: np.ndarray, num_qubits: int, wire: int) -> np.ndarray:
    return amps.take(_flip_index(num_qubits, wire), axis=-1)


def apply_cnot_batch(amps: np.ndarray, num_qubits: int, pairs) -> np.ndarray:
    """CNOT on each (control, target) of ``pairs`` in order, applied as one
    gather through their composed permutation."""
    return amps.take(_cnot_index(num_qubits, tuple(map(tuple, pairs))),
                     axis=-1)


@functools.lru_cache(maxsize=64)
def _cnot_index(num_qubits: int, pairs: tuple) -> np.ndarray:
    """Gather index of the CNOTs ``pairs`` applied in order."""
    index = np.arange(2 ** num_qubits)
    for control, target in pairs:
        index = index[_flip_index(num_qubits, target, control)]
    index.setflags(write=False)
    return index


def apply_rotation_batch(amps: np.ndarray, num_qubits: int,
                         rs: np.ndarray) -> np.ndarray:
    """One 2x2 matrix on every wire: ``rs[:, :, w]`` acts on wire w.

    ``rs`` has shape (2, 2, U), shared by every row, or (2, 2, U, B...),
    whose batch axes broadcast against the rows as in a matmul: (n, 1,
    2^U) states at (2, 2, U, S) matrices give (n, S, 2^U).  A group of
    ROTATION_GROUP adjacent wires is one matmul by the Kronecker product
    of their matrices.  The group's wires are always the most significant
    ones: the matmul moves them to the least significant end, which brings
    the next group to the top and, after the last group, every wire back
    to its place.
    """
    rs = np.asarray(rs)
    if rs.shape[:3] != (2, 2, num_qubits):
        raise ValueError(f"need one 2x2 matrix per wire, shape (2, 2, "
                         f"{num_qubits}, ...), got shape {rs.shape}")
    dim = 2 ** num_qubits
    for start in range(0, num_qubits, ROTATION_GROUP):
        block = rs[:, :, start]
        for w in range(start + 1, min(start + ROTATION_GROUP, num_qubits)):
            size = 2 * len(block)
            block = block[:, None, :, None] * rs[None, :, None, :, w]
            block = block.reshape((size, size) + block.shape[4:])
        # (B..., size, size) and contiguous, which the matmul needs to
        # reach BLAS for per-set blocks
        transposed = np.ascontiguousarray(
            block.transpose(tuple(range(2, block.ndim)) + (1, 0)))
        view = amps.reshape(amps.shape[:-1] + (len(block), dim // len(block)))
        amps = view.swapaxes(-1, -2) @ transposed
        amps = amps.reshape(amps.shape[:-2] + (dim,))
    return amps


def expect_z_batch(amps: np.ndarray, num_qubits: int) -> np.ndarray:
    """<Z> for each batch row on every wire, shape (..., U)."""
    return (amps.real ** 2 + amps.imag ** 2) @ z_signs(num_qubits).T


def apply_gate(state: Statevector, gate: GateOp) -> Statevector:
    """Apply one gate; returns a new Statevector, input untouched.

    The gate's 2^k x 2^k matrix, as 2k axes of size 2 (k outputs, then k
    inputs), is contracted with the gate's k wire axes of the amplitudes
    viewed as U axes of size 2; its outputs then move to those wires.
    """
    u, k = state.num_qubits, len(gate.wires)
    for w in gate.wires:
        _check_wire(u, w)
    small = gate_matrix(gate.kind, gate.angle).reshape((2,) * (2 * k))
    new = np.tensordot(small, state.amps.reshape((2,) * u),
                       axes=(range(k, 2 * k), gate.wires))
    return Statevector(u, np.moveaxis(new, range(k), gate.wires).reshape(-1))


def dense_apply_oracle(state: Statevector, full_unitary: np.ndarray) -> Statevector:
    """Plain matrix-vector product against the full 2^U x 2^U unitary.

    Test oracle only; capped at 10 qubits.
    """
    if state.num_qubits > ORACLE_QUBIT_CAP:
        raise ResourceLimitError(
            f"dense oracle capped at {ORACLE_QUBIT_CAP} qubits")
    full_unitary = np.asarray(full_unitary, dtype=np.complex128)
    dim = 2 ** state.num_qubits
    if full_unitary.shape != (dim, dim):
        raise ValueError(
            f"expected a {dim}x{dim} matrix, got shape {full_unitary.shape}")
    return Statevector(state.num_qubits, full_unitary @ state.amps)


def embed_gate(gate: GateOp, num_qubits: int) -> np.ndarray:
    """Full 2^U x 2^U unitary for one gate: explicit tensor construction.

    Companion to :func:`dense_apply_oracle`; deliberately naive.  Entry
    (row, col) is the gate matrix's entry at the bits of row and col on
    the gate's wires (its first wire most significant) where the two
    agree off them, and 0 elsewhere.
    """
    dim, k = 2 ** num_qubits, len(gate.wires)
    small = gate_matrix(gate.kind, gate.angle)
    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        for row_small in range(2 ** k):
            row, col_small = col, 0
            for j, w in enumerate(gate.wires):
                mask = _wire_mask(num_qubits, w)
                col_small = 2 * col_small + bool(col & mask)
                bit = row_small >> (k - 1 - j) & 1
                row = row & ~mask | bit * mask
            full[row, col] += small[row_small, col_small]
    return full


def expectation_z(state: Statevector, wire: int) -> float:
    """Analytic <Z> on one wire; always in [-1, 1]."""
    _check_wire(state.num_qubits, wire)
    return float(
        expect_z_batch(state.amps[None, :], state.num_qubits)[0, wire])


def sample_z_mean(state: Statevector, wire: int, shots: int,
                  rng: np.random.Generator) -> float:
    """Mean of ``shots`` independent +/-1 draws with P(+1) = (1+<Z>)/2."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p_plus = (1.0 + expectation_z(state, wire)) / 2.0
    outcomes = np.where(rng.random(shots) < p_plus, 1.0, -1.0)
    return float(outcomes.mean())
