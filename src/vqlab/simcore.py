"""Exact complex statevector simulation of a small gate set.

Supports X, Y, Z, RX, RY, RZ, CNOT and CZ on up to 24 qubits (double
precision, 2^24 amplitudes ~ 256 MiB).  Qubit ordering is big-endian:
qubit 0 is the most significant bit of the amplitude index, so on two
qubits index 2 (binary ``10``) means qubit 0 in |1> and qubit 1 in |0>.

Gates are applied with index/stride arithmetic on the flat amplitude
array; the full 2^U x 2^U unitary is never materialized.  A dense
matrix-vector oracle (:func:`dense_apply_oracle`) exists purely for
cross-checking the fast path in tests.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DEFAULT_QUBIT_CAP = 24
ORACLE_QUBIT_CAP = 10

FIXED_KINDS = ("X", "Y", "Z", "CNOT", "CZ")
ROTATION_KINDS = ("RX", "RY", "RZ")
TWO_QUBIT_KINDS = ("CNOT", "CZ")


class ResourceLimitError(RuntimeError):
    """Raised when a request would exceed the configured qubit budget."""


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
        if self.kind not in FIXED_KINDS + ROTATION_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.wires) != want:
            raise ValueError(
                f"{self.kind} takes {want} wire(s), got {len(self.wires)}")
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"{self.kind} wires must be distinct: {self.wires}")
        if self.kind in ROTATION_KINDS:
            if self.angle is None:
                raise ValueError(f"{self.kind} requires an angle")
            if not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} angle must be finite")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


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

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.amps.copy())

    def dump_json(self) -> str:
        """Debug dump: {"num_qubits": U, "amps": [[re, im], ...]}."""
        pairs = [[float(a.real), float(a.imag)] for a in self.amps]
        return json.dumps({"num_qubits": self.num_qubits, "amps": pairs})


def check_qubit_budget(num_qubits: int,
                       max_qubits: int = DEFAULT_QUBIT_CAP) -> None:
    """Reject a qubit count below 1 or above ``max_qubits``."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    if num_qubits > max_qubits:
        mib = 2 ** num_qubits * 16 / 2 ** 20
        raise ResourceLimitError(
            f"{num_qubits} qubits need 2^{num_qubits} complex amplitudes "
            f"({mib:.0f} MiB); cap is {max_qubits} qubits")


def zero_state(num_qubits: int, max_qubits: int = DEFAULT_QUBIT_CAP) -> Statevector:
    """|0...0> on ``num_qubits`` wires."""
    check_qubit_budget(num_qubits, max_qubits)
    amps = np.zeros(2 ** num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(num_qubits, amps)


def basis_state(num_qubits: int, index: int,
                max_qubits: int = DEFAULT_QUBIT_CAP) -> Statevector:
    """Computational basis state |index> (big-endian bit pattern)."""
    state = zero_state(num_qubits, max_qubits=max_qubits)
    if not 0 <= index < 2 ** num_qubits:
        raise ValueError(
            f"basis index {index} out of range for {num_qubits} qubit(s)")
    state.amps[0] = 0.0
    state.amps[index] = 1.0
    return state


_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def gate_matrix(kind: str, angle: Optional[float] = None) -> np.ndarray:
    """Dense 2x2 (or 4x4 for CNOT/CZ) unitary for one gate.

    Rotations follow RP(theta) = cos(theta/2) I - i sin(theta/2) P.
    """
    if kind in _PAULI:
        if angle is not None:
            raise ValueError(f"{kind} takes no angle")
        return _PAULI[kind].copy()
    if kind == "CNOT":
        if angle is not None:
            raise ValueError("CNOT takes no angle")
        return np.array([[1, 0, 0, 0],
                         [0, 1, 0, 0],
                         [0, 0, 0, 1],
                         [0, 0, 1, 0]], dtype=np.complex128)
    if kind == "CZ":
        if angle is not None:
            raise ValueError("CZ takes no angle")
        return np.diag([1, 1, 1, -1]).astype(np.complex128)
    if kind in ROTATION_KINDS:
        if angle is None:
            raise ValueError(f"{kind} requires an angle")
        pauli = _PAULI[kind[1]]
        return (math.cos(angle / 2) * np.eye(2)
                - 1j * math.sin(angle / 2) * pauli).astype(np.complex128)
    raise ValueError(f"unknown gate kind {kind!r}")


# ---------------------------------------------------------------------------
# Batched kernels.  All take amplitudes of shape (..., 2^U), usually (B, 2^U),
# and return a new array; the input is never written.  These back both the
# public single-state API and the vectorized circuit engine.  Index and bit
# tables are built on first use per (U, wires) and cached read-only.

GATHER_MAX_AMPS = 2 ** 14


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
def _bit_table(num_qubits: int, wires: tuple[int, ...]) -> np.ndarray:
    """(k, 2^U) bools: is wire ``wires[j]`` in |1> at each index."""
    masks = np.array([[_wire_mask(num_qubits, w)] for w in wires])
    bits = (np.arange(2 ** num_qubits) & masks) != 0
    bits.setflags(write=False)
    return bits


def apply_x_batch(amps: np.ndarray, num_qubits: int, wire: int) -> np.ndarray:
    return amps.take(_flip_index(num_qubits, wire), axis=-1)


def apply_y_batch(amps: np.ndarray, num_qubits: int, wire: int) -> np.ndarray:
    factor = np.where(_bit_table(num_qubits, (wire,))[0], 1j, -1j)
    return factor * apply_x_batch(amps, num_qubits, wire)


def apply_z_batch(amps: np.ndarray, num_qubits: int, wire: int) -> np.ndarray:
    return np.where(_bit_table(num_qubits, (wire,))[0], -1.0, 1.0) * amps


def apply_cnot_batch(amps: np.ndarray, num_qubits: int,
                     control: int, target: int) -> np.ndarray:
    return amps.take(_flip_index(num_qubits, target, control), axis=-1)


def apply_cz_batch(amps: np.ndarray, num_qubits: int,
                   wire_a: int, wire_b: int) -> np.ndarray:
    bits = _bit_table(num_qubits, (wire_a, wire_b))
    return np.where(bits[0] & bits[1], -1.0, 1.0) * amps


# (A, B) of each rotation from the cosine and sine of its half angle
_SU2_OF = {"RX": lambda c, s: (c, -1j * s), "RY": lambda c, s: (c, -s),
           "RZ": lambda c, s: (c - 1j * s, 0.0)}


def apply_rotation_batch(amps: np.ndarray, num_qubits: int, wire: int,
                         kind, theta) -> np.ndarray:
    """RX/RY/RZ on one wire, or a tuple of them applied in order.

    One kind takes ``theta`` scalar (shared by every row) or shape (B,); a
    tuple of k kinds takes shape (k,) (shared) or (B, k).  The rotations
    are composed into one R = [[a, b], [-conj(b), conj(a)]], applied in one
    pass: on the bit-flipped gather for arrays of at most GATHER_MAX_AMPS
    amplitudes, where it is faster, else on the wire's strided half-views.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if isinstance(kind, str):
        kind, theta = (kind,), theta[..., None]
    if (not set(kind) <= set(ROTATION_KINDS)
            or theta.shape[-1:] != (len(kind),)):
        raise ValueError(f"rotation kinds {kind!r} need one angle each per "
                         f"row, got angles of shape {theta.shape}")
    # shared angles compose in Python complex numbers, per-row ones in arrays
    shared = theta.ndim == 1
    cos, sin = (math.cos, math.sin) if shared else (np.cos, np.sin)
    a, b = 1.0, 0.0
    for k, t in zip(kind, theta.tolist() if shared
                    else np.moveaxis(theta, -1, 0)):
        ka, kb = _SU2_OF[k](cos(t / 2), sin(t / 2))
        a, b = ka * a - kb * b.conjugate(), ka * b + kb * a.conjugate()
    if amps.size <= GATHER_MAX_AMPS:
        diag, off = np.where(
            _bit_table(num_qubits, (wire,))[0],
            np.array([a.conjugate(), -b.conjugate()])[..., None],
            np.array([a, b])[..., None])
        return diag * amps + off * apply_x_batch(amps, num_qubits, wire)
    shape = amps.shape[:-1] + (2 ** wire, 2, 2 ** (num_qubits - 1 - wire))
    view = amps.reshape(shape)
    a, b = (np.asarray(v)[..., None, None] for v in (a, b))
    out = np.empty(shape, dtype=np.complex128)
    lo, hi = out[..., 0, :], out[..., 1, :]
    np.multiply(view[..., 0, :], a, out=lo)
    lo += b * view[..., 1, :]
    np.multiply(view[..., 1, :], a.conjugate(), out=hi)
    hi -= b.conjugate() * view[..., 0, :]
    return out.reshape(amps.shape)


def expect_z_batch(amps: np.ndarray, num_qubits: int, wire) -> np.ndarray:
    """<Z> for each batch row on one wire, shape (B,), or on a sequence of
    k wires, shape (B, k)."""
    single = isinstance(wire, (int, np.integer))
    bits = _bit_table(num_qubits, (wire,) if single else tuple(wire))
    out = (amps.real ** 2 + amps.imag ** 2) @ np.where(bits, -1.0, 1.0).T
    return out[..., 0] if single else out


def apply_gate(state: Statevector, gate: GateOp) -> Statevector:
    """Apply one gate; returns a new Statevector, input untouched."""
    u = state.num_qubits
    for w in gate.wires:
        _check_wire(u, w)
    amps = state.amps
    if gate.kind == "X":
        new = apply_x_batch(amps, u, gate.wires[0])
    elif gate.kind == "Y":
        new = apply_y_batch(amps, u, gate.wires[0])
    elif gate.kind == "Z":
        new = apply_z_batch(amps, u, gate.wires[0])
    elif gate.kind == "CNOT":
        new = apply_cnot_batch(amps, u, gate.wires[0], gate.wires[1])
    elif gate.kind == "CZ":
        new = apply_cz_batch(amps, u, gate.wires[0], gate.wires[1])
    else:
        new = apply_rotation_batch(amps, u, gate.wires[0], gate.kind, gate.angle)
    return Statevector(u, np.ascontiguousarray(new))


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

    Companion to :func:`dense_apply_oracle`; deliberately naive.
    """
    dim = 2 ** num_qubits
    small = gate_matrix(gate.kind, gate.angle)
    full = np.zeros((dim, dim), dtype=np.complex128)
    if gate.kind in TWO_QUBIT_KINDS:
        wa, wb = gate.wires
        for col in range(dim):
            ba = (col >> (num_qubits - 1 - wa)) & 1
            bb = (col >> (num_qubits - 1 - wb)) & 1
            col_small = 2 * ba + bb
            for row_small in range(4):
                ra, rb = row_small >> 1, row_small & 1
                row = col
                row = (row & ~_wire_mask(num_qubits, wa)) | (ra << (num_qubits - 1 - wa))
                row = (row & ~_wire_mask(num_qubits, wb)) | (rb << (num_qubits - 1 - wb))
                full[row, col] += small[row_small, col_small]
    else:
        w = gate.wires[0]
        for col in range(dim):
            b = (col >> (num_qubits - 1 - w)) & 1
            for rb in range(2):
                row = (col & ~_wire_mask(num_qubits, w)) | (rb << (num_qubits - 1 - w))
                full[row, col] += small[rb, b]
    return full


def expectation_z(state: Statevector, wire: int) -> float:
    """Analytic <Z> on one wire; always in [-1, 1]."""
    _check_wire(state.num_qubits, wire)
    return float(expect_z_batch(state.amps[None, :], state.num_qubits, wire)[0])


def sample_z_mean(state: Statevector, wire: int, shots: int,
                  rng: np.random.Generator) -> float:
    """Mean of ``shots`` independent +/-1 draws with P(+1) = (1+<Z>)/2."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p_plus = (1.0 + expectation_z(state, wire)) / 2.0
    outcomes = np.where(rng.random(shots) < p_plus, 1.0, -1.0)
    return float(outcomes.mean())
