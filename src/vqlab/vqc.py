"""Angle-encoded variational quantum circuits with exact gradients.

Pipeline: RY angle encoding of a classical vector (or a basis-state index
for discrete observations), L layers of entangler CNOTs and one fused
RX-RY-RZ rotation per wire, per-wire Pauli-Z readout.

Gradients w.r.t. the rotation angles are exact two ways.  Training uses
adjoint differentiation (:func:`grad_batch` by default): one forward pass
and one reverse sweep over the gates, whatever the parameter count.  The
parameter-shift rule with shift pi/2, which is what hardware can run,
stays in :func:`parameter_shift_grad`, ``vqlab grad-check`` and
acceptance criterion 3; a central finite difference oracle is kept
alongside both for verification.

Evaluation is vectorized: a whole batch of circuits runs as one (B, 2^U)
amplitude array, all rows sharing one flat parameter vector (or one per
row, as the parameter-shift batches need) and differing in their inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import simcore
from .simcore import Statevector, basis_state

NONLINEARITIES = ("sigmoid", "clamp01", "none")
ENTANGLERS = ("chain", "ring")
MODEL_SCHEMA = "vqc-v1"
SHIFT = math.pi / 2


class ModelFormatError(ValueError):
    """Malformed or wrong-version model checkpoint."""


@dataclass(frozen=True)
class EncodingSpec:
    """How a classical value becomes a rotation angle: scale * phi(x)."""

    nonlinearity: str = "sigmoid"
    scale: float = math.pi / 2

    def __post_init__(self):
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")


@dataclass
class PqcLayer:
    """Per-wire RX/RY/RZ angles for one circuit layer."""

    alphas: np.ndarray
    betas: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=np.float64)
        self.betas = np.asarray(self.betas, dtype=np.float64)
        self.gammas = np.asarray(self.gammas, dtype=np.float64)
        if not (self.alphas.shape == self.betas.shape == self.gammas.shape):
            raise ValueError("alpha/beta/gamma blocks must share one length")


def default_entangler(num_qubits: int) -> str:
    return "chain" if num_qubits <= 2 else "ring"


def entangler_pairs(num_qubits: int, entangler: str) -> list[tuple[int, int]]:
    """CNOT (control, target) pairs applied at the start of each layer."""
    if entangler not in ENTANGLERS:
        raise ValueError(f"unknown entangler {entangler!r}")
    pairs = [(i, i + 1) for i in range(num_qubits - 1)]
    if entangler == "ring" and num_qubits >= 2:
        pairs.append((num_qubits - 1, 0))
    return pairs


class VqcModel:
    """U-qubit, L-layer circuit; parameters live in a flat length-3UL vector.

    Flat layout is layer-major, each layer as (alpha-block, beta-block,
    gamma-block) of U angles each.
    """

    def __init__(self, num_qubits: int, depth: int,
                 params: Optional[np.ndarray] = None,
                 entangler: Optional[str] = None,
                 encoding: Optional[EncodingSpec] = None):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.num_qubits = num_qubits
        self.depth = depth
        self.entangler = entangler or default_entangler(num_qubits)
        if self.entangler not in ENTANGLERS:
            raise ValueError(f"unknown entangler {self.entangler!r}")
        self.encoding = encoding or EncodingSpec()
        n = 3 * num_qubits * depth
        if params is None:
            params = np.zeros(n)
        params = np.asarray(params, dtype=np.float64).copy()
        if params.shape != (n,):
            raise ValueError(f"expected {n} parameters, got shape {params.shape}")
        self._params = params

    @classmethod
    def random(cls, num_qubits: int, depth: int, seed: int,
               init_scale: float = math.pi / 100,
               entangler: Optional[str] = None,
               encoding: Optional[EncodingSpec] = None) -> "VqcModel":
        """Near-identity initialization: uniform in (-init_scale, init_scale)."""
        rng = np.random.default_rng(seed)
        params = rng.uniform(-init_scale, init_scale, 3 * num_qubits * depth)
        return cls(num_qubits, depth, params, entangler, encoding)

    @property
    def num_params(self) -> int:
        return self._params.size

    @property
    def params(self) -> np.ndarray:
        return self._params.copy()

    @params.setter
    def params(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self._params.shape:
            raise ValueError(
                f"expected {self._params.shape[0]} parameters, "
                f"got shape {values.shape}")
        self._params = values.copy()

    @property
    def layers(self) -> list[PqcLayer]:
        u = self.num_qubits
        out = []
        for layer in range(self.depth):
            base = 3 * u * layer
            out.append(PqcLayer(self._params[base:base + u],
                                self._params[base + u:base + 2 * u],
                                self._params[base + 2 * u:base + 3 * u]))
        return out

    def copy(self) -> "VqcModel":
        return VqcModel(self.num_qubits, self.depth, self._params,
                        self.entangler, self.encoding)

    def __eq__(self, other) -> bool:
        return (isinstance(other, VqcModel)
                and self.num_qubits == other.num_qubits
                and self.depth == other.depth
                and self.entangler == other.entangler
                and self.encoding == other.encoding
                and np.array_equal(self._params, other._params))


@dataclass(frozen=True)
class MeasurementConfig:
    """Analytic expectations, or an M-shot average per wire."""

    mode: str = "analytic"
    shots: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("analytic", "shots"):
            raise ValueError(f"unknown measurement mode {self.mode!r}")
        if self.mode == "shots" and self.shots < 1:
            raise ValueError("shots must be >= 1")


ANALYTIC = MeasurementConfig()


def phi(x, spec: EncodingSpec):
    """Encoding nonlinearity, elementwise; a float for a scalar ``x``."""
    x = np.array(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"input must be finite, got {x}")
    if spec.nonlinearity == "sigmoid":
        # split to avoid overflow in exp for large |x|
        e = np.exp(-np.abs(x))
        out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    elif spec.nonlinearity == "clamp01":
        out = np.clip(x, 0.0, 1.0)
    else:
        out = x
    return float(out) if out.ndim == 0 else out


def encoding_angles(x, spec: EncodingSpec) -> np.ndarray:
    """scale * phi(x) for an input vector, or a (B, U) stack of them."""
    return spec.scale * phi(x, spec)


def encode(x: Sequence[float], spec: EncodingSpec, num_qubits: int) -> Statevector:
    """RY(scale * phi(x_i)) on wire i of |0...0>; a product state."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (num_qubits,):
        raise ValueError(
            f"expected input of length {num_qubits}, got shape {x.shape}")
    simcore.check_qubit_budget(num_qubits)
    amps = _init_amps(num_qubits, encoding_angles(x, spec)[None, :], None)
    return Statevector(num_qubits, amps[0])


def basis_encode(state_index: int, num_qubits: int) -> Statevector:
    """Discrete observation -> computational basis state."""
    return basis_state(num_qubits, state_index)


def pqc_apply(state: Statevector, model: VqcModel, layer_index: int) -> Statevector:
    """One layer: entangler CNOTs, then RX/RY/RZ on every wire."""
    if not 0 <= layer_index < model.depth:
        raise ValueError(f"layer_index {layer_index} out of range")
    u = model.num_qubits
    amps = _apply_gates(state.amps, u, _layer_gates(model, layer_index),
                        model.params)
    return Statevector(u, np.ascontiguousarray(amps))


# ---------------------------------------------------------------------------
# Batched engine

def _layer_gates(model: VqcModel, layer: int) -> list:
    """One layer's gates in order, as (kind, wires, flat parameter index).

    Entangler CNOTs come first (index None), then one fused RX, RY, RZ
    block per wire, indexed by a slice over its alpha, beta, gamma angles.
    """
    u = model.num_qubits
    base = 3 * u * layer
    gates = [("CNOT", pair, None)
             for pair in entangler_pairs(u, model.entangler)]
    gates += [(("RX", "RY", "RZ"), (wire,),
               slice(base + wire, base + 3 * u, u)) for wire in range(u)]
    return gates


def _circuit_gates(model: VqcModel) -> list:
    return [gate for layer in range(model.depth)
            for gate in _layer_gates(model, layer)]


def _apply_gates(amps: np.ndarray, num_qubits: int, gates: list,
                 thetas: np.ndarray) -> np.ndarray:
    """Apply ``gates`` in order; a rotation block's angles are
    thetas[..., index], from the flat parameter vector that every row
    shares or from (B, 3UL) with one parameter vector per row.
    """
    for kind, wires, index in gates:
        if index is None:
            amps = simcore.apply_cnot_batch(amps, num_qubits, *wires)
        else:
            amps = simcore.apply_rotation_batch(amps, num_qubits, wires[0],
                                                kind, thetas[..., index])
    return amps


def _init_amps(num_qubits: int, enc_angles: Optional[np.ndarray],
               basis_indices: Optional[np.ndarray]) -> np.ndarray:
    """Input states: one basis state per index, or the product state
    RY(enc_angles[b, w]) on wire w of |0...0> per row b."""
    if basis_indices is not None:
        amps = np.zeros((len(basis_indices), 2 ** num_qubits), complex)
        amps[np.arange(len(basis_indices)), basis_indices] = 1.0
        return amps
    c, s = np.cos(enc_angles / 2.0), np.sin(enc_angles / 2.0)
    amps = np.ones((len(enc_angles), 1), complex)
    for w in range(num_qubits):
        # wire w becomes the next, less significant bit of the index
        amps = np.stack([amps * c[:, w, None], amps * s[:, w, None]], axis=-1)
        amps = amps.reshape(len(enc_angles), -1)
    return amps


def run_circuit_batch(model: VqcModel, thetas: np.ndarray,
                      enc_angles: Optional[np.ndarray] = None,
                      basis_indices: Optional[np.ndarray] = None) -> np.ndarray:
    """Z expectations, shape (B, U), for B circuits evaluated at once.

    Exactly one of ``enc_angles`` (B, U) or ``basis_indices`` (B,) selects
    the input state per row, and so the batch size.  ``thetas`` is the
    flat (3UL,) parameter vector that every row shares, or (B, 3UL).
    """
    u = model.num_qubits
    amps = _apply_gates(_init_amps(u, enc_angles, basis_indices), u,
                        _circuit_gates(model), thetas)
    return simcore.expect_z_batch(amps, u, range(u))


def _repeat_inputs(enc_angles, basis_indices, times: int) -> dict:
    """run_circuit_batch inputs with each row repeated ``times`` times."""
    if basis_indices is not None:
        return {"basis_indices": np.repeat(basis_indices, times)}
    return {"enc_angles": np.repeat(enc_angles, times, axis=0)}


def _prepare_input(model: VqcModel, x):
    """Split a forward input into (enc_angles, basis_indices), batch of 1."""
    if isinstance(x, (int, np.integer)):
        if not 0 <= x < 2 ** model.num_qubits:
            raise ValueError(
                f"basis index {x} out of range for {model.num_qubits} qubit(s)")
        return None, np.array([int(x)])
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.num_qubits,):
        raise ValueError(
            f"expected input of length {model.num_qubits}, got shape {x.shape}")
    return encoding_angles(x, model.encoding)[None, :], None


def forward(model: VqcModel, x,
            measurement: MeasurementConfig = ANALYTIC) -> np.ndarray:
    """Encode -> L layers -> per-wire Z readout; each output in [-1, 1].

    ``x`` is a length-U real vector, or a basis-state index for discrete
    observations.
    """
    enc, basis = _prepare_input(model, x)
    z = run_circuit_batch(model, model.params, enc, basis)[0]
    if measurement.mode == "analytic":
        return z
    rng = np.random.default_rng(measurement.seed)
    p_plus = (1.0 + z) / 2.0
    out = np.empty_like(z)
    for wire in range(model.num_qubits):
        outcomes = np.where(rng.random(measurement.shots) < p_plus[wire], 1.0, -1.0)
        out[wire] = outcomes.mean()
    return out


def grad_batch(model: VqcModel, upstreams: np.ndarray,
               enc_angles: Optional[np.ndarray] = None,
               basis_indices: Optional[np.ndarray] = None,
               shift: Optional[float] = None) -> np.ndarray:
    """Exact gradients for n inputs at once; shape (n, 3UL).

    Row i is d(upstreams[i] . z_i)/d(theta) where z_i is the analytic
    forward output for input i.  By default (``shift=None``) this is the
    adjoint method that training uses: n forward rows and one reverse
    sweep.  An explicit ``shift`` runs the parameter-shift rule instead,
    all 2 * 3UL * n shifted circuits as a single batch; that is the path
    of :func:`parameter_shift_grad`.
    """
    n_params = model.num_params
    if n_params == 0:
        return np.zeros((upstreams.shape[0], 0))
    if shift is None:
        return _adjoint_grad(model, upstreams, enc_angles, basis_indices)
    n = upstreams.shape[0]
    theta = model.params
    # rows: input-major, then parameter, then (+, -) shift
    thetas = np.tile(theta, (n * n_params * 2, 1))
    k = np.arange(n_params)
    block = np.zeros((n_params * 2, n_params))
    block[2 * k, k] = shift
    block[2 * k + 1, k] = -shift
    thetas += np.tile(block, (n, 1))
    z = run_circuit_batch(model, thetas, **_repeat_inputs(
        enc_angles, basis_indices, n_params * 2))
    z = z.reshape(n, n_params, 2, model.num_qubits)
    df = (z[:, :, 0, :] - z[:, :, 1, :]) / 2.0
    return np.einsum("npw,nw->np", df, upstreams)


def _adjoint_grad(model: VqcModel, upstreams: np.ndarray,
                  enc_angles: Optional[np.ndarray],
                  basis_indices: Optional[np.ndarray]) -> np.ndarray:
    """Adjoint differentiation (Jones & Gacon 2020, arXiv:2009.02823).

    After the forward pass to psi, lambda = sum_w upstream_w Z_w psi.  The
    reverse sweep un-applies each gate to psi and lambda, stacked as one
    (2, n, 2^U) array.  At the end of a rotation block, its three angles'
    derivatives are Re<lambda|G|psi> for the generators G of
    :func:`_block_generators`, read from the wire's 2x2 overlaps.
    """
    u = model.num_qubits
    theta = model.params
    gates = _circuit_gates(model)
    psi = _apply_gates(_init_amps(u, enc_angles, basis_indices), u, gates,
                       theta)
    lam = sum(upstreams[:, wire, None] * simcore.apply_z_batch(psi, u, wire)
              for wire in range(u))
    pair = np.stack([psi, lam])
    grads = np.empty((psi.shape[0], theta.size))
    for kinds, wires, index in reversed(gates):
        if index is None:
            pair = simcore.apply_cnot_batch(pair, u, *wires)
            continue
        w = wires[0]
        # halves[:, n, a]: psi and lambda where wire w is a, so overlaps
        # [n, a, b] = sum of conj(lambda) psi, wire w at a and at b
        halves = pair.reshape((2, -1, 2 ** w, 2, 2 ** (u - 1 - w)))
        halves = halves.transpose(0, 1, 3, 2, 4).reshape(2, -1, 2, 2 ** (u - 1))
        overlaps = halves[1].conj() @ halves[0].transpose(0, 2, 1)
        grads[:, index] = (overlaps.reshape(-1, 4)
                           @ _block_generators(theta[index]).T).real
        pair = simcore.apply_rotation_batch(pair, u, w, kinds[::-1],
                                            -theta[index][::-1])
    return grads


def _block_generators(angles: np.ndarray) -> np.ndarray:
    """Rows (G00, G01, G10, G11) of the RX, RY, RZ angles' generators at
    the end of R_Z R_Y R_X: (R_Z R_Y)(-iX)(R_Z R_Y)^dagger, R_Z(-iY)R_Z^dagger
    and -iZ.  Each is -i n.sigma, and d/dt R_Z R_Y R_X = (G/2) R_Z R_Y R_X.
    """
    _, beta, gamma = angles.tolist()
    cb, sb, cg, sg = (math.cos(beta), math.sin(beta),
                      math.cos(gamma), math.sin(gamma))
    axes = ((cb * cg, cb * sg, -sb), (-sg, cg, 0.0), (0.0, 0.0, 1.0))
    return np.array([(-1j * z, -1j * x - y, -1j * x + y, 1j * z)
                     for x, y, z in axes])


def parameter_shift_grad(model: VqcModel, x, upstream: np.ndarray,
                         measurement: MeasurementConfig = ANALYTIC,
                         shift: float = SHIFT) -> np.ndarray:
    """Exact gradient of upstream . forward(model, x) w.r.t. the flat params.

    ``shift`` exists as a negative-control hook; anything other than pi/2
    breaks exactness on purpose.
    """
    if measurement.mode != "analytic":
        raise ValueError("gradients are only supported in analytic mode")
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (model.num_qubits,):
        raise ValueError(
            f"expected upstream of length {model.num_qubits}, "
            f"got shape {upstream.shape}")
    enc, basis = _prepare_input(model, x)
    return grad_batch(model, upstream[None, :], enc, basis, shift=shift)[0]


def finite_diff_grad(model: VqcModel, x, upstream: np.ndarray,
                     h: float = 1e-4) -> np.ndarray:
    """Central-difference oracle for :func:`parameter_shift_grad`."""
    if not 1e-6 <= h <= 1e-2:
        raise ValueError(f"h must be in [1e-6, 1e-2], got {h}")
    upstream = np.asarray(upstream, dtype=np.float64)
    n_params = model.num_params
    enc, basis = _prepare_input(model, x)
    theta = model.params
    thetas = np.tile(theta, (n_params * 2, 1))
    k = np.arange(n_params)
    thetas[2 * k, k] += h
    thetas[2 * k + 1, k] -= h
    z = run_circuit_batch(model, thetas,
                          **_repeat_inputs(enc, basis, n_params * 2))
    z = z.reshape(n_params, 2, model.num_qubits)
    df = (z[:, 0, :] - z[:, 1, :]) / (2.0 * h)
    return df @ upstream


# ---------------------------------------------------------------------------
# Checkpoints

def serialize_model(model: VqcModel) -> str:
    return json.dumps({
        "schema": MODEL_SCHEMA,
        "num_qubits": model.num_qubits,
        "depth": model.depth,
        "entangler": model.entangler,
        "encoding": {"nonlinearity": model.encoding.nonlinearity,
                     "scale": model.encoding.scale},
        "params": [float(p) for p in model.params],
    })


def model_from_dict(doc: dict) -> VqcModel:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    schema = doc.get("schema")
    if schema != MODEL_SCHEMA:
        raise ModelFormatError(
            f"unsupported model schema {schema!r} (expected {MODEL_SCHEMA!r})")
    for key in ("num_qubits", "depth", "entangler", "encoding", "params"):
        if key not in doc:
            raise ModelFormatError(f"model document missing key {key!r}")
    enc = doc["encoding"]
    for key in ("nonlinearity", "scale"):
        if key not in enc:
            raise ModelFormatError(f"model encoding missing key {key!r}")
    try:
        params = np.asarray(doc["params"], dtype=np.float64)
        if not np.all(np.isfinite(params)):
            raise ModelFormatError("model params must be finite")
        return VqcModel(int(doc["num_qubits"]), int(doc["depth"]), params,
                        str(doc["entangler"]),
                        EncodingSpec(str(enc["nonlinearity"]),
                                     float(enc["scale"])))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def deserialize_model(text: str) -> VqcModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return model_from_dict(doc)
