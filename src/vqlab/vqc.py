"""Angle-encoded variational quantum circuits with exact gradients.

Pipeline: RY angle encoding of a classical vector (or a basis-state index
for discrete observations), L layers of entangler CNOTs and one fused
RX-RY-RZ rotation per wire, per-wire Pauli-Z readout.  Readouts are
analytic expectations; shot sampling lives only in
:func:`simcore.sample_z_mean`.

Gradients w.r.t. the rotation angles are exact two ways.  Training uses
adjoint differentiation (:func:`grad_batch` by default): one forward pass
and one reverse sweep over the layers, whatever the parameter count.  The
parameter-shift rule with shift pi/2, which is what hardware can run,
stays in :func:`parameter_shift_grad`, ``vqlab grad-check`` and
acceptance criterion 3; a central finite difference oracle is kept
alongside both for verification.

Evaluation is vectorized: a whole batch of circuits runs as one (B, 2^U)
amplitude array, all rows sharing one flat parameter vector (or one per
row, as the parameter-shift batches need) and differing in their inputs.

Small circuits take the block path.  With one shared parameter vector
and at most :data:`BLOCK_MAX_QUBITS` qubits, each layer is one dense
2^U x 2^U block, built by running the layer's gates through the simcore
kernels on the identity and cached per parameter vector (the key is the
parameter values, so nothing goes stale).  A forward pass is then one
matmul by the blocks' product, or for basis inputs a row lookup in a
cached Z table, and the adjoint un-applies each layer with one matmul.
Per-row parameter batches and larger circuits run gate by gate.  The
threshold is measured: at L=2 and 32 rows, block build plus forward and
adjoint beats the per-gate path up to U=6 and loses from U=7.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import simcore
from .simcore import Statevector

NONLINEARITIES = ("sigmoid", "clamp01", "none")
ENTANGLERS = ("chain", "ring")
MODEL_SCHEMA = "vqc-v1"
SHIFT = math.pi / 2
# a model's 3UL parameters: at most as many as the amplitudes at the qubit cap
MAX_PARAMS = 2 ** simcore.DEFAULT_QUBIT_CAP
# shared-parameter circuits up to this many qubits run as cached per-layer
# blocks; their depth * 4^U block entries (16 bytes each) are capped too
BLOCK_MAX_QUBITS = 6
BLOCK_MAX_AMPS = 2 ** 20


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
        simcore.check_qubit_budget(num_qubits)
        if depth < 0:
            raise ValueError("depth must be >= 0")
        n = 3 * num_qubits * depth
        if n > MAX_PARAMS:
            raise simcore.ResourceLimitError(
                f"{num_qubits} qubits at depth {depth} need {n} parameters; "
                f"cap is {MAX_PARAMS}")
        self.num_qubits = num_qubits
        self.depth = depth
        self.entangler = entangler or default_entangler(num_qubits)
        if self.entangler not in ENTANGLERS:
            raise ValueError(f"unknown entangler {self.entangler!r}")
        self.encoding = encoding or EncodingSpec()
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
        if not init_scale >= 0:
            raise ValueError("init_scale must be >= 0")
        model = cls(num_qubits, depth, None, entangler, encoding)
        rng = np.random.default_rng(seed)
        model.params = rng.uniform(-init_scale, init_scale, model.num_params)
        return model

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
    amps = _input_states(VqcModel(num_qubits, 0, encoding=spec), x[None, :])
    return Statevector(num_qubits, amps[0])


def pqc_apply(state: Statevector, model: VqcModel, layer_index: int) -> Statevector:
    """One layer: entangler CNOTs, then RX/RY/RZ on every wire."""
    if not 0 <= layer_index < model.depth:
        raise ValueError(f"layer_index {layer_index} out of range")
    u = model.num_qubits
    amps = _apply_gates(state.amps, u,
                        _layer_gates(u, model.entangler, layer_index),
                        model.params)
    return Statevector(u, np.ascontiguousarray(amps))


# ---------------------------------------------------------------------------
# Batched engine

def _layer_gates(num_qubits: int, entangler: str, layer: int) -> list:
    """One layer's gates in order, as (kind, wires, flat parameter index).

    Entangler CNOTs come first (index None), then one fused RX, RY, RZ
    block per wire, indexed by a slice over its alpha, beta, gamma angles.
    """
    u = num_qubits
    base = 3 * u * layer
    gates = [("CNOT", pair, None) for pair in entangler_pairs(u, entangler)]
    gates += [(("RX", "RY", "RZ"), (wire,),
               slice(base + wire, base + 3 * u, u)) for wire in range(u)]
    return gates


def _circuit_gates(model: VqcModel) -> list:
    return [gate for layer in range(model.depth)
            for gate in _layer_gates(model.num_qubits, model.entangler, layer)]


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


def _unapply_gates(amps: np.ndarray, num_qubits: int, gates: list,
                   theta: np.ndarray) -> np.ndarray:
    """Undo ``gates`` at the flat parameter vector ``theta``: each gate's
    inverse, last gate first."""
    for kinds, wires, index in reversed(gates):
        if index is None:
            amps = simcore.apply_cnot_batch(amps, num_qubits, *wires)
        else:
            amps = simcore.apply_rotation_batch(
                amps, num_qubits, wires[0], kinds[::-1], -theta[index][::-1])
    return amps


@functools.lru_cache(maxsize=4)
def _circuit_blocks(num_qubits: int, depth: int, entangler: str,
                    theta_bytes: bytes) -> tuple:
    """A small circuit at one flat parameter vector as read-only dense
    matrices (layers, product, z_table).

    ``layers[l]`` is layer l's unitary, transposed to act on amplitude
    rows (``amps @ layers[l]`` applies the layer), built by running the
    layer's gates on the 2^U identity rows.  Row i of ``product`` is the
    output state of basis input i, and row i of ``z_table`` its Z readout.
    The key holds the parameter values themselves, so a changed parameter
    vector is a new entry and no entry can go stale.
    """
    theta = np.frombuffer(theta_bytes)
    eye = np.eye(2 ** num_qubits, dtype=np.complex128)
    layers = tuple(
        _apply_gates(eye, num_qubits,
                     _layer_gates(num_qubits, entangler, layer), theta)
        for layer in range(depth))
    product = functools.reduce(np.matmul, layers, eye)
    z_table = simcore.expect_z_batch(product, num_qubits, range(num_qubits))
    for array in layers + (product, z_table):
        array.setflags(write=False)
    return layers, product, z_table


def _blocks(model: VqcModel, thetas: np.ndarray) -> Optional[tuple]:
    """The cached :func:`_circuit_blocks` of ``model`` at ``thetas``, or
    None where the per-gate path runs instead: for per-row parameters,
    above :data:`BLOCK_MAX_QUBITS` qubits, or past :data:`BLOCK_MAX_AMPS`."""
    u = model.num_qubits
    if (thetas.ndim != 1 or u > BLOCK_MAX_QUBITS
            or model.depth * 4 ** u > BLOCK_MAX_AMPS):
        return None
    return _circuit_blocks(u, model.depth, model.entangler, thetas.tobytes())


def _observations(model: VqcModel, observations) -> np.ndarray:
    """``observations`` as a checked array.

    Shape (B,) holds basis-state indices, which must be integers in
    [0, 2^U).  Shape (B, U) holds real vectors for the angle encoding.
    """
    u = model.num_qubits
    obs = np.asarray(observations)
    if obs.ndim == 1:
        if obs.dtype.kind not in "iu" or np.any((obs < 0) | (obs >= 2 ** u)):
            raise ValueError(
                f"basis indices must be integers in [0, {2 ** u}), got {obs}")
    elif obs.ndim != 2 or obs.shape[1] != u:
        raise ValueError(
            f"expected input of length {u}, got shape {obs.shape[1:]}")
    return obs


def _input_states(model: VqcModel, obs: np.ndarray) -> np.ndarray:
    """(B, 2^U) input states for B checked observations: basis states, or
    for vector row b the product state RY(encoding_angles(x_b)[w]) on wire
    w of |0...0>."""
    u = model.num_qubits
    if obs.ndim == 1:
        amps = np.zeros((obs.size, 2 ** u), complex)
        amps[np.arange(obs.size), obs] = 1.0
        return amps
    angles = encoding_angles(obs, model.encoding)
    c, s = np.cos(angles / 2.0), np.sin(angles / 2.0)
    amps = np.ones((len(obs), 1), complex)
    for w in range(u):
        # wire w becomes the next, less significant bit of the index
        amps = np.stack([amps * c[:, w, None], amps * s[:, w, None]], axis=-1)
        amps = amps.reshape(len(obs), 2 ** (w + 1))
    return amps


def _output_states(model: VqcModel, thetas: np.ndarray, obs: np.ndarray,
                   blocks: Optional[tuple]) -> np.ndarray:
    """(B, 2^U) states after the circuit, for B checked observations."""
    if blocks is None:
        return _apply_gates(_input_states(model, obs), model.num_qubits,
                            _circuit_gates(model), thetas)
    _, product, _ = blocks
    if obs.ndim == 1:
        return product[obs]
    return _input_states(model, obs) @ product


def output_states(model: VqcModel, observations) -> np.ndarray:
    """(B, 2^U) output states of B observations at the model's parameters.

    :func:`readout` turns them into Z expectations, and
    ``grad_batch(..., psi=...)`` differentiates from them, so a caller
    that needs both runs the forward pass once.
    """
    theta = model.params
    return _output_states(model, theta, _observations(model, observations),
                          _blocks(model, theta))


def readout(model: VqcModel, states: np.ndarray) -> np.ndarray:
    """Per-wire Z expectations of (B, 2^U) states, shape (B, U)."""
    u = model.num_qubits
    return simcore.expect_z_batch(states, u, range(u))


def run_circuit_batch(model: VqcModel, thetas: np.ndarray,
                      observations) -> np.ndarray:
    """Z expectations, shape (B, U), for B circuits evaluated at once.

    ``observations`` are B basis-state indices, shape (B,), or B real
    vectors for the angle encoding, shape (B, U); they set each row's
    input state and so the batch size.  ``thetas`` is the flat (3UL,)
    parameter vector that every row shares, or (B, 3UL).  Basis inputs on
    the block path read rows of the cached Z table.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    obs = _observations(model, observations)
    blocks = _blocks(model, thetas)
    if blocks is not None and obs.ndim == 1:
        _, _, z_table = blocks
        return z_table[obs]
    return readout(model, _output_states(model, thetas, obs, blocks))


def forward(model: VqcModel, x) -> np.ndarray:
    """Encode -> L layers -> per-wire Z readout; each output in [-1, 1].

    ``x`` is a length-U real vector, or a basis-state index for discrete
    observations.
    """
    return run_circuit_batch(model, model.params, [x])[0]


def grad_batch(model: VqcModel, upstreams: np.ndarray, observations,
               shift: Optional[float] = None,
               psi: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact gradients for n observations at once; shape (n, 3UL).

    ``observations`` are n basis-state indices, shape (n,), or n real
    vectors, shape (n, U), as :func:`run_circuit_batch` takes them.  Row i
    is d(upstreams[i] . z_i)/d(theta) where z_i is the analytic forward
    output for observation i.  By default (``shift=None``) this is the
    adjoint method that training uses: n forward rows and one reverse
    sweep; ``psi``, the observations' :func:`output_states`, replaces
    its forward pass.  An explicit ``shift`` runs the parameter-shift rule
    instead, all 2 * 3UL * n shifted circuits as a single batch; that is
    the path of :func:`parameter_shift_grad`.
    """
    if shift is None:
        return _adjoint_grad(model, upstreams, observations, psi)
    n, n_params = upstreams.shape[0], model.num_params
    theta = model.params
    # rows: input-major, then parameter, then (+, -) shift
    thetas = np.tile(theta, (n * n_params * 2, 1))
    k = np.arange(n_params)
    block = np.zeros((n_params * 2, n_params))
    block[2 * k, k] = shift
    block[2 * k + 1, k] = -shift
    thetas += np.tile(block, (n, 1))
    z = run_circuit_batch(model, thetas, np.repeat(
        np.asarray(observations), n_params * 2, axis=0))
    z = z.reshape(n, n_params, 2, model.num_qubits)
    df = (z[:, :, 0, :] - z[:, :, 1, :]) / 2.0
    return np.einsum("npw,nw->np", df, upstreams)


def _adjoint_grad(model: VqcModel, upstreams: np.ndarray, observations,
                  psi: Optional[np.ndarray]) -> np.ndarray:
    """Adjoint differentiation (Jones & Gacon 2020, arXiv:2009.02823).

    After the forward pass to psi, lambda = sum_w upstream_w Z_w psi.  The
    reverse sweep reads each layer's derivatives at its end, then
    un-applies the layer to psi and lambda, stacked as one (2, n, 2^U)
    array: as one matmul with the block's adjoint on the block path, else
    gate by gate.
    """
    u = model.num_qubits
    theta = model.params
    blocks = _blocks(model, theta)
    if psi is None:
        psi = _output_states(model, theta, _observations(model, observations),
                             blocks)
    lam = psi * (upstreams @ simcore.z_signs(u, tuple(range(u))))
    pair = np.stack([psi, lam])
    grads = np.empty((psi.shape[0], theta.size))
    for layer in reversed(range(model.depth)):
        cols = slice(3 * u * layer, 3 * u * (layer + 1))
        grads[:, cols] = _layer_derivatives(pair, u, theta[cols])
        if blocks is not None:
            layers, _, _ = blocks
            pair = pair @ layers[layer].conj().T
        else:
            pair = _unapply_gates(pair, u, _layer_gates(
                u, model.entangler, layer), theta)
    return grads


def _layer_derivatives(pair: np.ndarray, num_qubits: int,
                       angles: np.ndarray) -> np.ndarray:
    """(n, 3U) derivatives of one layer's 3U angles, from (psi, lambda) at
    the layer's end, in the flat (alpha, beta, gamma) layout.

    The layer's rotation blocks act on distinct wires and so commute: each
    can be taken as the layer's last gate.  There, with R = R_Z R_Y R_X,
    d/dt R = (-i a.sigma / 2) R for the rotated axis a of each angle: RX's
    is R_Z R_Y x, RY's R_Z y and RZ's z.  So each derivative is
    Re<lambda|-i a.sigma|psi> = a . Im<lambda|sigma|psi>.
    """
    u = num_qubits
    psi, lam_conj = pair[0], pair[1].conj()
    signs = simcore.z_signs(u, tuple(range(u)))
    # x, y, z[n, w] = Im<lambda|sigma|psi> for sigma = X, Y, Z on wire w
    z = (lam_conj * psi).imag @ signs.T
    x, y = np.empty_like(z), np.empty_like(z)
    for w in range(u):
        # Y_w = -i Z_w X_w, so both read conj(lambda) times X_w psi
        overlaps = lam_conj * simcore.apply_x_batch(psi, u, w)
        x[:, w] = overlaps.imag.sum(axis=-1)
        y[:, w] = -(overlaps.real @ signs[w])
    _, beta, gamma = angles.reshape(3, -1)
    cb, sb, cg, sg = np.cos(beta), np.sin(beta), np.cos(gamma), np.sin(gamma)
    return np.concatenate(
        [cb * (cg * x + sg * y) - sb * z, cg * y - sg * x, z], axis=1)


def parameter_shift_grad(model: VqcModel, x, upstream: np.ndarray) -> np.ndarray:
    """Exact gradient of upstream . forward(model, x) w.r.t. the flat
    params, by the parameter-shift rule with shift :data:`SHIFT`."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (model.num_qubits,):
        raise ValueError(
            f"expected upstream of length {model.num_qubits}, "
            f"got shape {upstream.shape}")
    return grad_batch(model, upstream[None, :], [x], shift=SHIFT)[0]


def finite_diff_grad(model: VqcModel, x, upstream: np.ndarray,
                     h: float = 1e-4) -> np.ndarray:
    """Central-difference oracle for :func:`parameter_shift_grad`."""
    if not 1e-6 <= h <= 1e-2:
        raise ValueError(f"h must be in [1e-6, 1e-2], got {h}")
    upstream = np.asarray(upstream, dtype=np.float64)
    n_params = model.num_params
    theta = model.params
    thetas = np.tile(theta, (n_params * 2, 1))
    k = np.arange(n_params)
    thetas[2 * k, k] += h
    thetas[2 * k + 1, k] -= h
    z = run_circuit_batch(model, thetas, np.repeat([x], n_params * 2, axis=0))
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
