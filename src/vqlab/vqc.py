"""Angle-encoded variational quantum circuits with exact gradients.

Pipeline: RY angle encoding of a classical vector (or a basis-state index
for discrete observations), L layers of entangler CNOTs and one fused
RX-RY-RZ rotation per wire, per-wire Pauli-Z readout.  Readouts are
analytic expectations; shot sampling lives only in
:func:`simcore.sample_z_mean`.

Gradients w.r.t. the rotation angles are exact two ways.  Training uses
adjoint differentiation (:func:`grad_batch` by default): one forward pass
and one reverse sweep over the layers, whatever the parameter count.  The
parameter-shift rule, exact at its one shift :data:`SHIFT` = pi/2 and
what hardware can run, is ``grad_batch(..., parameter_shift=True)``; it
backs :func:`parameter_shift_grad`, ``vqlab grad-check`` and acceptance
criterion 3; a central finite difference oracle is kept
alongside both for verification.

Evaluation is vectorized and runs layer by layer: a batch of circuits is
one (B, 2^U) amplitude array, and :func:`layer_view` reads the flat
parameters, shared by every row or one vector per row, as layer angles.

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

Configs and checkpoints share one JSON checker, :func:`parse_document`;
a checkpoint has exactly the keys of :data:`MODEL_KEYS` or its extension.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import simcore

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
        if not math.isfinite(self.scale):
            raise ValueError(f"scale must be finite, got {self.scale}")


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
    """U-qubit, L-layer circuit; parameters live in a flat length-3UL
    vector, laid out as :func:`layer_view` reads it, and must be finite."""

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
        self._params = np.zeros(n)
        if params is not None:
            self.params = params

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
        values = _checked("parameters", values, [self._params.shape])
        if not np.all(np.isfinite(values)):
            raise ValueError("model params must be finite")
        self._params = values.copy()

    @property
    def layers(self) -> list[PqcLayer]:
        return [PqcLayer(*angles)
                for angles in layer_view(self._params, self.num_qubits)]

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


# ---------------------------------------------------------------------------
# Batched engine

def layer_view(params: np.ndarray, num_qubits: int) -> np.ndarray:
    """The flat parameter layout: (..., 3UL) parameters as a (..., L, 3, U)
    view, whose [..., l, k, w] is layer l's RX (k=0), RY (k=1) or RZ (k=2)
    angle on wire w."""
    depth = params.shape[-1] // (3 * num_qubits)
    return params.reshape(params.shape[:-1] + (depth, 3, num_qubits))


def _apply_layers(amps: np.ndarray, num_qubits: int, pairs: list,
                  angles: np.ndarray) -> np.ndarray:
    """Layers in order, gate by gate through the simcore kernels: each
    layer's entangler CNOTs ``pairs``, then one fused RX-RY-RZ per wire.
    ``angles`` is a :func:`layer_view`, (L, 3, U) shared by every row or
    (B, L, 3, U) with one per row."""
    for layer in range(angles.shape[-3]):
        for pair in pairs:
            amps = simcore.apply_cnot_batch(amps, num_qubits, *pair)
        for wire in range(num_qubits):
            amps = simcore.apply_rotation_batch(
                amps, num_qubits, wire, ("RX", "RY", "RZ"),
                angles[..., layer, :, wire])
    return amps


def _unapply_layer(amps: np.ndarray, num_qubits: int, pairs: list,
                   angles: np.ndarray) -> np.ndarray:
    """Undo one layer of :func:`_apply_layers` at its shared (3, U)
    ``angles``: each gate's inverse, last gate first."""
    for wire in reversed(range(num_qubits)):
        amps = simcore.apply_rotation_batch(
            amps, num_qubits, wire, ("RZ", "RY", "RX"), -angles[::-1, wire])
    for pair in reversed(pairs):
        amps = simcore.apply_cnot_batch(amps, num_qubits, *pair)
    return amps


@functools.lru_cache(maxsize=4)
def _circuit_blocks(num_qubits: int, entangler: str,
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
    eye = np.eye(2 ** num_qubits, dtype=np.complex128)
    pairs = entangler_pairs(num_qubits, entangler)
    layers = tuple(_apply_layers(eye, num_qubits, pairs, angles[None])
                   for angles in layer_view(np.frombuffer(theta_bytes),
                                            num_qubits))
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
    return _circuit_blocks(u, model.entangler, thetas.tobytes())


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


def _checked(name: str, values, shapes: list) -> np.ndarray:
    """``values`` as a float array, which must have one of ``shapes``."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape not in shapes:
        expected = " or ".join(map(str, shapes))
        raise ValueError(
            f"expected {name} of shape {expected}, got shape {values.shape}")
    return values


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
        u = model.num_qubits
        return _apply_layers(_input_states(model, obs), u,
                             entangler_pairs(u, model.entangler),
                             layer_view(thetas, u))
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
    input state and so the batch size.  ``thetas``, any parameters of
    ``model``'s shape, is the flat (3UL,) vector that every row shares, or
    (B, 3UL); another shape is rejected.  Basis inputs on the block path
    read rows of the cached Z table.
    """
    obs = _observations(model, observations)
    n = model.num_params
    thetas = _checked("parameters", thetas, [(n,), (len(obs), n)])
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
               parameter_shift: bool = False,
               psi: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact gradients for n observations at once; shape (n, 3UL).

    ``observations`` are n basis-state indices, shape (n,), or n real
    vectors, shape (n, U), as :func:`run_circuit_batch` takes them, and
    ``upstreams`` has shape (n, U).  Row i is d(upstreams[i] . z_i)/d(theta)
    where z_i is the analytic forward output for observation i.  By
    default this is the adjoint method that training uses: n forward rows
    and one reverse sweep; ``psi``, the observations' :func:`output_states`,
    replaces its forward pass.  ``parameter_shift`` runs the
    parameter-shift rule at :data:`SHIFT` instead, all 2 * 3UL * n shifted
    circuits as a single batch; that is the path of
    :func:`parameter_shift_grad`.
    """
    n, n_params = len(observations), model.num_params
    upstreams = _checked("upstreams", upstreams, [(n, model.num_qubits)])
    if not parameter_shift:
        return _adjoint_grad(model, upstreams, observations, psi)
    theta = model.params
    # rows: input-major, then parameter, then (+, -) shift
    thetas = np.tile(theta, (n * n_params * 2, 1))
    k = np.arange(n_params)
    block = np.zeros((n_params * 2, n_params))
    block[2 * k, k] = SHIFT
    block[2 * k + 1, k] = -SHIFT
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
    angles, grad_layers = layer_view(theta, u), layer_view(grads, u)
    pairs = entangler_pairs(u, model.entangler)
    for layer in reversed(range(model.depth)):
        grad_layers[:, layer] = _layer_derivatives(pair, u, angles[layer])
        if blocks is not None:
            layers, _, _ = blocks
            pair = pair @ layers[layer].conj().T
        else:
            pair = _unapply_layer(pair, u, pairs, angles[layer])
    return grads


def _layer_derivatives(pair: np.ndarray, num_qubits: int,
                       angles: np.ndarray) -> np.ndarray:
    """(n, 3, U) derivatives of one layer's (3, U) angles, from (psi,
    lambda) at the layer's end.

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
    _, beta, gamma = angles
    cb, sb, cg, sg = np.cos(beta), np.sin(beta), np.cos(gamma), np.sin(gamma)
    return np.stack(
        [cb * (cg * x + sg * y) - sb * z, cg * y - sg * x, z], axis=1)


def parameter_shift_grad(model: VqcModel, x, upstream: np.ndarray) -> np.ndarray:
    """Exact gradient of upstream . forward(model, x) w.r.t. the flat
    params, by the parameter-shift rule with shift :data:`SHIFT`."""
    upstream = _checked("upstream", upstream, [(model.num_qubits,)])
    return grad_batch(model, upstream[None, :], [x], parameter_shift=True)[0]


def finite_diff_grad(model: VqcModel, x, upstream: np.ndarray,
                     h: float = 1e-4) -> np.ndarray:
    """Central-difference oracle for :func:`parameter_shift_grad`."""
    if not 1e-6 <= h <= 1e-2:
        raise ValueError(f"h must be in [1e-6, 1e-2], got {h}")
    upstream = _checked("upstream", upstream, [(model.num_qubits,)])
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
# JSON documents: configs and checkpoints

# The model checkpoint's keys, each with an example value of its JSON type
MODEL_KEYS = {"schema": MODEL_SCHEMA, "num_qubits": 0, "depth": 0,
              "entangler": "ring", "params": [0.0],
              "encoding": {"nonlinearity": "sigmoid", "scale": 0.0}}


def parse_document(text: str, keys: dict, where: str, complete: bool) -> dict:
    """The JSON object in ``text``, checked against ``keys``, a table of
    example values whose ``schema`` is the one accepted.  Unknown keys are
    rejected and, with ``complete``, missing ones.  A value has its example's
    JSON type: an int passes for a float, a bool for no number, numbers are
    finite, None takes null or a string, a dict is a nested table and a
    list's one entry types every entry.  Raises ValueError naming the key."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    _check_json(doc, keys, where, complete)
    return doc


def _check_json(value, example, name: str, complete: bool) -> None:
    if isinstance(example, (dict, list)):
        ok = isinstance(value, type(example))
        kind = "an object" if isinstance(example, dict) else "a list"
    elif isinstance(example, str) or example is None:
        ok = isinstance(value, str) or value is example
        kind = "null or a string" if example is None else "a string"
    else:  # the bound also rejects the NaN, Infinity and 1e400 of JSON
        ok = (isinstance(value, (int, type(example)))
              and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
        kind = "an integer" if type(example) is int else "a finite number"
    if not ok:
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if isinstance(example, list):
        for i, entry in enumerate(value):
            _check_json(entry, example[0], f"{name}[{i}]", complete)
    elif isinstance(example, dict):
        # the schema first: a document of another version has other keys
        if "schema" in example and value.get("schema") != example["schema"]:
            raise ValueError(f"{name} schema must be {example['schema']!r}, "
                             f"got {value.get('schema')!r}")
        unknown = ", ".join(sorted(set(value) - set(example)))
        if unknown:
            raise ValueError(f"unknown key(s) in {name}: {unknown}")
        for key, entry in example.items():
            if key in value:
                _check_json(value[key], entry, f"{name} {key}", complete)
            elif complete:
                raise ValueError(f"{name} missing key {key!r}")


def model_to_dict(model: VqcModel) -> dict:
    return {"schema": MODEL_SCHEMA, "num_qubits": model.num_qubits,
            "depth": model.depth, "entangler": model.entangler,
            "encoding": asdict(model.encoding),
            "params": model.params.tolist()}


def serialize_model(model: VqcModel) -> str:
    return json.dumps(model_to_dict(model))


def read_checkpoint(text: str, keys: dict) -> tuple[VqcModel, dict]:
    """The model in checkpoint ``text`` and the whole document, checked
    against ``keys``: :data:`MODEL_KEYS`, or a table that extends it."""
    try:
        doc = parse_document(text, keys, "checkpoint", complete=True)
        model = VqcModel(doc["num_qubits"], doc["depth"], doc["params"],
                         doc["entangler"], EncodingSpec(**doc["encoding"]))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    return model, doc


def deserialize_model(text: str) -> VqcModel:
    return read_checkpoint(text, MODEL_KEYS)[0]
