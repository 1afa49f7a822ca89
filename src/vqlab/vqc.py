"""Angle-encoded variational quantum circuits with exact gradients.

Pipeline: RY angle encoding of a classical vector (or a basis-state index
for discrete observations), L layers of entangler CNOTs and one fused
RX-RY-RZ rotation per wire, per-wire Pauli-Z readout.  Readouts are
analytic expectations; shot sampling lives only in
:func:`simcore.sample_z_mean`.

Gradients w.r.t. the rotation angles are exact two ways.  Training uses
adjoint differentiation (:func:`grad_batch` by default): one forward pass,
one reverse sweep over the layers and one call for every layer's
derivatives, whatever the parameter count.  The
parameter-shift rule, exact at its one shift :data:`SHIFT` = pi/2 and
what hardware can run, is ``grad_batch(..., parameter_shift=True)``; it
backs :func:`parameter_shift_grad`, ``vqlab grad-check`` and acceptance
criterion 3; a central finite difference oracle is kept alongside both
for verification.  Both shift rules run one set batch per layer.

Evaluation is vectorized and runs layer by layer: a batch of circuits is
one (B, 2^U) amplitude array, and :func:`layer_view` reads the flat
parameters, one vector or a stack of S parameter sets, as layer angles.
The per-gate path applies each layer as two simcore kernel calls, its
entangler CNOTs and then each wire's R = RZ RY RX as one 2x2 matrix, and
un-applies it with each R's conjugate transpose and the CNOTs in reverse
order.

Small circuits take the block path.  With one shared parameter vector
and at most :data:`BLOCK_MAX_QUBITS` qubits, each layer is one dense
2^U x 2^U block; one CNOT and one rotation kernel call on the identity
build them all, cached per parameter vector (the key is the parameter
values, so nothing goes stale).  A forward pass is one matmul by their
product, or for basis inputs a row lookup in a cached Z table, and the
adjoint un-applies each layer with one matmul.
Parameter sets and larger circuits take the per-gate path.  The
threshold is measured: at L=2 and 32 rows, block build plus forward and
adjoint beats the per-gate path up to U=5 and loses from U=6.

A set batch, S parameter vectors, runs each on every observation.  Its
states start as (n, 1, 2^U): a layer whose angles are equal in every set
runs once, in the shared-angle kernel form, and the first layer whose
angles differ broadcasts them to (n, S, 2^U) in its rotation's matmul.

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
MAX_INIT_SCALE = sys.float_info.max / 2  # so 2 * init_scale is finite
# shared-parameter circuits up to this many qubits run as cached per-layer
# blocks; their depth * 4^U block entries (16 bytes each) are capped too
BLOCK_MAX_QUBITS = 5
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
        if not 0 <= init_scale <= MAX_INIT_SCALE:
            raise ValueError(f"init_scale must lie in [0, {MAX_INIT_SCALE:g}]")
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


def _layer_rotations(angles: np.ndarray) -> np.ndarray:
    """Each wire's R = RZ(gamma) RY(beta) RX(alpha) at (..., 3, U)
    :func:`layer_view` angles, as (2, 2, U, ...) matrices for
    :func:`simcore.apply_rotation_batch`, in closed form from the cosines
    c and sines s of the half angles."""
    # angles as (3, U, ...): a and b come out as (U, ...), so R holds the
    # batch axes last, along which the kernel's Kronecker products run
    half = np.moveaxis(angles, (-2, -1), (0, 1)) / 2
    (ca, cb, cg), (sa, sb, sg) = np.cos(half), np.sin(half)
    phase = cg - 1j * sg
    a = phase * (cb * ca + 1j * sb * sa)
    b = -phase * (sb * ca + 1j * cb * sa)
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def _apply_layers(amps: np.ndarray, num_qubits: int, pairs: list,
                  angles: np.ndarray) -> np.ndarray:
    """Layers in order, two simcore kernel calls each: the entangler CNOTs
    ``pairs`` as one permutation, then each wire's :func:`_layer_rotations`.
    ``angles`` is a :func:`layer_view`, (L, 3, U) shared by every state or
    (S, L, 3, U), one set per column of (n, 1 or S, 2^U) ``amps``.  A
    layer whose angles are equal in every set runs in the shared form; a
    layer whose angles differ broadcasts the states to (n, S, 2^U)."""
    for layer in range(angles.shape[-3]):
        amps = simcore.apply_cnot_batch(amps, num_qubits, pairs)
        here = angles[..., layer, :, :]
        if here.ndim == 3 and len(here) and np.all(here == here[0]):
            here = here[0]
        amps = simcore.apply_rotation_batch(amps, num_qubits,
                                            _layer_rotations(here))
    return amps


def _unapply_layer(amps: np.ndarray, num_qubits: int, pairs: list,
                   angles: np.ndarray) -> np.ndarray:
    """Undo one layer of :func:`_apply_layers` at its shared (3, U)
    ``angles``: each wire's R^dagger, then the CNOTs in reverse order."""
    amps = simcore.apply_rotation_batch(
        amps, num_qubits, _layer_rotations(angles).swapaxes(0, 1).conj())
    return simcore.apply_cnot_batch(amps, num_qubits, pairs[::-1])


@functools.lru_cache(maxsize=4)
def _circuit_blocks(num_qubits: int, entangler: str,
                    theta_bytes: bytes) -> tuple:
    """A small circuit at one flat parameter vector as read-only dense
    matrices (layers, product, z_table).

    ``layers[l]`` is layer l's unitary, transposed to act on amplitude
    rows (``amps @ layers[l]`` applies the layer).  All L are built at
    once: one CNOT call on the 2^U identity rows, shared by every layer,
    then one rotation call with the layers as its batch axis.  Row i of
    ``product`` is the output state of basis input i, and row i of
    ``z_table`` its Z readout.  The key holds the parameter values, so a
    changed parameter vector is a new entry and no entry can go stale.
    """
    eye = np.eye(2 ** num_qubits, dtype=np.complex128)
    angles = layer_view(np.frombuffer(theta_bytes), num_qubits)
    permuted = simcore.apply_cnot_batch(
        eye, num_qubits, entangler_pairs(num_qubits, entangler))
    layers = tuple(simcore.apply_rotation_batch(
        permuted[None].repeat(len(angles), axis=0), num_qubits,
        _layer_rotations(angles[:, None])))
    product = functools.reduce(np.matmul, layers, eye)
    z_table = simcore.expect_z_batch(product, num_qubits)
    for array in layers + (product, z_table):
        array.setflags(write=False)
    return layers, product, z_table


def _blocks(model: VqcModel, thetas: np.ndarray) -> Optional[tuple]:
    """The cached :func:`_circuit_blocks` of ``model`` at ``thetas``, or
    None where the per-gate path runs instead: for parameter sets,
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
    An empty list is a batch of no basis indices.
    """
    u = model.num_qubits
    obs = np.asarray(observations)
    if obs.shape == (0,):
        obs = obs.astype(np.int64)
    if obs.ndim == 1:
        if obs.dtype.kind not in "iu" or np.any((obs < 0) | (obs >= 2 ** u)):
            raise ValueError(
                f"basis indices must be integers in [0, {2 ** u}), got {obs}")
    elif obs.ndim != 2 or obs.shape[1] != u:
        raise ValueError(
            f"expected input of length {u}, got shape {obs.shape[1:]}")
    return obs


def _checked(name: str, values, shapes: list, dtype=float) -> np.ndarray:
    """``values`` as a ``dtype`` array, which must have one of ``shapes``."""
    values = np.asarray(values, dtype=dtype)
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
    # real and rows last, so each product runs along the whole batch
    half = np.ascontiguousarray(encoding_angles(obs, model.encoding).T) / 2.0
    cos_sin = np.stack([np.cos(half), np.sin(half)], axis=1)  # (U, 2, B)
    amps = np.ones((1, len(obs)))
    for w in range(u):
        # wire w becomes the next, less significant bit of the index
        amps = (amps[:, None] * cos_sin[w]).reshape(2 ** (w + 1), len(obs))
    return amps.T.astype(complex)


def _output_states(model: VqcModel, thetas: np.ndarray, obs: np.ndarray,
                   blocks: Optional[tuple]) -> np.ndarray:
    """(n, 2^U) states after the circuit, or (n, S, 2^U) for S sets."""
    if blocks is None:
        u, amps = model.num_qubits, _input_states(model, obs)
        if thetas.ndim == 2:  # one column until a layer's sets differ
            amps = amps[:, None]
        amps = _apply_layers(amps, u, entangler_pairs(u, model.entangler),
                             layer_view(thetas, u))
        if thetas.ndim == 2:  # sets that share every layer kept one column
            amps = np.broadcast_to(amps, (len(obs), len(thetas), 2 ** u))
        return amps
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
    return simcore.expect_z_batch(states, model.num_qubits)


def run_circuit_batch(model: VqcModel, thetas: np.ndarray,
                      observations) -> np.ndarray:
    """Z expectations of the circuit on n observations at once.

    ``observations`` are n basis-state indices, shape (n,), or n real
    vectors for the angle encoding, shape (n, U).  ``thetas`` is one
    (3UL,) parameter vector, giving (n, U), or S parameter sets, (S, 3UL),
    each run on every observation, giving (n, S, U); another shape is
    rejected.  Basis inputs on the block path read the cached Z table.
    """
    obs = _observations(model, observations)
    n = model.num_params
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim not in (1, 2) or thetas.shape[-1] != n:
        raise ValueError(f"expected parameters of shape ({n},) or (S, {n}), "
                         f"got shape {thetas.shape}")
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
    parameter-shift rule at :data:`SHIFT` instead, one batch of 2 * 3U
    shifted parameter sets per layer (:func:`_shifted_differences`); that
    is the path of :func:`parameter_shift_grad`, and it takes no ``psi``.
    """
    n = len(observations)
    upstreams = _checked("upstreams", upstreams, [(n, model.num_qubits)])
    if not parameter_shift:
        return _adjoint_grad(model, upstreams, observations, psi)
    if psi is not None:
        raise ValueError("psi is the adjoint's; parameter_shift takes none")
    df = _shifted_differences(model, observations, SHIFT) / 2.0
    return np.einsum("npw,nw->np", df, upstreams)


def _shifted_differences(model: VqcModel, observations,
                         shift: float) -> np.ndarray:
    """z(theta + shift e_p) - z(theta - shift e_p), shape (n, 3UL, U), for
    n observations: per layer, its 2 * 3U shifted sets in one batch.  A
    parameter so large that theta +/- shift rounds to theta is rejected."""
    theta, u = model.params, model.num_qubits
    stuck = np.flatnonzero((theta + shift == theta) | (theta - shift == theta))
    if stuck.size:
        p = stuck[0]
        raise ValueError(f"parameter {p} is {theta[p]:g}, too large to "
                         f"shift by {shift:g}")
    diffs, k = np.empty((len(observations), theta.size, u)), np.arange(3 * u)
    for start in range(0, theta.size, k.size):
        # sets: the layer's parameters in order, each shifted by + then -
        thetas = np.tile(theta, (2 * k.size, 1))
        thetas[2 * k, start + k] += shift
        thetas[2 * k + 1, start + k] -= shift
        z = run_circuit_batch(model, thetas, observations)
        diffs[:, start + k] = z[:, 0::2] - z[:, 1::2]
    return diffs


def _adjoint_grad(model: VqcModel, upstreams: np.ndarray, observations,
                  psi: Optional[np.ndarray]) -> np.ndarray:
    """Adjoint differentiation (Jones & Gacon 2020, arXiv:2009.02823).

    After the forward pass to psi, lambda = sum_w upstream_w Z_w psi.  The
    reverse sweep keeps the pair (psi, lambda) at each layer's end in a
    (2, L, n, 2^U) stack, and un-applies every layer but the first from
    the pair: as one matmul with the block's adjoint on the block path,
    else gate by gate.  One :func:`_layer_derivatives` call then reads
    every layer's derivatives from the stack.
    """
    u = model.num_qubits
    theta = model.params
    blocks = _blocks(model, theta)
    if psi is None:
        psi = _output_states(model, theta, _observations(model, observations),
                             blocks)
    psi = _checked("psi", psi, [(len(upstreams), 2 ** u)], complex)
    lam = psi * (upstreams @ simcore.z_signs(u))
    pair = np.array([psi, lam])
    ends = np.empty((2, model.depth) + psi.shape, complex)
    angles, pairs = layer_view(theta, u), entangler_pairs(u, model.entangler)
    for layer in reversed(range(model.depth)):
        ends[:, layer] = pair
        if layer and blocks is not None:
            pair = pair @ blocks[0][layer].conj().T
        elif layer:
            pair = _unapply_layer(pair, u, pairs, angles[layer])
    derivatives = _layer_derivatives(ends, u, angles)  # (L, n, 3, U)
    return derivatives.swapaxes(0, 1).reshape(len(psi), theta.size)


def _layer_derivatives(ends: np.ndarray, num_qubits: int,
                       angles: np.ndarray) -> np.ndarray:
    """(L, n, 3, U) derivatives of L layers' (L, 3, U) angles, from the
    (2, L, n, 2^U) stack of (psi, lambda) at each layer's end.

    The layer's rotation blocks act on distinct wires and so commute: each
    can be taken as the layer's last gate.  There, with R = R_Z R_Y R_X,
    d/dt R = (-i a.sigma / 2) R for the rotated axis a of each angle: RX's
    is R_Z R_Y x, RY's R_Z y and RZ's z.  So each derivative is
    Re<lambda|-i a.sigma|psi> = a . Im<lambda|sigma|psi>.
    """
    u = num_qubits
    psi, lam_conj = ends[0], ends[1].conj()
    signs = simcore.z_signs(u)
    # x, y, z[l, n, w] = Im<lambda|sigma|psi> for sigma = X, Y, Z on wire w
    z = (lam_conj * psi).imag @ signs.T
    x, y = np.empty_like(z), np.empty_like(z)
    for w in range(u):
        # Y_w = -i Z_w X_w, so both read conj(lambda) times X_w psi
        # a named operand is never elided into an in-place product, whose
        # scalar loop rounds differently from the one small arrays take
        flipped = simcore.apply_x_batch(psi, u, w)
        overlaps = lam_conj * flipped
        x[..., w] = overlaps.imag.sum(axis=-1)
        y[..., w] = -(overlaps.real @ signs[w])
    beta, gamma = angles[:, 1, None], angles[:, 2, None]
    cb, sb, cg, sg = np.cos(beta), np.sin(beta), np.cos(gamma), np.sin(gamma)
    return np.stack(
        [cb * (cg * x + sg * y) - sb * z, cg * y - sg * x, z], axis=2)


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
    return _shifted_differences(model, [x], h)[0] / (2.0 * h) @ upstream


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
