"""Output checks for the benchmark, run outside the timed region.

Each circuit check recomputes the expected Z readout through vqlab's
dense test oracle (``GateOp`` -> ``embed_gate`` -> ``dense_apply_oracle``),
a path that shares no code with the batched engine being timed.  Encoding
angles are recomputed here from their definition, not through vqlab.
"""

from __future__ import annotations

import json
import math

import numpy as np

ORACLE_TOL = 1e-12
FD_TOL = 1e-5


def oracle_z(vq, model, input_state, enc_angles=None) -> np.ndarray:
    """Dense-oracle <Z> per wire for one circuit input.

    ``input_state`` is a Statevector to start from; ``enc_angles`` adds
    one RY per wire before the layers, as angle encoding does.
    """
    simcore = vq.simcore
    u = model.num_qubits
    gates = []
    if enc_angles is not None:
        gates += [simcore.GateOp("RY", (w,), float(a))
                  for w, a in enumerate(enc_angles)]
    for layer in model.layers:
        gates += [simcore.GateOp("CNOT", pair)
                  for pair in vq.vqc.entangler_pairs(u, model.entangler)]
        for wire in range(u):
            gates.append(simcore.GateOp("RX", (wire,), float(layer.alphas[wire])))
            gates.append(simcore.GateOp("RY", (wire,), float(layer.betas[wire])))
            gates.append(simcore.GateOp("RZ", (wire,), float(layer.gammas[wire])))
    state = input_state
    for gate in gates:
        state = simcore.dense_apply_oracle(state, simcore.embed_gate(gate, u))
    return np.array([simcore.expectation_z(state, w) for w in range(u)])


def encoding_angles(x, spec) -> np.ndarray:
    """scale * phi(x) from the definition of each nonlinearity."""
    phi = {"sigmoid": lambda v: 1.0 / (1.0 + math.exp(-v)),
           "clamp01": lambda v: min(max(v, 0.0), 1.0),
           "none": lambda v: v}[spec.nonlinearity]
    return np.array([spec.scale * phi(float(v)) for v in x])


def check_agent(vq, agent, metrics, episodes: int, probes) -> list[str]:
    """Trained-agent checks: finite state, one metrics row per episode,
    and q_values equal to the dense oracle at each probe observation."""
    problems = []
    if not np.all(np.isfinite(agent.online.params)):
        problems.append("non-finite circuit parameters")
    if not np.all(np.isfinite(agent.action_scale)):
        problems.append("non-finite action_scale")
    if len(metrics) != episodes:
        problems.append(f"{len(metrics)} metrics rows for {episodes} episodes")
    model = agent.online
    for obs in probes:
        if isinstance(obs, (int, np.integer)):
            z = oracle_z(vq, model, vq.simcore.basis_state(model.num_qubits,
                                                           int(obs)))
        else:
            z = oracle_z(vq, model, vq.simcore.zero_state(model.num_qubits),
                         encoding_angles(obs, model.encoding))
        want = agent.action_scale * z[:agent.action_count]
        got = vq.qrl.q_values(agent, obs)
        dev = float(np.max(np.abs(got - want)))
        if not dev <= ORACLE_TOL:
            problems.append(f"q_values off the dense oracle by {dev:.2e}")
    return problems


def check_quanv(vq, code: int, out_path, map2d, filt, k: int, stride: int,
                patch_rc) -> list[str]:
    """CLI quanv checks: exit 0, output shape, range, and one patch
    (``patch_rc`` in output coordinates, or None) against the oracle."""
    if code != 0:
        return [f"vqlab quanv exited {code}"]
    doc = json.loads(out_path.read_text())
    h_out = (map2d.shape[0] - k) // stride + 1
    w_out = (map2d.shape[1] - k) // stride + 1
    u = k * k
    want_shape = [h_out, w_out, u]
    if doc.get("shape") != want_shape:
        return [f"output shape {doc.get('shape')}, expected {want_shape}"]
    data = np.asarray(doc["data"], dtype=np.float64).reshape(want_shape)
    problems = []
    if not (np.all(np.isfinite(data)) and np.all(np.abs(data) <= 1.0)):
        problems.append("output values outside [-1, 1]")
    if patch_rc is not None:
        r, c = patch_rc
        patch = map2d[r * stride:r * stride + k, c * stride:c * stride + k]
        unit = np.clip((patch - filt.v_min) / (filt.v_max - filt.v_min), 0, 1)
        angles = encoding_angles(unit.reshape(u), filt.model.encoding)
        want = oracle_z(vq, filt.model, vq.simcore.zero_state(u), angles)
        dev = float(np.max(np.abs(data[r, c] - want)))
        if not dev <= ORACLE_TOL:
            problems.append(f"patch ({r}, {c}) off the dense oracle by {dev:.2e}")
    return problems


def check_grad(vq, model, x, upstream, grad, against_fd: bool) -> list[str]:
    """Gradient checks: finite, right length, and (when sampled) equal to
    central finite differences to the acceptance tolerance."""
    if grad.shape != (model.num_params,) or not np.all(np.isfinite(grad)):
        return [f"gradient of shape {grad.shape} is malformed or non-finite"]
    if against_fd:
        fd = vq.vqc.finite_diff_grad(model, x, upstream)
        dev = float(np.max(np.abs(grad - fd)))
        if not dev <= FD_TOL:
            return [f"gradient off finite differences by {dev:.2e}"]
    return []
