"""Outside-in tracer for the vqlab benchmark.

The tracer replaces a public name of vqlab with a wrapper at the place its
callers look it up: the module attribute for functions, the class for
methods.  While the tracer is active each wrapped call records a span
(name, start, end, parent span, size) in memory; counter-only names record
just a call count, for functions too small for a span to be affordable.
Nothing inside vqlab is edited, so the benchmark measures the program as
shipped.  :func:`layer_metrics` turns the spans into the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

import numpy as np


def _amps(args):
    return args[0].size


def _rows(args):
    return args[1].shape[0]


# (module, owner, attribute, label, size-of-call) for every spanned name.
# ``owner`` is None for a module-level function, else the class name.
SPANNED = (
    ("simcore", None, "apply_rotation_batch", "simcore.rotation", _amps),
    ("simcore", None, "apply_cnot_batch", "simcore.cnot", _amps),
    ("simcore", None, "expect_z_batch", "simcore.expect_z", _amps),
    ("vqc", None, "run_circuit_batch", "vqc.run_circuit_batch", _rows),
    ("vqc", None, "grad_batch", "vqc.grad_batch", None),
    ("vqc", None, "parameter_shift_grad", "vqc.parameter_shift_grad", None),
    ("vqc", None, "encoding_angles", "vqc.encoding_angles", None),
    ("qrl", None, "q_values", "qrl.q_values", None),
    ("qrl", None, "train_step", "qrl.train_step", None),
    ("qrl", None, "bellman_targets", "qrl.bellman_targets", None),
    ("qrl", "ReplayBuffer", "sample", "qrl.ReplayBuffer.sample", None),
    ("envs", "FrozenLake", "step", "envs.FrozenLake.step", None),
    ("envs", "CartPole", "step", "envs.CartPole.step", None),
    ("optim", "Adam", "step", "optim.Adam.step", None),
    ("optim", "Sgd", "step", "optim.Sgd.step", None),
    ("optim", None, "loss_and_grad", "optim.loss_and_grad", None),
    ("quanv", None, "extract_patches", "quanv.extract_patches", None),
    ("quanv", None, "quanv_forward", "quanv.quanv_forward", None),
    ("quanv", None, "load_map_csv", "quanv.load_map_csv", None),
    ("quanv", None, "output_to_json", "quanv.output_to_json", None),
    ("cli", None, "main", "cli.main", None),
)

# phi runs once per input coordinate (about a microsecond each), so it is
# counted rather than spanned: its time stays in its caller's self time.
COUNTED = (("vqc", None, "phi", "vqc.phi"),)

GRAD_LABELS = ("vqc.grad_batch", "vqc.parameter_shift_grad")
KERNELS = (("rotation", 2), ("cnot", 2), ("expect_z", 1))
AMP_BYTES = 16  # complex128

_MS = 1e-3
_US = 1e-6

# name -> unit, in the order of BENCHMARK.json's per_layer list
PER_LAYER_UNITS = {
    "simcore.rotation.calls": "count",
    "simcore.rotation.self_s": "s",
    "simcore.rotation.ns_per_amp": "ns/amp",
    "simcore.cnot.calls": "count",
    "simcore.cnot.ns_per_amp": "ns/amp",
    "simcore.expect_z.calls": "count",
    "simcore.expect_z.ns_per_amp": "ns/amp",
    "simcore.bytes_moved_computed": "B",
    "simcore.share": "fraction",
    "vqc.run_circuit_batch.calls": "count",
    "vqc.run_circuit_batch.rows": "count",
    "vqc.run_circuit_batch.self_s": "s",
    "vqc.run_circuit_batch.rows_per_s": "1/s",
    "vqc.grad.calls": "count",
    "vqc.grad.s": "s",
    "vqc.grad.rows_per_gradient": "count",
    "vqc.encoding_angles.calls": "count",
    "vqc.encoding_angles.self_s": "s",
    "vqc.phi.calls": "count",
    "qrl.q_values.calls": "count",
    "qrl.q_values_us.p50": "us",
    "qrl.q_values_us.p90": "us",
    "qrl.train_step_ms.p50": "ms",
    "qrl.train_step_ms.p90": "ms",
    "qrl.bellman_targets.self_s": "s",
    "qrl.replay_sample.self_s": "s",
    "qrl.circuit_calls_per_env_step": "count",
    "qrl.act_share": "fraction",
    "qrl.train_share": "fraction",
    "envs.step.calls": "count",
    "envs.step_us.p50": "us",
    "envs.share": "fraction",
    "optim.step.calls": "count",
    "optim.step_us.p50": "us",
    "optim.loss_and_grad_us.p50": "us",
    "quanv.forward_ms.p50": "ms",
    "quanv.forward.self_ms.p50": "ms",
    "quanv.extract_patches_ms.p50": "ms",
    "quanv.load_map_csv_ms.p50": "ms",
    "quanv.output_to_json_ms.p50": "ms",
    "cli.self_ms.p50": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


class Tracer:
    """Wraps names in place; records spans only while ``active`` is set."""

    def __init__(self, capacity: int = 1 << 21):
        self.labels: list[str] = []
        # (label index, start ns, end ns, parent, size) per span.  The slots
        # exist up front: a list that grows while the program runs moves
        # where the allocator puts the program's own arrays, which measurably
        # changes the program's speed (most likely by stopping heap trimming).
        self.slots: list = [None] * capacity
        self.recorded = 0
        self.counts: dict[str, int] = {}
        self.active = False
        self._stack: list[int] = []
        self._patches: list = []

    def install(self, modules) -> None:
        """Wrap every SPANNED and COUNTED name; ``modules`` maps short
        module names ("simcore", ...) to the imported vqlab modules."""
        for module, owner, attr, label, size in SPANNED:
            self._patch(modules[module], owner, attr,
                        lambda fn, label=label, size=size:
                        self._spanning(fn, label, size))
        for module, owner, attr, label in COUNTED:
            self._patch(modules[module], owner, attr,
                        lambda fn, label=label: self._counting(fn, label))

    def restore(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, module, owner, attr, make_wrapper) -> None:
        target = module if owner is None else getattr(module, owner)
        original = getattr(target, attr)
        setattr(target, attr, functools.wraps(original)(make_wrapper(original)))
        self._patches.append((target, attr, original))

    def _spanning(self, fn, label, size):
        index = len(self.labels)
        self.labels.append(label)
        slots, stack, clock = self.slots, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            slot = self.recorded
            if slot == len(slots):
                slots.extend([None] * slot)
            self.recorded = slot + 1
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                slots[slot] = (index, start, end, parent,
                               size(args) if size else 0)
        return traced

    def _counting(self, fn, label):
        self.counts[label] = 0
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[label] += 1
            return fn(*args, **kwargs)
        return counted

    @property
    def spans(self) -> list:
        return self.slots[:self.recorded]

    def write(self, path: Path) -> None:
        """Dump the spans as tab-separated text: one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("span\tname\tstart_ns\tend_ns\tparent\tsize\n")
            for slot, (index, start, end, parent, size) in enumerate(self.spans):
                handle.write(f"{slot}\t{self.labels[index]}\t{start}\t{end}"
                             f"\t{parent}\t{size}\n")
            for label, count in self.counts.items():
                handle.write(f"-\t{label}\t-\t-\t-\t{count}\n")

    def calls(self) -> dict[str, int]:
        """Calls recorded per wrapped name, counters included."""
        out = {label: 0 for label in self.labels}
        for index, *_ in self.spans:
            out[self.labels[index]] += 1
        out.update(self.counts)
        return out


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, busy_s: float, overhead_pct: float) -> dict:
    """Per-layer metrics from the recorded spans.

    ``busy_s`` is the wall time of the traced operations, the base of every
    share.  Self time is a span's duration minus its direct children's.
    """
    spans = tracer.spans
    labels = tracer.labels
    n = len(spans)
    table = np.array(spans, dtype=np.int64).reshape(n, 5)
    which, dur, parent, size = (table[:, 0], table[:, 2] - table[:, 1],
                                table[:, 3], table[:, 4])
    child = np.zeros(n, dtype=np.int64)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_ns = dur - child
    by_name = {label: np.flatnonzero(which == index)
               for index, label in enumerate(labels)}

    def pick(*wanted):
        return np.concatenate([by_name[w] for w in wanted])

    def calls(*wanted):
        return int(pick(*wanted).size)

    def total_s(values, *wanted):
        return float(values[pick(*wanted)].sum()) * 1e-9

    def pct(values, scale, q, *wanted):
        return _pct(values[pick(*wanted)] * 1e-9 / scale, q)

    busy = max(busy_s, 1e-12)
    out: dict[str, float] = {}

    kernel_self = 0.0
    moved = 0
    for kernel, passes in KERNELS:
        label = f"simcore.{kernel}"
        amps = int(size[by_name[label]].sum())
        ns = float(self_ns[by_name[label]].sum())
        out[f"{label}.calls"] = calls(label)
        out[f"{label}.ns_per_amp"] = ns / amps if amps else 0.0
        kernel_self += ns * 1e-9
        moved += passes * AMP_BYTES * amps
    out["simcore.rotation.self_s"] = total_s(self_ns, "simcore.rotation")
    out["simcore.bytes_moved_computed"] = float(moved)
    out["simcore.share"] = kernel_self / busy

    rcb = "vqc.run_circuit_batch"
    rows = int(size[by_name[rcb]].sum())
    rcb_s = total_s(dur, rcb)
    out[f"{rcb}.calls"] = calls(rcb)
    out[f"{rcb}.rows"] = rows
    out[f"{rcb}.self_s"] = total_s(self_ns, rcb)
    out[f"{rcb}.rows_per_s"] = rows / rcb_s if rcb_s else 0.0

    is_grad = np.zeros(n, dtype=bool)
    is_grad[pick(*GRAD_LABELS)] = True
    # a parent is recorded before its children, so one forward pass
    # propagates "some ancestor is a grad span"
    under_grad = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(nested):
        p = parent[i]
        under_grad[i] = under_grad[p] or is_grad[p]
    outer_grad = is_grad & ~under_grad
    grads = int(outer_grad.sum())
    grad_rows = int(size[by_name[rcb]][under_grad[by_name[rcb]]].sum())
    out["vqc.grad.calls"] = grads
    out["vqc.grad.s"] = float(dur[outer_grad].sum()) * 1e-9
    out["vqc.grad.rows_per_gradient"] = grad_rows / grads if grads else 0.0

    out["vqc.encoding_angles.calls"] = calls("vqc.encoding_angles")
    out["vqc.encoding_angles.self_s"] = total_s(self_ns, "vqc.encoding_angles")
    out["vqc.phi.calls"] = tracer.counts["vqc.phi"]

    out["qrl.q_values.calls"] = calls("qrl.q_values")
    out["qrl.q_values_us.p50"] = pct(dur, _US, 50, "qrl.q_values")
    out["qrl.q_values_us.p90"] = pct(dur, _US, 90, "qrl.q_values")
    out["qrl.train_step_ms.p50"] = pct(dur, _MS, 50, "qrl.train_step")
    out["qrl.train_step_ms.p90"] = pct(dur, _MS, 90, "qrl.train_step")
    out["qrl.bellman_targets.self_s"] = total_s(self_ns, "qrl.bellman_targets")
    out["qrl.replay_sample.self_s"] = total_s(self_ns, "qrl.ReplayBuffer.sample")
    env_steps = calls("envs.FrozenLake.step", "envs.CartPole.step")
    out["qrl.circuit_calls_per_env_step"] = (
        calls(rcb) / env_steps if env_steps else 0.0)
    out["qrl.act_share"] = total_s(dur, "qrl.q_values") / busy
    out["qrl.train_share"] = total_s(dur, "qrl.train_step") / busy

    out["envs.step.calls"] = env_steps
    out["envs.step_us.p50"] = pct(dur, _US, 50, "envs.FrozenLake.step",
                                  "envs.CartPole.step")
    out["envs.share"] = total_s(dur, "envs.FrozenLake.step",
                                "envs.CartPole.step") / busy

    out["optim.step.calls"] = calls("optim.Adam.step", "optim.Sgd.step")
    out["optim.step_us.p50"] = pct(dur, _US, 50, "optim.Adam.step",
                                   "optim.Sgd.step")
    out["optim.loss_and_grad_us.p50"] = pct(dur, _US, 50, "optim.loss_and_grad")

    out["quanv.forward_ms.p50"] = pct(dur, _MS, 50, "quanv.quanv_forward")
    out["quanv.forward.self_ms.p50"] = pct(self_ns, _MS, 50,
                                           "quanv.quanv_forward")
    for part in ("extract_patches", "load_map_csv", "output_to_json"):
        out[f"quanv.{part}_ms.p50"] = pct(dur, _MS, 50, f"quanv.{part}")
    out["cli.self_ms.p50"] = pct(self_ns, _MS, 50, "cli.main")

    top_s = float(dur[~nested].sum()) * 1e-9
    out["trace.overhead_pct"] = overhead_pct
    out["trace.unattributed_pct"] = 100.0 * (busy_s - top_s) / busy
    return {key: {"value": float(out[key]), "unit": unit}
            for key, unit in PER_LAYER_UNITS.items()}
