"""vqlab benchmark: four seeded workloads driven through vqlab's public API.

    python3 vqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, closed loop: each operation starts when the previous one
ends.  The run imports vqlab from ``src/`` of this checkout, builds the
workload's inputs from ``--seed``, and measures operations until ``--seconds``
seconds of operation time are recorded.  Every operation's output is
checked outside the timed region; a raised exception, a nonzero CLI exit
or a failed check counts the operation as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json, their times scaled to a fixed machine speed (speed.py).
With ``--trace 1`` operations alternate between untraced
and traced under the outside-in tracer (tracing.py), and the line reports
the per-layer metrics.  Lines before it repeat the metrics for people.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import numpy as np

import checks
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".vqbench"  # scratch files; listed in .gitignore
MODULES = ("simcore", "vqc", "optim", "envs", "qrl", "quanv", "cli")
SETUP_REPEATS = 15
# A run's timings are medians over consecutive stretches of its operations:
# 5 stretches, or up to 20 of at least 50 operations each when the run has
# that many operations (a p90 then rests on 5 or more slower operations).
STRETCHES = (5, 20)
STRETCH_OPS = 50
SETUP_PROBE_S = 5e-3  # reference kernel time after each set-up
SEED_SPACE = 2 ** 31

# traced names each workload must reach (see tracing.SPANNED)
ENGINE_REACH = ("simcore.rotation", "simcore.cnot", "simcore.expect_z",
                "vqc.run_circuit_batch")
TRAINING_REACH = ENGINE_REACH + (
    "vqc.grad_batch", "qrl.q_values", "qrl.train_step", "qrl.bellman_targets",
    "qrl.ReplayBuffer.sample", "optim.Adam.step", "optim.loss_and_grad")


def import_vqlab() -> types.SimpleNamespace:
    """Fresh import of every vqlab module, so each set-up pays import time."""
    for name in [m for m in sys.modules if m.split(".")[0] == "vqlab"]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"vqlab.{m}") for m in MODULES})


class Workload:
    """Defaults for workloads whose operation yields one unit of work."""

    def units(self, out) -> int:
        return 1

    def info(self, ctx, seed: int) -> dict:
        return {}


class Training(Workload):
    """``qrl.run_training`` with a fixed episode count per operation.

    One operation is one training run from a fresh seeded agent; its unit
    of work is a train step (``agent.step``).
    """

    unit = "train step"
    alias = "train_steps_per_s"

    def __init__(self, name, env, episodes, tiny_episodes, reach, **config):
        self.name = name
        self.env = env
        self.episodes = episodes
        self.tiny_episodes = tiny_episodes
        self.reach = TRAINING_REACH + reach
        self.config = config

    def setup(self, vq, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 0])
        episodes = self.tiny_episodes if tiny else self.episodes
        config = vq.qrl.QrlConfig(env=self.env, episodes=episodes,
                                  seed=int(rng.integers(SEED_SPACE)),
                                  **self.config)
        agent = vq.qrl.QrlAgent.for_env(config)
        spec = vq.envs.make_env(self.env).spec
        if spec.discrete:
            probes = list(range(spec.observation_size))
        else:
            probes = list(rng.normal(size=(8, spec.observation_size)))
        return types.SimpleNamespace(vq=vq, config=config, agent=agent,
                                     probes=probes, last=None)

    def prepare(self, ctx, rng):
        return dataclasses.replace(ctx.config,
                                   seed=int(rng.integers(SEED_SPACE)))

    def run(self, ctx, config):
        return ctx.vq.qrl.run_training(config)

    def units(self, out) -> int:
        return out[0].step

    def check(self, ctx, config, out) -> list[str]:
        agent, metrics = out
        if agent.step == 0:
            return ["training made no train steps"]
        return checks.check_agent(ctx.vq, agent, metrics, config.episodes,
                                  ctx.probes)

    def info(self, ctx, seed: int) -> dict:
        """Informational only, never a gate: digest and greedy return."""
        if ctx.last is None:
            return {}
        agent = ctx.last[0]
        qrl = ctx.vq.qrl
        digest = hashlib.sha256(qrl.agent_to_json(agent).encode()).hexdigest()
        greedy = qrl.evaluate(agent, self.env, 1,
                              np.random.default_rng([seed, 2]))
        return {"checkpoint_sha256": digest[:16],
                "greedy_eval_return": greedy["mean_return"]}


class QuanvCli(Workload):
    """``vqlab quanv`` run in-process through ``cli.main``, one seeded map
    and filter seed per operation; the unit of work is a map.

    Each operation reads a new map file and writes into a new output
    directory, as a stream of maps would; both are removed before the next
    operation.  Overwriting one file instead made ext4 start its writeback
    at each close, which put a wait on the shared disk into every
    operation.
    """

    name = "quanv-28"
    unit = "map"
    alias = "maps_per_s"
    reach = ENGINE_REACH + ("vqc.phi", "quanv.extract_patches",
                       "quanv.quanv_forward", "quanv.load_map_csv",
                       "quanv.output_to_json", "cli.main")
    k, stride, depth = 2, 1, 1
    oracle_share = 0.25  # share of maps with one patch checked densely

    def setup(self, vq, seed: int, tiny: bool):
        work = WORK / self.name
        work.mkdir(parents=True, exist_ok=True)
        config_path = work / "config.json"
        config = json.dumps({
            "schema": "vqlab-v1",
            "quanv": {"k": self.k, "stride": self.stride,
                      "depth": self.depth}})
        if not config_path.is_file() or config_path.read_text() != config:
            config_path.write_text(config)
        return types.SimpleNamespace(
            vq=vq, size=8 if tiny else 28, config_path=config_path,
            work=work, count=0, files=None, last=None)

    def prepare(self, ctx, rng):
        if ctx.files is not None:
            map_path, out_dir = ctx.files
            map_path.unlink(missing_ok=True)
            shutil.rmtree(out_dir, ignore_errors=True)
        ctx.count += 1
        ctx.files = (ctx.work / f"map-{ctx.count}.csv",
                     ctx.work / f"out-{ctx.count}")
        seed = int(rng.integers(SEED_SPACE))
        map2d = rng.random((ctx.size, ctx.size))
        ctx.files[0].write_text("".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in map2d))
        side = (ctx.size - self.k) // self.stride + 1
        patch = None
        if rng.random() < self.oracle_share:
            patch = (int(rng.integers(side)), int(rng.integers(side)))
        return seed, map2d, patch, ctx.files

    def run(self, ctx, job):
        map_path, out_dir = job[3]
        argv = ["quanv", str(map_path), "--config", str(ctx.config_path),
                "--seed", str(job[0]), "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            return ctx.vq.cli.main(argv)

    def check(self, ctx, job, code) -> list[str]:
        seed, map2d, patch, (_, out_dir) = job
        filt = ctx.vq.quanv.QuanvFilter.random(
            k=self.k, depth=self.depth, seed=seed, stride=self.stride)
        return checks.check_quanv(ctx.vq, code, out_dir / "quanv_output.json",
                                  map2d, filt, self.k, self.stride, patch)


class WideGrad(Workload):
    """``vqc.parameter_shift_grad`` on a U=12, L=2 ring model; one seeded
    input and upstream per operation; the unit of work is a gradient."""

    name = "wide-grad"
    unit = "gradient"
    alias = "grads_per_s"
    reach = ENGINE_REACH + ("vqc.grad_batch", "vqc.parameter_shift_grad",
                       "vqc.encoding_angles", "vqc.phi")
    fd_share = 0.1  # share of gradients also checked by finite differences

    def setup(self, vq, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 0])
        model = vq.vqc.VqcModel.random(
            6 if tiny else 12, 2, seed=int(rng.integers(SEED_SPACE)),
            init_scale=math.pi, entangler="ring",
            encoding=vq.vqc.EncodingSpec("sigmoid"))
        return types.SimpleNamespace(vq=vq, model=model, checked=0, last=None)

    def prepare(self, ctx, rng):
        u = ctx.model.num_qubits
        x, upstream = rng.normal(size=u), rng.normal(size=u)
        return x, upstream, rng.random() < self.fd_share

    def run(self, ctx, job):
        return ctx.vq.vqc.parameter_shift_grad(ctx.model, job[0], job[1])

    def check(self, ctx, job, grad) -> list[str]:
        x, upstream, sampled = job
        against_fd = sampled or ctx.checked == 0
        ctx.checked += 1
        return checks.check_grad(ctx.vq, ctx.model, x, upstream, grad,
                                 against_fd)


WORKLOADS = {w.name: w for w in (
    Training("frozenlake-train", "frozenlake", 30, 20,
             ("envs.FrozenLake.step",)),
    Training("cartpole-train", "cartpole", 10, 8,
             ("envs.CartPole.step", "vqc.encoding_angles", "vqc.phi"),
             init_scale=math.pi / 2),
    QuanvCli(),
    WideGrad(),
)}


@dataclasses.dataclass
class Phase:
    """What one measured part of the closed loop recorded."""

    attempted: int = 0
    failed: int = 0
    # (units, seconds, reference kernel seconds) per passed operation
    passed: list = dataclasses.field(default_factory=list)

    @property
    def units(self) -> int:
        return sum(units for units, _, _ in self.passed)

    @property
    def seconds(self) -> float:
        return sum(seconds for _, seconds, _ in self.passed)

    def rate(self) -> float:
        return self.units / self.seconds if self.passed else 0.0


def measure(workload, ctx, rng, seconds: float, tracer=None) -> tuple:
    """Run operations until ``seconds`` of operation time are recorded.

    Returns ``(phase,)``.  With a tracer, operations alternate untraced
    and traced, so both meet the same machine conditions, and it returns
    ``(untraced, traced)``.
    """
    phases = (Phase(), Phase()) if tracer else (Phase(),)
    busy = 0.0
    give_up = time.perf_counter() + 3 * seconds + 60
    while ((busy < seconds or not phases[-1].attempted)
           and time.perf_counter() < give_up):
        traced = phases[0].attempted > phases[-1].attempted
        phase = phases[-1] if traced else phases[0]
        job = workload.prepare(ctx, rng)
        phase.attempted += 1
        if traced:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = workload.run(ctx, job)
        except Exception:  # the loop must go on; the failure is counted
            busy += time.perf_counter() - start
            phase.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if traced:
                tracer.active = False
        elapsed = time.perf_counter() - start
        busy += elapsed
        reference = speed.probe(speed.SHARE * elapsed)
        try:
            problems = workload.check(ctx, job, out)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            phase.failed += 1
            for problem in problems:
                print(f"{workload.name}: check failed: {problem}",
                      file=sys.stderr)
            continue
        phase.passed.append((workload.units(out), elapsed, reference))
        ctx.last = out
    return phases


def end_to_end(setups: list, phase: Phase, scaled: bool = True) -> dict:
    """Timings are medians over consecutive stretches of the run, so a
    burst of load from outside the process moves few stretches.

    With ``scaled``, each stretch's times are scaled to the nominal machine
    speed by the reference kernel times measured between its operations,
    and each set-up time by the kernel time measured after it (speed.py).
    ``setups`` holds (seconds, reference kernel seconds) per set-up.
    """
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = np.array(phase.passed, dtype=np.float64).reshape(-1, 3)
    fewest, most = STRETCHES
    count = min(len(ops), max(fewest, min(most, len(ops) // STRETCH_OPS)))
    parts = np.array_split(ops, count) if len(ops) else []

    def scale(reference) -> float:
        return speed.NOMINAL_S / reference if scaled else 1.0

    def median_over_parts(stat) -> float:
        return statistics.median(stat(p) for p in parts) if parts else 0.0

    def seconds(part):
        return part[:, 1] * scale(np.median(part[:, 2]))

    def unit_ms(part):
        return 1e3 * seconds(part) / part[:, 0]

    return {
        "setup_s": {"value": statistics.median(
            setup * scale(reference) for setup, reference in setups),
            "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
        "ops_per_s": {"value": median_over_parts(
            lambda p: p[:, 0].sum() / seconds(p).sum()), "unit": "1/s"},
        "op_ms.p50": {"value": median_over_parts(
            lambda p: np.percentile(unit_ms(p), 50)), "unit": "ms"},
        "op_ms.p90": {"value": median_over_parts(
            lambda p: np.percentile(unit_ms(p), 90)), "unit": "ms"},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the smoke check only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vqlab" / "__init__.py").is_file():
        print(f"error: no vqlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        vq = import_vqlab()
        ctx = workload.setup(vq, args.seed, args.tiny)
        seconds = time.perf_counter() - start
        setups.append((seconds, speed.probe(SETUP_PROBE_S)))

    rng = np.random.default_rng([args.seed, 1])
    unreached = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(vars(vq))
        try:
            phases = measure(workload, ctx, rng, args.seconds, tracer)
        finally:
            tracer.restore()
        untraced, traced = phases
        base, rate = untraced.rate(), traced.rate()
        overhead = 100.0 * (base / rate - 1.0) if base and rate else 0.0
        metrics = tracing.layer_metrics(tracer, traced.seconds, overhead)
        calls = tracer.calls()
        unreached = [label for label in workload.reach if calls[label] == 0]
        for label in unreached:
            print(f"{workload.name}: traced name {label} recorded no calls",
                  file=sys.stderr)
        tracer.write(WORK / f"trace-{workload.name}.tsv")
    else:
        phases = measure(workload, ctx, rng, args.seconds)
        metrics = end_to_end(setups, phases[0])
        wall = end_to_end(setups, phases[0], scaled=False)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    info = workload.info(ctx, args.seed)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"operations {attempted}  units {sum(p.units for p in phases)} "
          f"({workload.unit})")
    for name, metric in metrics.items():
        raw = ""
        if not args.trace and name != "peak_rss_mb":
            raw = f"  (wall clock {wall[name]['value']:.6g})"
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{raw}")
    print(f"  {'error_rate':34s} {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations failed)")
    if not args.trace:
        print(f"  ops_per_s is {workload.alias} here; op_ms.* is ms per "
              f"{workload.unit}")
        kernel_ms = [1e3 * reference for _, _, reference in phases[0].passed]
        if kernel_ms:
            print(f"  times are scaled to the speed where the reference "
                  f"kernel takes {1e3 * speed.NOMINAL_S:g} ms; it took "
                  f"{statistics.median(kernel_ms):.4g} ms at the median")
    for key, value in info.items():
        print(f"  info {key} = {value}")
    print(json.dumps({"correct": failed == 0 and not unreached,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
