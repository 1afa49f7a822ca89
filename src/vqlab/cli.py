"""Config-driven experiment runner.

Subcommands:

* ``grad-check``  — parameter-shift vs finite-difference sweep; exits 0
  only when the worst deviation stays within tolerance.
* ``train-qrl``   — quantum Q-learning run; writes metrics.csv,
  checkpoint.json and run_config.json under the output directory.
* ``quanv``       — quanvolve a CSV feature map into an output JSON.

Configuration is a JSON file (schema "vqlab-v1") plus command-line flags;
flags win over the file, the file over the defaults in ``SECTIONS``, where
each key is declared once.  ``load_config`` rejects unknown keys and any
value whose type differs from its default's, non-finite numbers included,
under the same rules (``vqc.parse_document``) that checkpoints are read by.
Every command honors --seed (a generated seed is echoed into the outputs);
train-qrl's run_config.json, given back as --config, replays the run.
Exit codes: 0 success, 1 validation error, 2 runtime/resource error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import qrl, quanv, vqc
from .qrl import QrlConfig
from .simcore import ResourceLimitError
from .vqc import VqcModel

CONFIG_SCHEMA = "vqlab-v1"
GRAD_CHECK_QUBIT_CAP = 12
GRAD_CHECK_DEPTH_CAP = 16

METRIC_COLUMNS = ("episode", "steps", "return", "mean_loss", "epsilon",
                  "wall_ms")


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError, so they exit 1 like bad config."""

    def error(self, message):
        raise ConfigError(message)


# Every config key with its default, declared once; a value must have its
# default's type (see vqc.parse_document).  The top-level seed has no
# default; its 0 gives only the type.
SECTIONS = {
    "grad_check": {"trials": 100, "max_qubits": 4, "max_depth": 3,
                   "h": 1e-4, "tolerance": 1e-5},
    "qrl": {**{f.name: f.default for f in fields(QrlConfig)
               if f.name != "seed"}, "eval_episodes": 100},
    "quanv": {"k": 2, "depth": 1, "stride": 2, "v_min": 0.0, "v_max": 1.0},
}
CONFIG_KEYS = {"schema": CONFIG_SCHEMA, "seed": 0, "out": "out", **SECTIONS}


def load_config(path: Optional[str]) -> dict:
    """The parsed config, its keys and value types checked, unconverted."""
    if path is None:
        return {}
    try:
        return vqc.parse_document(Path(path).read_text(), CONFIG_KEYS,
                                  "config", complete=False)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def resolved_section(config: dict, name: str, **flags) -> dict:
    """The section's defaults, then its config values, then given flags."""
    return {**SECTIONS[name], **config.get(name, {}),
            **{k: v for k, v in flags.items() if v is not None}}


def resolve_seed(args, config: dict) -> int:
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % 2 ** 31)
        print(f"no seed given; generated seed {seed}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def resolve_out(args, config: dict) -> Path:
    path = Path(args.out or config.get("out") or CONFIG_KEYS["out"])
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# grad-check

def cmd_grad_check(args) -> int:
    config = load_config(args.config)
    section = resolved_section(config, "grad_check", max_qubits=args.qubits,
                               max_depth=args.depth)
    for key, low, high in (
            ("trials", 1, math.inf), ("max_qubits", 1, math.inf),
            ("max_depth", 1, math.inf), ("tolerance", 0, math.inf),
            ("h", 1e-6, 1e-2)):
        if not low <= section[key] <= high:
            raise ConfigError(f"grad_check {key} must be in [{low}, {high}], "
                              f"got {section[key]}")
    for key, cap in (("max_qubits", GRAD_CHECK_QUBIT_CAP),
                     ("max_depth", GRAD_CHECK_DEPTH_CAP)):
        if section[key] > cap:
            raise ResourceLimitError(
                f"grad_check {key} {section[key]} is above its cap of {cap}: "
                f"each trial runs 6*U*L shifted circuits of L layers on "
                f"2^U amplitudes")
    seed = resolve_seed(args, config)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(section["trials"]):
        u = int(rng.integers(1, section["max_qubits"] + 1))
        depth = int(rng.integers(1, section["max_depth"] + 1))
        model = VqcModel(u, depth, rng.uniform(-np.pi, np.pi, 3 * u * depth))
        x = rng.normal(size=u)
        upstream = rng.normal(size=u)
        ps = vqc.parameter_shift_grad(model, x, upstream)
        fd = vqc.finite_diff_grad(model, x, upstream, h=section["h"])
        worst = max(worst, float(np.max(np.abs(ps - fd))) if ps.size else 0.0)
    print(f"grad-check: {section['trials']} trials, max |shift - central "
          f"diff| = {worst:.3e} (tolerance {section['tolerance']:.0e})")
    return 0 if worst <= section["tolerance"] else 1


# ---------------------------------------------------------------------------
# train-qrl

def write_metrics_csv(path: Path, metrics: list) -> None:
    """One row per episode, flushed per row so interrupts leave valid rows."""
    with open(path, "w") as handle:
        handle.write(",".join(METRIC_COLUMNS) + "\n")
        handle.flush()
        for row in metrics:
            handle.write(",".join(repr(row[c]) if isinstance(row[c], float)
                                  else str(row[c])
                                  for c in METRIC_COLUMNS) + "\n")
            handle.flush()


def cmd_train_qrl(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(args, config)
    section = resolved_section(config, "qrl", episodes=args.episodes,
                               num_qubits=args.qubits, depth=args.depth)
    try:
        qrl_config = QrlConfig(seed=seed, **{
            k: v for k, v in section.items() if k != "eval_episodes"})
    except ValueError as exc:
        raise ConfigError(f"invalid qrl config: {exc}") from None
    eval_episodes = section["eval_episodes"]
    if eval_episodes < 1:
        raise ConfigError(
            f"qrl eval_episodes must be >= 1, got {eval_episodes}")
    out = resolve_out(args, config)

    started = time.monotonic()
    agent, metrics = qrl.run_training(qrl_config)
    elapsed = time.monotonic() - started

    write_metrics_csv(out / "metrics.csv", metrics)
    (out / "checkpoint.json").write_text(qrl.agent_to_json(agent))
    resolved = {"schema": CONFIG_SCHEMA, "seed": seed, "qrl": section}
    (out / "run_config.json").write_text(json.dumps(resolved, indent=2))

    summary = qrl.evaluate(agent, qrl_config.env, eval_episodes,
                           np.random.default_rng(seed + 1))
    print(f"trained {qrl_config.episodes} episodes on {qrl_config.env} "
          f"(seed {seed}) in {elapsed:.1f}s")
    print(f"greedy evaluation over {eval_episodes} episodes: "
          f"mean_return={summary['mean_return']:.3f} "
          f"success_rate={summary['success_rate']:.3f}")
    return 0


# ---------------------------------------------------------------------------
# quanv

def cmd_quanv(args) -> int:
    if not Path(args.map).is_file():
        raise ConfigError(f"map file not found: {args.map}")
    config = load_config(args.config)
    seed = resolve_seed(args, config)
    section = resolved_section(config, "quanv", depth=args.depth)
    if section["k"] < 1:
        raise ConfigError(f"quanv k must be >= 1, got {section['k']}")
    filt = quanv.QuanvFilter.random(seed=seed, **section)
    map2d = quanv.load_map_csv(args.map)
    output = quanv.quanv_forward(filt, map2d)
    result_path = resolve_out(args, config) / "quanv_output.json"
    result_path.write_text(quanv.output_to_json(output))
    print(f"quanvolved {map2d.shape[0]}x{map2d.shape[1]} map into "
          f"{output.shape[0]}x{output.shape[1]}x{output.shape[2]} channels "
          f"(seed {seed}) -> {result_path}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vqlab", description="variational quantum circuit lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, writes_out):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master RNG seed")
        if writes_out:
            p.add_argument("--out", help="output directory (default ./out)")
        p.set_defaults(func=func)
        return p

    p = command("grad-check", cmd_grad_check,
                "compare parameter-shift and finite differences", False)
    p.add_argument("--qubits", type=int, help="largest qubit count drawn")
    p.add_argument("--depth", type=int, help="largest depth drawn")

    p = command("train-qrl", cmd_train_qrl,
                "train a quantum Q-learning agent", True)
    p.add_argument("--episodes", type=int)
    p.add_argument("--qubits", type=int)
    p.add_argument("--depth", type=int)

    p = command("quanv", cmd_quanv, "quanvolve a CSV feature map", True)
    p.add_argument("--depth", type=int)
    p.add_argument("map", help="input CSV map (H rows of W reals)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # ConfigError and ModelFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
