"""Config-driven experiment runner.

Subcommands:

* ``grad-check``  — parameter-shift vs finite-difference sweep; exits 0
  only when the worst deviation stays within tolerance.
* ``train-qrl``   — quantum Q-learning run; writes metrics.csv,
  checkpoint.json and run_config.json under the output directory.
* ``quanv``       — quanvolve a CSV feature map into an output JSON.

Configuration is a JSON file (schema "vqlab-v1", unknown keys rejected)
plus command-line flags; flags win.  Every command honors --seed; when no
seed is given one is generated and echoed into the outputs so the run
stays replayable.  Exit codes: 0 success, 1 validation error (bad config,
input or usage), 2 runtime/resource error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import qrl, quanv, vqc
from .optim import Loss
from .qrl import QrlConfig
from .simcore import ResourceLimitError
from .vqc import ModelFormatError, VqcModel

CONFIG_SCHEMA = "vqlab-v1"
GRAD_CHECK_QUBIT_CAP = 12

METRIC_COLUMNS = ("episode", "steps", "return", "mean_loss", "epsilon",
                  "wall_ms")


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError, so they exit 1 like bad config."""

    def error(self, message):
        raise ConfigError(message)


_TOP_KEYS = {"schema", "seed", "out", "grad_check", "qrl", "quanv"}
_GRAD_KEYS = {"trials", "max_qubits", "max_depth", "h", "tolerance", "shift"}
_QRL_KEYS = {"env", "episodes", "num_qubits", "depth", "entangler", "gamma",
             "buffer_capacity", "batch_size", "warmup", "epsilon_start",
             "epsilon_end", "epsilon_decay", "target_sync_interval",
             "optimizer", "lr", "init_scale", "loss", "huber_delta",
             "eval_episodes"}
_QUANV_KEYS = {"k", "depth", "stride", "v_min", "v_max"}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if doc.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(
            f"{path}: schema must be {CONFIG_SCHEMA!r}, "
            f"got {doc.get('schema')!r}")
    _check_keys(doc, _TOP_KEYS, "config")
    for name, keys in (("grad_check", _GRAD_KEYS), ("qrl", _QRL_KEYS),
                       ("quanv", _QUANV_KEYS)):
        if name in doc:
            if not isinstance(doc[name], dict):
                raise ConfigError(f"config section {name!r} must be an object")
            _check_keys(doc[name], keys, f"config section {name!r}")
    return doc


def resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in config:
        return int(config["seed"])
    seed = int(np.random.SeedSequence().entropy % 2 ** 31)
    print(f"no seed given; generated seed {seed}")
    return seed


def resolve_out(args, config: dict) -> Path:
    out = args.out or config.get("out") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# grad-check

def cmd_grad_check(args) -> int:
    config = load_config(args.config)
    section = dict(config.get("grad_check", {}))
    if args.qubits is not None:
        section["max_qubits"] = args.qubits
    if args.depth is not None:
        section["max_depth"] = args.depth
    trials = int(section.get("trials", 100))
    max_qubits = int(section.get("max_qubits", 4))
    max_depth = int(section.get("max_depth", 3))
    for key, value in (("trials", trials), ("max_qubits", max_qubits),
                       ("max_depth", max_depth)):
        if value < 1:
            raise ConfigError(f"grad_check {key} must be >= 1, got {value}")
    h = float(section.get("h", 1e-4))
    tolerance = float(section.get("tolerance", 1e-5))
    shift = float(section.get("shift", math.pi / 2))  # test hook
    seed = resolve_seed(args, config)
    if max_qubits > GRAD_CHECK_QUBIT_CAP:
        raise ResourceLimitError(
            f"grad-check runs 6*U*L shifted circuits of 2^{max_qubits} "
            f"amplitudes per trial; cap is {GRAD_CHECK_QUBIT_CAP} qubits")

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = int(rng.integers(1, max_qubits + 1))
        depth = int(rng.integers(1, max_depth + 1))
        model = VqcModel(u, depth, rng.uniform(-np.pi, np.pi, 3 * u * depth))
        x = rng.normal(size=u)
        upstream = rng.normal(size=u)
        ps = vqc.parameter_shift_grad(model, x, upstream, shift=shift)
        fd = vqc.finite_diff_grad(model, x, upstream, h=h)
        worst = max(worst, float(np.max(np.abs(ps - fd))) if ps.size else 0.0)
    print(f"grad-check: {trials} trials, max |shift - central diff| = "
          f"{worst:.3e} (tolerance {tolerance:.0e})")
    return 0 if worst <= tolerance else 1


# ---------------------------------------------------------------------------
# train-qrl

def _qrl_config(args, config: dict, seed: int) -> QrlConfig:
    section = dict(config.get("qrl", {}))
    section.pop("eval_episodes", None)
    loss_kind = section.pop("loss", "mse")
    delta = float(section.pop("huber_delta", 1.0))
    try:
        loss = Loss(loss_kind, delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.episodes is not None:
        section["episodes"] = args.episodes
    if args.qubits is not None:
        section["num_qubits"] = args.qubits
    if args.depth is not None:
        section["depth"] = args.depth
    try:
        return QrlConfig(seed=seed, loss=loss, **section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid qrl config: {exc}") from None


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
    qrl_config = _qrl_config(args, config, seed)
    eval_episodes = int(config.get("qrl", {}).get("eval_episodes", 100))
    if eval_episodes < 1:
        raise ConfigError(
            f"qrl eval_episodes must be >= 1, got {eval_episodes}")
    out = resolve_out(args, config)

    started = time.monotonic()
    agent, metrics = qrl.run_training(qrl_config)
    elapsed = time.monotonic() - started

    write_metrics_csv(out / "metrics.csv", metrics)
    (out / "checkpoint.json").write_text(qrl.agent_to_json(agent))
    resolved = {"schema": CONFIG_SCHEMA, "seed": seed,
                "qrl": {k: v for k, v in vars(qrl_config).items()
                        if k not in ("seed", "loss")},
                "loss": qrl_config.loss.kind}
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
    section = dict(config.get("quanv", {}))
    if args.depth is not None:
        section["depth"] = args.depth
    k = int(section.get("k", 2))
    if k < 1:
        raise ConfigError(f"quanv k must be >= 1, got {k}")
    filt = quanv.QuanvFilter.random(
        k=k,
        depth=int(section.get("depth", 1)),
        stride=int(section.get("stride", 2)),
        v_min=float(section.get("v_min", 0.0)),
        v_max=float(section.get("v_max", 1.0)),
        seed=seed)
    out = resolve_out(args, config)
    map2d = quanv.load_map_csv(args.map)
    output = quanv.quanv_forward(filt, map2d)
    result_path = out / "quanv_output.json"
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
