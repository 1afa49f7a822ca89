"""Print the machine and build provenance that goes with recorded figures.

    python3 vqbench/provenance.py [--seeds 1,2,3]

Reads the CPU model and cache sizes from /proc and /sys, the OpenBLAS
thread count from NumPy's bundled library, and the git SHA if the checkout
is a git repository.  It sets nothing: NumPy/OpenBLAS threading is left at
its default, which is what the benchmark runs with.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            out[f"L{level}"] = (index / "size").read_text().strip()
    return out


def blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas*.so"):
        getter = getattr(ctypes.CDLL(str(lib)),
                         "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset (default)")}


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="",
                        help="workload seeds the figures were taken with")
    args = parser.parse_args()
    print(json.dumps({
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "git_sha": git_sha(),
        "workload_seeds": [int(s) for s in args.seeds.split(",") if s],
        "src_lines": src_lines(),
    }, indent=2))


if __name__ == "__main__":
    main()
