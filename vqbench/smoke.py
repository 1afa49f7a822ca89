"""Smoke check of the benchmark itself, in a few seconds per workload.

    python3 vqbench/smoke.py

Runs every workload of BENCHMARK.json at tiny sizes (``run.py --tiny``),
untraced and traced, and asserts that each run exits 0, reports exactly
the metrics BENCHMARK.json names with their units, and has no failed
operation (error rate 0).  Exits 1 with the reasons otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "1"
TIMEOUT_S = 120


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    cmd = bench["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", SECONDS, "--trace", str(trace),
                              "--tiny"]
    where = f"{workload} --trace {trace}"
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']} of {result['attempted']}")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(want.items()))}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            found = check_run(bench, workload, trace)
            print(f"{workload:18s} trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
