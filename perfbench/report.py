"""Run every workload and print all metrics with their spread.

    python3 perfbench/report.py

For each workload in ``BENCHMARK.json`` this makes ten plain runs with
seeds 1 to 10, then one traced run with seed 1, all through ``run.py``
with ``run_seconds`` from ``BENCHMARK.json``.  It prints each end-to-end
metric's median and its spread (the distance between the first and third
quartile as a share of the median), the fail ratio, and every per-layer
metric of the traced run, each with its unit.  Exits 1 if any run fails
or any answer is wrong.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:"
                           f"\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    bad = False
    for w in bench["workloads"]:
        name = w["name"]
        plain = [run(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        traced = run(name, 1, seconds, 1)
        attempted = sum(r["attempted"] for r in plain + [traced])
        failed = sum(r["failed"] for r in plain + [traced])
        bad |= failed > 0
        print(f"\n{name}: {RUNS} runs + 1 traced, "
              f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in plain]
            print(f"  {m['name']:<14} median {statistics.median(values):>12.5g}"
                  f" {m['unit']:<3} spread {spread(values):.3f}"
                  f" (bound {m['bound']})")
        for m in bench["per_layer"]:
            v = traced["metrics"][m["name"]]
            print(f"  {m['name']:<52} {v['value']:>12.6g} {v['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
