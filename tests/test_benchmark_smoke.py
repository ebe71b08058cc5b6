"""The benchmark still runs on the program in ``src/``.

Each case runs ``perfbench/run.py`` for one second of one workload, plain
or traced, and reads its last stdout line.  Every answer the benchmark
serves is checked exactly; the traced ``analyze-stream`` run also checks
the pinned ``crsphere verify`` report digest and wraps every traced name,
so a change in ``src/`` that breaks the benchmark fails here.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["analyze-stream", "kernel-s7"])
def test_benchmark_runs_correctly(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
