"""The benchmark still runs on the program in ``src/``.

Each case copies ``src/`` and ``perfbench/`` into a scratch directory and
runs the copy's ``perfbench/run.py`` for one second of one workload, plain
or traced, and reads its last stdout line.  Every answer the benchmark
serves is checked exactly; the traced ``analyze-stream`` run also checks
the pinned ``crsphere verify`` report digest and wraps every traced name,
so a change in ``src/`` that breaks the benchmark fails here.  The run
writes its spans and scratch files inside the copy, so the checkout's
``.perfbench/`` is left as it was.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def perfbench_files() -> dict:
    """(size, mtime) of each file in the checkout's ``.perfbench/``."""
    out_dir = os.path.join(ROOT, ".perfbench")
    if not os.path.isdir(out_dir):
        return {}
    return {entry.name: (entry.stat().st_size, entry.stat().st_mtime_ns)
            for entry in os.scandir(out_dir)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["analyze-stream", "kernel-s7"])
def test_benchmark_runs_correctly(workload, trace, tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), tmp_path / name,
                        ignore=ignore)
    before = perfbench_files()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
    assert perfbench_files() == before
    if trace:
        assert (tmp_path / ".perfbench"
                / f"spans-{workload}.tsv.gz").is_file()
