"""crsphere benchmark: run one workload and print its metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for why each was chosen):
``analyze-stream`` and ``kernel-s7``.  ``--seconds`` sets the amount of
work: a run serves a fixed number of requests per ten seconds
(``workloads.request_count``), each ``workloads.REPEATS`` times, so a
faster program finishes the same work sooner.

A request's time is the fastest of its repetitions.  The shared
processors this benchmark was built on switch, many times a second,
between a fast and a slow speed (about 1.45 times slower), and the share
of slow time drifts from minute to minute; a mean or median of request
times follows that drift, and a single long request cannot escape it.
Requests here take milliseconds to about a tenth of a second, and the
fastest of 40 (analyze) or 64 (kernel) repetitions of one mostly falls
in a fast stretch, so it follows the program more than the machine.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over five fresh processes of the time from process
  start to the first timed call (interpreter start, import, input
  generation and an unchecked warm-up);
* ``best_total_s``: the sum over the run's requests of each request's
  fastest time, i.e. the time to serve every request once;
* ``req_p50_ms`` and ``req_p90_ms``: percentiles over the requests of
  each request's fastest time;
* ``peak_rss_mb``: peak resident memory of the process that served the
  requests.

``--trace 1`` serves the same requests, ``TRACE_REPEATS`` times each,
twice in fresh processes, once plain and once with every layer traced
(``tracing.py``), and reports
calls and self seconds per traced callable, self seconds per layer, the
counts, and ``trace.overhead_s`` (traced minus plain time in requests).
On ``analyze-stream`` both processes also run one untimed small
``crsphere verify`` (``workloads.VERIFY_ARGS``), so the ``verify`` layer
is traced.  The traced run's spans are kept in
``.perfbench/spans-WORKLOAD.tsv.gz``.

Every answer is checked exactly; failed requests are listed by name on
stderr with the fail ratio.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is loaded from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracing import metric_unit  # noqa: E402

SETUP_PROBES = 5
# The traced run serves each request this many times, plain and traced;
# its counts are for these repetitions.
TRACE_REPEATS = 8
# A run is stopped after DEADLINE_S seconds, or after ALLOWANCE_S per
# served repetition if that is longer.  The allowance is two to three
# times the mean repetition today, so a longer --seconds can still finish.
DEADLINE_S = 170
ALLOWANCE_S = {"analyze-stream": 0.2, "kernel-s7": 0.03}

_live: list[subprocess.Popen] = []


class Deadline(Exception):
    pass


def deadline_seconds(workload: str, seconds: int, trace: int) -> int:
    """Seconds before a run is stopped; a traced run serves its requests
    twice, plain and traced, TRACE_REPEATS times each."""
    served = workloads.request_count(workload, seconds) * (
        2 * TRACE_REPEATS if trace else workloads.REPEATS[workload])
    return max(DEADLINE_S, round(ALLOWANCE_S[workload] * served))


def _on_signal(signum, frame):
    raise Deadline("run exceeded its deadline" if signum == signal.SIGALRM
                   else f"stopped by signal {signum}")


def spawn(cmd: list[str], cwd: str, log: str) -> tuple[float, int, float]:
    """Run a child to completion: (seconds, exit status, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=fh,
                                stderr=subprocess.STDOUT)
        _live.append(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _live.remove(proc)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def stop_children() -> None:
    for proc in _live:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


class Run:
    """One benchmark run of one workload in its own scratch directory."""

    def __init__(self, workload: str, seed: int, seconds: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.count = workloads.request_count(workload, seconds)
        self.workdir = workdir
        self.log = os.path.join(workdir, "children.log")
        self.outcomes: list[dict] = []      # timed repetitions
        self.extra: list[dict] = []         # warm-up, verify, untimed passes

    def worker(self, *flags: str, out: str | None = None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--count", str(self.count), "--workdir", self.workdir,
               *flags]
        if out:
            cmd += ["--out", out]
        seconds, status, rss = spawn(cmd, self.workdir, self.log)
        if status != 0:
            raise RuntimeError(f"worker {' '.join(flags)} exited {status}")
        result = None
        if out:
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
            self.extra += result["warmup"] + result["verify"]
        return seconds, rss, result

    def setup_seconds(self) -> float:
        return statistics.median(self.worker("--setup-only")[0]
                                 for _ in range(SETUP_PROBES))

    def serve(self, trace: int, verify: bool | None = None
              ) -> tuple[float, dict]:
        """Serve the requests in one warm worker; (peak RSS, its result).
        ``verify`` is given by the per-layer run only: it serves the
        requests TRACE_REPEATS times and, if true, runs the verify too."""
        out = os.path.join(self.workdir, f"serve-trace{trace}.json")
        flags = ["--trace", str(trace)] + (["--verify"] if verify else [])
        if verify is not None:          # the per-layer run
            flags += ["--repeats", str(TRACE_REPEATS)]
        _, rss, result = self.worker(*flags, out=out)
        return rss, result

    def end_to_end(self) -> dict:
        setup = self.setup_seconds()
        rss, result = self.serve(0)
        self.outcomes += result["outcomes"]
        best = best_times(self.outcomes, self.count)
        p50, p90 = percentiles_ms(best)
        return {"setup_s": (setup, "s"), "best_total_s": (sum(best), "s"),
                "req_p50_ms": (p50, "ms"), "req_p90_ms": (p90, "ms"),
                "peak_rss_mb": (rss, "MB")}

    def per_layer(self) -> dict:
        verify = self.workload == "analyze-stream"
        _, plain = self.serve(0, verify)
        _, traced = self.serve(1, verify)
        self.extra += plain["outcomes"]
        self.outcomes += traced["outcomes"]
        spans = os.path.join(self.workdir, "serve-trace1.spans.tsv.gz")
        os.makedirs(OUT_DIR, exist_ok=True)
        shutil.move(spans, os.path.join(OUT_DIR,
                                        f"spans-{self.workload}.tsv.gz"))
        overhead = (sum(o["seconds"] for o in traced["outcomes"])
                    - sum(o["seconds"] for o in plain["outcomes"]))
        out = {name: (value, metric_unit(name))
               for name, value in traced["metrics"].items()}
        out["trace.overhead_s"] = (overhead, "s")
        return out


def best_times(outcomes: list[dict], count: int) -> list[float]:
    """Each request's fastest repetition; outcome ``r * count + i`` is
    repetition ``r`` of request ``i``."""
    return [min(o["seconds"] for o in outcomes[i::count])
            for i in range(count)]


def percentiles_ms(seconds: list[float]) -> tuple[float, float]:
    ms = sorted(s * 1000.0 for s in seconds)
    if len(ms) == 1:
        return ms[0], ms[0]
    return (statistics.median(ms),
            statistics.quantiles(ms, n=10, method="inclusive")[8])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crsphere", "__init__.py")):
        print(f"error: the program is not at {SRC}/crsphere; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.alarm(deadline_seconds(args.workload, args.seconds, args.trace))
    workdir = os.path.join(OUT_DIR, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    run = Run(args.workload, args.seed, args.seconds, workdir)
    try:
        metrics = run.per_layer() if args.trace else run.end_to_end()
    except (Deadline, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if os.path.exists(run.log):
            with open(run.log, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write("".join(fh.readlines()[-20:]))
        return 3
    finally:
        signal.alarm(0)
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    everything = run.outcomes + run.extra
    failures = [o for o in everything if o["problems"]]
    for o in failures:
        print(f"FAILED {o['name']}: {'; '.join(o['problems'])}",
              file=sys.stderr)
    print(f"{args.workload}: {len(run.outcomes)} timed repetitions of "
          f"{run.count} requests, {len(everything)} checked, fail_ratio "
          f"{len(failures) / len(everything):.4f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
