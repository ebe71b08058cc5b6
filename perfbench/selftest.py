"""Self-test of the benchmark's tracing and determinism.

    python3 perfbench/selftest.py

Checks, each printed as PASS or FAIL (exit status 1 if any fails):

1. Wrapping is complete: after ``Tracer.install`` no crsphere module,
   class or module-level table still holds an unwrapped original.
2. Known counts are reproduced: the n=1 degree-4 oracle suite makes 160
   ``solve_structure`` calls for its 70-monomial pool, and the n=2
   variation suite runs ``validate_symmetry`` 3 times per tensor.
3. Determinism: each workload's traced run, made twice under
   ``PYTHONHASHSEED`` 0 and 1, gives the same value for every count
   metric and the same digest for every answer.
4. Coverage: every traced callable and every count is nonzero on at least
   one workload.
5. The traced run reports exactly the per-layer metrics, with the units,
   that ``BENCHMARK.json`` lists.

Takes about a minute and a half on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import OUT_DIR, SRC, spawn  # noqa: E402
import workloads  # noqa: E402
from tracing import CALLABLES, COUNTS, Tracer, metric_unit  # noqa: E402

# Requests per traced run, each served four times: one analyze block,
# three kernel items.
COUNT = {"analyze-stream": 10, "kernel-s7": 3}

_failed = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f": {detail}" if detail
                                                   and not ok else ""))
    if not ok:
        _failed.append(label)


def in_process_checks(workdir: str) -> None:
    sys.path.insert(0, SRC)
    from crsphere.cli import main
    tracer = Tracer()
    tracer.install()
    missed = tracer.missed_references()
    check("every reference to a traced callable is rebound", not missed,
          ", ".join(missed))

    solve = CALLABLES.index("oracle3.solve_structure")
    symmetry = CALLABLES.index("variation.validate_symmetry")

    def traced_verify(n: int, suite: str):
        calls = list(tracer.calls)
        tensors = len(tracer.tensors)
        inputs = len(tracer.oracle_inputs)
        tracer.request += 1
        tracer.active = True
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(["verify", "--n", str(n), "--degree", "4",
                               "--suites", suite, "--samples", "0",
                               "--output", os.path.join(workdir, "r.txt")])
        finally:
            tracer.active = False
        delta = [b - a for a, b in zip(calls, tracer.calls)]
        return (status, delta, len(tracer.tensors) - tensors,
                len(tracer.oracle_inputs) - inputs)

    status, delta, _, inputs = traced_verify(1, "oracle3")
    check("verify --n 1 --degree 4 oracle3 suite: 160 solve_structure calls "
          "for 70 inputs",
          status == 0 and delta[solve] == 160 and inputs == 70,
          f"exit {status}, {delta[solve]} calls, {inputs} inputs")
    status, delta, tensors, _ = traced_verify(2, "variation")
    check("verify --n 2 --degree 4 variation suite: 3 symmetry checks per "
          "tensor", status == 0 and tensors > 0
          and delta[symmetry] == 3 * tensors,
          f"exit {status}, {delta[symmetry]} checks, {tensors} tensors")


def traced_run(workload: str, hashseed: str, workdir: str) -> dict:
    out = os.path.join(workdir, f"{workload}-{hashseed}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", "1",
           "--count", str(COUNT[workload]), "--workdir", workdir,
           "--trace", "1", "--repeats", "4", "--out", out]
    if workload == "analyze-stream":
        cmd.append("--verify")
    os.environ["PYTHONHASHSEED"] = hashseed
    try:
        _, status, _ = spawn(cmd, workdir, os.path.join(workdir, "log.txt"))
    finally:
        del os.environ["PYTHONHASHSEED"]
    if status != 0:
        raise RuntimeError(f"traced {workload} worker exited {status}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    workdir = os.path.join(OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        in_process_checks(workdir)
        seen = {name: 0 for name in CALLABLES}
        counts = {name: 0 for name in COUNTS}
        for workload in workloads.WORKLOADS:
            a = traced_run(workload, "0", workdir)
            b = traced_run(workload, "1", workdir)
            keys = [f"{c}.calls" for c in CALLABLES] + list(COUNTS)
            differ = [k for k in keys if a["metrics"][k] != b["metrics"][k]]
            check(f"{workload}: count metrics repeat across hash seeds",
                  not differ, ", ".join(differ))
            digests = [[o["digest"] for o in
                        r["outcomes"] + r["warmup"] + r["verify"]]
                       for r in (a, b)]
            check(f"{workload}: answer digests repeat across hash seeds",
                  digests[0] == digests[1] and all(digests[0]))
            problems = [f"{o['name']}: {o['problems']}"
                        for o in a["outcomes"] + a["warmup"] + a["verify"]
                        if o["problems"]]
            check(f"{workload}: traced answers pass the exact checks",
                  not problems, "; ".join(problems))
            for name in CALLABLES:
                seen[name] += a["metrics"][f"{name}.calls"]
            for name in COUNTS:
                counts[name] += a["metrics"][name]
        never = [n for n, c in {**seen, **counts}.items() if not c]
        check("every traced callable and count is nonzero on some workload",
              not never, ", ".join(never))
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            listed = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
        emitted = [(n, metric_unit(n)) for n in a["metrics"]]
        check("BENCHMARK.json lists exactly the traced metrics and units",
              listed == emitted + [("trace.overhead_s", "s")])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(_failed)} failed" if _failed else "all passed")
    return 1 if _failed else 0


if __name__ == "__main__":
    sys.exit(main())
