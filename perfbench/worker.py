"""Child process of the benchmark: set up one workload, optionally serve it.

    python3 perfbench/worker.py --workload W --seed N --count C --trace 0|1
                                --workdir DIR --out RESULT.json
                                [--repeats R] [--verify]

With ``--setup-only`` it imports crsphere, makes the inputs for ``C``
requests, serves the warm-up without checking it and exits; ``run.py``
times these processes for ``setup_s``.  Otherwise it then serves each of
the ``C`` requests ``R`` times (default ``workloads.REPEATS``), with every
layer traced if
``--trace 1``, and with ``--verify`` runs the small untimed ``crsphere
verify`` (traced too).  It writes the outcomes (and the per-layer
metrics) to ``--out`` and the spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--repeats", type=int)
    ap.add_argument("--verify", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    session = workloads.Session(args.workload, args.seed, args.count,
                                args.workdir, args.repeats)
    session.setup(check=not args.setup_only)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    outcomes = session.serve(tracer)
    verify = [session.serve_verify(tracer)] if args.verify else []
    result = {"outcomes": [o.__dict__ for o in outcomes],
              "warmup": [o.__dict__ for o in session.warmup],
              "verify": [o.__dict__ for o in verify]}
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        tracer.write_spans(os.path.splitext(args.out)[0] + ".spans.tsv.gz")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
