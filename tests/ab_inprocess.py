"""In-process A/B timing of two versions of crsphere on benchmark requests.

    python3 tests/ab_inprocess.py [--base REV] [--change REV] [--seeds 11 12]

Copies ``src/crsphere`` at git revision ``--base`` (default ``HEAD``) and
at ``--change`` (default: the working tree) into a temporary directory
under two package names, ``crsphere_base`` and ``crsphere_change``, and
imports both into this one process.  For each seed it makes the
analyze-stream and kernel-s7 requests of ``perfbench/workloads.py`` (ten
analyze requests and eleven kernel items) and serves each ``REPEATS``
times on both sides in turn, the side that goes first alternating, after
one untimed warm-up per side.  The two answers must be identical
(analyze: exit status and stdout; kernel: the digest of the exact
answer), or the script stops with exit 1.

Each request keeps its fastest repetition per side, as ``perfbench/run.py``
does.  The script prints, per workload and per request kind (n1, sym2,
asym2 and kernel), the ratio change / base of the summed best times and
of their median, and the range of the per-request ratios.  Both sides see
the same host drift, so a 10% change shows here where single benchmark
runs cannot resolve it; the benchmark's own pairs of runs stay the
measure of record.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
ANALYZE_REQUESTS = 10       # one block of the analyze-stream mix per seed
KERNEL_ITEMS = 11
REPEATS = 40                # repetitions per request; each keeps its best


def copy_package(rev: str | None, dest: Path) -> None:
    """``src/crsphere`` at git revision ``rev`` (the working tree for
    None) as the package directory ``dest``."""
    if rev is None:
        shutil.copytree(ROOT / "src" / "crsphere", dest,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", rev,
                           "src/crsphere"], check=True,
                          capture_output=True).stdout
    unpacked = dest.parent / f"{dest.name}.src"
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(unpacked, filter="data")
    (unpacked / "src" / "crsphere").rename(dest)
    shutil.rmtree(unpacked)


def load_sides(base: str, change: str | None, tmp: Path) -> dict:
    """The two packages, imported, by side name."""
    sys.path.insert(0, str(tmp))
    out = {}
    for side, rev in zip(SIDES, (base, change)):
        name = f"crsphere_{side}"
        copy_package(rev, tmp / name)
        out[side] = {mod: importlib.import_module(f"{name}.{mod}")
                     for mod in ("cli", "ring", "spectral")}
    return out


def analyze(pkg: dict, path: str):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = pkg["cli"].main(["analyze", path, "--oracle"])
    return status, buf.getvalue()


def kernel(pkg: dict, factors):
    """workloads.run_kernel on this side's types; the factors are
    rebuilt from their terms before the clock starts."""
    ring, spectral = pkg["ring"], pkg["spectral"]
    a, b = (ring.SpherePoly(f.n, {ab: ring.ExactScalar(c.re, c.im)
                                  for ab, c in f.terms.items()})
            for f in factors)

    def run():
        prod = a * b
        return (prod, prod.integral(), ring.norm2(a), ring.norm2(b),
                spectral.harmonic_decompose(prod), spectral.sublaplacian(prod))
    return run


def serve(sides: dict, jobs: list, repeats: int, workdir: str,
          workloads) -> dict:
    """Best time per job and side over ``repeats`` alternated repetitions;
    a job is (kind, request).  Answers of the two sides must agree."""
    best = {side: [float("inf")] * len(jobs) for side in SIDES}
    for rep in range(repeats):
        for i, (kind, req) in enumerate(jobs):
            if kind == "kernel":
                factors = req.factors(rep)
                calls = {s: kernel(sides[s], factors) for s in SIDES}
            else:
                path = workloads.write_analyze_file(req, rep, workdir)
                calls = {s: (lambda pkg=sides[s]: analyze(pkg, path))
                         for s in SIDES}
            order = SIDES if (rep + i) % 2 == 0 else SIDES[::-1]
            answers = {}
            for side in order:
                t0 = time.perf_counter()
                answers[side] = calls[side]()
                best[side][i] = min(best[side][i], time.perf_counter() - t0)
            if kind == "kernel":
                answers = {s: workloads.kernel_digest(a)
                           for s, a in answers.items()}
            if answers["base"] != answers["change"]:
                sys.exit(f"answers differ: {kind} request {req.name}, "
                         f"repetition {rep}")
    return best


def report(label: str, idx: list[int], best: dict) -> None:
    base = [best["base"][i] for i in idx]
    change = [best["change"][i] for i in idx]
    ratios = sorted(c / b for b, c in zip(base, change))
    print(f"  {label:8s} {len(idx):3d} requests  "
          f"total {sum(change) / sum(base):.3f}x  "
          f"median {statistics.median(change) / statistics.median(base):.3f}x"
          f"  per request {ratios[0]:.3f}-{ratios[-1]:.3f}x  "
          f"(base median {statistics.median(base) * 1e3:.3f} ms)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD",
                    help="git revision of the base side (default HEAD)")
    ap.add_argument("--change", default=None,
                    help="git revision of the change side (default: the "
                         "working tree)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[11])
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))       # workloads builds inputs
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        sides = load_sides(args.base, args.change, Path(tmp))
        workdir = str(Path(tmp) / "files")
        Path(workdir).mkdir()
        for seed in args.seeds:
            warm = [(r.kind, r) for r in workloads.analyze_warmup(seed)]
            warm += [("kernel", k) for k in workloads.kernel_warmup(seed)]
            serve(sides, warm, 1, workdir, workloads)
            stream = [(r.kind, r) for r in workloads.analyze_requests(
                seed, ANALYZE_REQUESTS)]
            items = [("kernel", k) for k in
                     workloads.kernel_items(seed, KERNEL_ITEMS)]
            print(f"seed {seed}:")
            for jobs in (stream, items):
                best = serve(sides, jobs, REPEATS, workdir, workloads)
                kinds = sorted({kind for kind, _ in jobs})
                if len(kinds) > 1:
                    report("all", list(range(len(jobs))), best)
                for kind in kinds:
                    report(kind, [i for i, (k, _) in enumerate(jobs)
                                  if k == kind], best)
    return 0


if __name__ == "__main__":
    sys.exit(main())
