"""Workload inputs, requests and their exact-output checks.

Every input is made from the workload seed with ``random.Random`` seeded
by a string, so it repeats exactly across runs and ``PYTHONHASHSEED``
values.  Inputs are built here from their definition and handed to the
program; nothing in this module asks crsphere how to build them.

Workloads (closed loop, one client, one warm process):

* ``analyze-stream``: ``crsphere analyze FILE --oracle`` through
  ``crsphere.cli.main``, on a stream made of blocks of ten two-term
  files: six n=1 files (the S^3 oracle path), three symmetric n=2 tensor
  files (the symmetry scan and the Hessian routes) and one antisymmetric
  n=2 file that must be rejected with exit 1.  The median is set by the
  oracle, the 90th percentile by the symmetry scan.
* ``kernel-s7``: products of 4-term n=3 polynomials of degree <= 3, then
  the product's ``integral``, ``harmonic_decompose`` and ``sublaplacian``
  and the factors' ``norm2``.  Only ``ring`` and ``spectral`` work here.

A request is one input; a run serves each request ``REPEATS`` times and
keeps its fastest time (see ``run.py`` for why).  The repetitions of a
request are distinct inputs of equal cost, so that a cache of whole
answers cannot serve a repetition: an analyze repetition moves each
coefficient ``x + iy`` by one of the eight maps ``x + iy -> +-x +- iy,
+-y +- ix`` (the numerators and denominators, and so the work, stay the
same; at n=2 it may also swap the indices 2 and 3), and a kernel
repetition relabels z_2, z_3, z_4 and multiplies each factor by a power
of ``i``.  A relabelling of z_2, ..., z_{n+1} maps the ring to itself,
so the work stays the same.  Repetition 0 is the input itself.

Each request slot has fixed monomials (and, for n=2 files, fixed index
pairs), the same for every seed.  The seed draws the coefficients, the
repetitions' maps and the order of the requests in each block.  Fixing
the monomials keeps a run's cost steady from seed to seed, so the spread
of a metric over seeds is mostly the machine's.

``VERIFY_ARGS`` is one small ``crsphere verify`` run, served untimed in
the traced run of ``analyze-stream`` so that the ``verify`` layer is
traced too; its report must match ``VERIFY_REPORT_SHA256``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("analyze-stream", "kernel-s7")

# Timed repetitions of every request; a request's time is its fastest.
REPEATS = {"analyze-stream": 40, "kernel-s7": 64}

# Requests a run serves per 10 seconds of --seconds.  On a 2-vCPU Xeon
# one repetition of an analyze request took 20-110 ms and one of a kernel
# item 3-25 ms, so at --seconds 40 one run serves one block of ten analyze
# requests 40 times or 44 kernel items 64 times: 30-40 s of work, checks
# included.  The count is fixed, so a faster program serves the same
# requests sooner.
_REQUESTS_PER_10_S = {"analyze-stream": 2.5, "kernel-s7": 11}

VERIFY_ARGS = ["verify", "--n", "1", "--degree", "1", "--suites", "all",
               "--samples", "0"]
# sha256 of that report at the commit that introduced the benchmark.
VERIFY_REPORT_SHA256 = \
    "8bd80025f547c5c15996589088718420bea2bcbfa37e4b3eada90f33c10b1e82"

_PAIRS2 = ((1, 2), (1, 3), (2, 3))


def request_count(workload: str, seconds: int) -> int:
    """Number of distinct requests a run of ``seconds`` serves (analyze:
    whole blocks of ten)."""
    count = max(1, round(seconds * _REQUESTS_PER_10_S[workload] / 10))
    if workload == "analyze-stream":
        count = max(1, round(count / 10)) * len(_ANALYZE_BLOCK)
    return count


# ---------------------------------------------------------------------------
# random exact polynomials, as term maps {(a, b): (re, im)}
# ---------------------------------------------------------------------------

def _coefficient(rng: random.Random) -> tuple[Fraction, Fraction]:
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    im = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if not (re or im):
        re = Fraction(1)
    return re, im


def _monomials_by_degree(n: int, max_degree: int) -> dict[int, list]:
    """Exponent pairs (a, b) in normal form, grouped by total degree.

    Normal form means no factor z_1 zbar_1, so distinct pairs are distinct
    functions on the sphere and a random sum of them is never zero.
    """
    def tuples(width, total):
        if width == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in tuples(width - 1, total - head):
                yield (head,) + rest

    out: dict[int, list] = {}
    for d in range(max_degree + 1):
        out[d] = [(a, b) for da in range(d + 1)
                  for a in tuples(n + 1, da) for b in tuples(n + 1, d - da)
                  if not (a[0] and b[0])]
    return out


def _random_terms(rng, monomials: dict, degrees) -> dict:
    """One term of each listed total degree, distinct monomials, random
    coefficients.  The slot streams keep only the monomials; their
    coefficients are drawn again from the seed."""
    picked: dict = {}
    for d in degrees:
        m = rng.choice(monomials[d])
        while m in picked:
            m = rng.choice(monomials[d])
        picked[m] = _coefficient(rng)
    return picked


def _coefficients(rng: random.Random, monomials) -> dict:
    """Seeded coefficients for a fixed list of monomials."""
    return {m: _coefficient(rng) for m in monomials}


def _relabelled(terms: dict, perm) -> dict:
    def move(exps):
        out = [0] * len(exps)
        for i, e in enumerate(exps):
            out[perm[i + 1] - 1] = e
        return tuple(out)
    return {(move(a), move(b)): c for (a, b), c in terms.items()}


def _variant_codes(rng: random.Random, choices: int,
                   workload: str) -> list[int]:
    """One distinct code below ``choices`` per repetition, the first 0."""
    return [0] + rng.sample(range(1, choices), REPEATS[workload] - 1)


def _moved(terms: dict, code: int) -> dict:
    """Coefficient ``j`` (in monomial order) moved by the map numbered by
    base-8 digit ``j`` of ``code``: 0-3 multiply by i^k, 4-7 conjugate
    first."""
    out = {}
    for key in sorted(terms):
        re, im = terms[key]
        code, g = divmod(code, 8)
        if g >= 4:
            im = -im
        for _ in range(g % 4):
            re, im = -im, re
        out[key] = (re, im)
    return out


def _grammar(terms: dict) -> str:
    """Render a term map in crsphere's term grammar."""
    parts = []
    for (a, b), (re, im) in sorted(terms.items()):
        text = (f"({re.numerator}/{re.denominator},"
                f"{im.numerator}/{im.denominator})")
        for var, exps in (("z", a), ("w", b)):
            for j, e in enumerate(exps):
                if e:
                    text += f" {var}{j + 1}" + (f"^{e}" if e != 1 else "")
        parts.append(text)
    return " ".join(parts)


def _negated(terms: dict) -> dict:
    return {k: (-re, -im) for k, (re, im) in terms.items()}


# ---------------------------------------------------------------------------
# analyze-stream
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyzeRequest:
    name: str
    kind: str            # "n1", "sym2" or "asym2"
    texts: tuple         # deformation file contents, one per repetition

    @property
    def expected_status(self) -> int:
        return 1 if self.kind == "asym2" else 0


_N1_MONOMIALS = _monomials_by_degree(1, 3)
_N2_MONOMIALS = _monomials_by_degree(2, 1)

# One block of the stream: (kind, total degree of each term).  Six n=1
# files, three symmetric n=2 files and one antisymmetric n=2 file, shuffled
# per block.  Every file has two terms, so it has at least 64 equal-cost
# variants, more than its repetitions.
_ANALYZE_BLOCK = (
    ("n1", (0, 1)), ("n1", (0, 2)), ("n1", (1, 1)), ("n1", (1, 2)),
    ("n1", (0, 3)), ("n1", (1, 3)),
    ("sym2", (0, 1)), ("sym2", (0, 1)), ("sym2", (1, 1)), ("asym2", (0, 1)),
)


def _analyze_texts(rng: random.Random, kind: str, shape) -> tuple:
    """One file per repetition: the slot's monomials with seeded
    coefficients, moved by the repetition's maps; at n=2 a repetition may
    also swap the indices 2 and 3, which maps the ring to itself."""
    if kind == "n1":
        terms = _coefficients(rng, shape)
        return tuple(f"n = 1\nE = {_grammar(_moved(terms, code))}\n"
                     for code in _variant_codes(rng, 8 ** len(terms),
                                                "analyze-stream"))
    (p, q), monos = shape
    c = _coefficients(rng, monos)
    texts = []
    for code in _variant_codes(rng, 2 * 8 ** len(c), "analyze-stream"):
        swap, code = divmod(code, 8 ** len(c))
        perm = (None, 1, 3, 2) if swap else (None, 1, 2, 3)
        pp, qq = (tuple(sorted(perm[i] for i in pair)) for pair in (p, q))
        cr = _relabelled(_moved(c, code), perm)
        other = cr if kind == "sym2" else _negated(cr)
        texts.append(f"n = 2\nE[{pp[0]} {pp[1]}, {qq[0]} {qq[1]}] = "
                     f"{_grammar(cr)}\n"
                     f"E[{qq[0]} {qq[1]}, {pp[0]} {pp[1]}] = "
                     f"{_grammar(other)}\n")
    return tuple(texts)


def _analyze_shapes(stream: str, blocks: int) -> list:
    """(kind, shape) for every slot of the first ``blocks`` blocks, the
    same for every seed: n=1 slots get their monomials, n=2 slots their
    index pairs and monomial."""
    rng = random.Random(f"analyze-stream/{stream}/monomials")
    out = []
    for _ in range(blocks):
        for kind, degrees in _ANALYZE_BLOCK:
            if kind == "n1":
                out.append((kind, list(_random_terms(rng, _N1_MONOMIALS,
                                                     degrees))))
            else:
                out.append((kind, (tuple(rng.sample(_PAIRS2, 2)),
                                   list(_random_terms(rng, _N2_MONOMIALS,
                                                      degrees)))))
    return out


def analyze_requests(seed: int, count: int, stream: str = "timed"):
    """The first ``count`` requests of the seeded stream, in blocks of ten.

    Each block holds the fixed mix in a seeded order, so every prefix of
    whole blocks has the same mix.
    """
    blocks = -(-count // len(_ANALYZE_BLOCK))
    shapes = _analyze_shapes(stream, blocks)
    rng = random.Random(f"analyze-stream/{stream}/{seed}")
    out = []
    for b in range(blocks):
        block = shapes[b * len(_ANALYZE_BLOCK):(b + 1) * len(_ANALYZE_BLOCK)]
        rng.shuffle(block)
        for kind, shape in block:
            out.append(AnalyzeRequest(f"{stream}{len(out)}.{kind}", kind,
                                      _analyze_texts(rng, kind, shape)))
    return out[:count]


def analyze_warmup(seed: int):
    """Untimed n=1 and n=2 requests, so lazy work and per-dimension caches
    that a warm server would hold are in place before timing."""
    rng = random.Random(f"analyze-stream/warmup/{seed}")
    shapes = [s for s in _analyze_shapes("warmup", 1)
              if s[0] in ("n1", "asym2")][:2]
    return [AnalyzeRequest(f"warmup.{kind}", kind,
                           _analyze_texts(rng, kind, shape)[:1])
            for kind, shape in shapes]


def write_analyze_file(req: AnalyzeRequest, rep: int, workdir: str) -> str:
    """Write repetition ``rep`` of ``req`` to a file; return its path."""
    path = os.path.join(workdir, f"{req.name}.r{rep}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(req.texts[rep])
    return path


def run_analyze(path: str) -> tuple[int, str]:
    """One request: ``crsphere analyze PATH --oracle``, stdout captured."""
    from crsphere.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(["analyze", path, "--oracle"])
    return status, buf.getvalue()


def check_analyze(req: AnalyzeRequest, status: int, out: str) -> list[str]:
    """Problems with one analyze answer; empty when it is exactly right."""
    bad = []
    if status != req.expected_status:
        bad.append(f"exit {status}, want {req.expected_status}")
    lines = out.splitlines()
    if req.kind == "asym2":
        if "symmetric lowered form: no" not in lines:
            bad.append("asymmetric tensor not reported")
        if not any(ln.startswith("asymmetry at frame pair") for ln in lines):
            bad.append("no asymmetry witness")
        return bad
    if "symmetric lowered form: yes" not in lines:
        bad.append("symmetric tensor rejected")
    route = [ln for ln in lines if ln.startswith("transverse-derivative route")]
    if len(route) != 1 or not route[0].endswith("(exact match: yes)"):
        bad.append("route line does not read 'exact match: yes'")
    oracle = [ln for ln in lines if ln.startswith("oracle ")]
    if req.kind == "n1":
        if len(oracle) != 3:
            bad.append(f"{len(oracle)} oracle lines, want 3")
        bad += [f"oracle line not PASS: {ln}" for ln in oracle
                if not ln.endswith("PASS") and not ln.endswith("[PASS]")]
    elif oracle != ["oracle cross-check: skipped (S^3 only)"]:
        bad.append("n=2 oracle line changed")
    return bad


# ---------------------------------------------------------------------------
# kernel-s7
# ---------------------------------------------------------------------------

_KERNEL_MONOMIALS = _monomials_by_degree(3, 3)
_PERMUTATIONS3 = ((2, 3, 4), (2, 4, 3), (3, 2, 4), (3, 4, 2), (4, 2, 3),
                  (4, 3, 2))
# 4 terms per factor: one linear, one quadratic and two cubic.
_KERNEL_SHAPE = (1, 2, 3, 3)


@dataclass(frozen=True)
class KernelItem:
    name: str
    a: object            # SpherePoly
    b: object            # SpherePoly
    moves: tuple         # (permutation, power of i on a, on b) per repetition

    def factors(self, rep: int):
        """The factors of repetition ``rep``: a and b relabelled and each
        multiplied by its power of i."""
        perm, ka, kb = self.moves[rep]
        return (_relabel_poly(self.a, perm) * _i_power(ka),
                _relabel_poly(self.b, perm) * _i_power(kb))


def _sphere_poly(terms: dict):
    from crsphere.ring import ExactScalar, SpherePoly
    return SpherePoly(3, {k: ExactScalar(re, im)
                          for k, (re, im) in terms.items()})


def kernel_items(seed: int, count: int, stream: str = "timed"):
    """Item ``i`` multiplies two polynomials whose monomials are the same
    for every seed, with seeded coefficients."""
    shapes = random.Random(f"kernel-s7/{stream}/monomials")
    rng = random.Random(f"kernel-s7/{stream}/{seed}")
    out = []
    for i in range(count):
        a, b = (_sphere_poly(_coefficients(rng, _random_terms(
            shapes, _KERNEL_MONOMIALS, _KERNEL_SHAPE))) for _ in "ab")
        moves = tuple(((None, 1, *_PERMUTATIONS3[code // 16]),
                       code // 4 % 4, code % 4)
                      for code in _variant_codes(rng, 6 * 4 * 4, "kernel-s7"))
        out.append(KernelItem(f"{stream}{i}", a, b, moves))
    return out


def _i_power(k: int):
    from crsphere.ring import ExactScalar
    return (ExactScalar(1), ExactScalar(0, 1), ExactScalar(-1),
            ExactScalar(0, -1))[k % 4]


def _relabel_poly(p, perm):
    from crsphere.ring import SpherePoly
    return SpherePoly(p.n, _relabelled(p.terms, perm))


def kernel_warmup(seed: int):
    return kernel_items(seed, 1, stream="warmup")


def run_kernel(a, b):
    """One request: the product a*b, its integral and its harmonic split and
    sub-Laplacian, and the L^2 norms of the factors."""
    from crsphere import spectral
    from crsphere.ring import norm2
    prod = a * b
    return (prod, prod.integral(), norm2(a), norm2(b),
            spectral.harmonic_decompose(prod), spectral.sublaplacian(prod))


def check_kernel(item: KernelItem, result) -> list[str]:
    """Exact identities repetition 0's answer must satisfy; empty when all
    hold."""
    from crsphere import spectral
    from crsphere.ring import ExactScalar, SpherePoly, norm2
    prod, integral, norm_a, norm_b, dec, lap = result
    n = prod.n
    bad = []
    swapped = item.b * item.a
    if swapped != prod:
        bad.append("a*b != b*a")
    if swapped.integral() != integral:
        bad.append("integral(a*b) != integral(b*a)")
    if dec.reconstruct() != prod:
        bad.append("harmonic decomposition does not reconstruct a*b")
    want_lap = SpherePoly.zero(n)
    for (p, q), comp in dec.components.items():
        if any(sum(a) - sum(b) != p - q for a, b in comp.terms):
            bad.append(f"component ({p},{q}) has terms of another weight")
        # eigenvalue of the sub-Laplacian on H_{p,q}: pq + n(p+q)/2
        lam = Fraction(p * q) + Fraction(n * (p + q), 2)
        want_lap = want_lap - comp * ExactScalar(lam)
    if lap != want_lap:
        bad.append("sublaplacian != -sum lambda_pq * component")
    if not lap.integral().is_zero():
        bad.append("integral of sublaplacian is not 0")
    for label, f, nrm in (("a", item.a, norm_a), ("b", item.b, norm_b)):
        parts = spectral.harmonic_decompose(f).components.values()
        if nrm != sum((norm2(c) for c in parts), ExactScalar.zero()):
            bad.append(f"norm2({label}) != sum of its harmonic parts' norms")
        if not (nrm.is_real() and nrm.re > 0):
            bad.append(f"norm2({label}) is not real and positive")
    return bad


def check_kernel_moved(base, move, result) -> list[str]:
    """Repetition whose factors are the checked repetition 0's relabelled
    by ``perm`` and multiplied by i^ka and i^kb: every part of the answer
    must be ``base`` relabelled and multiplied by i^(ka+kb), and the norms
    unchanged."""
    perm, ka, kb = move
    unit = _i_power(ka + kb)
    prod, integral, norm_a, norm_b, dec, lap = result
    bad = []
    if prod != _relabel_poly(base[0], perm) * unit:
        bad.append("a*b does not follow the relabelling")
    if integral != base[1] * unit:
        bad.append("integral does not follow the unit")
    if (norm_a, norm_b) != (base[2], base[3]):
        bad.append("norm2 changed under relabelling")
    if dec.components.keys() != base[4].components.keys() or any(
            dec.components[k] != _relabel_poly(c, perm) * unit
            for k, c in base[4].components.items()):
        bad.append("harmonic parts do not follow the relabelling")
    if lap != _relabel_poly(base[5], perm) * unit:
        bad.append("sublaplacian does not follow the relabelling")
    return bad


def kernel_digest(result) -> str:
    """sha256 of the exact answer, written out term by term."""
    prod, integral, norm_a, norm_b, dec, lap = result
    h = hashlib.sha256()

    def poly(p):
        for (a, b), c in sorted(p.terms.items()):
            h.update(f"{a}{b}{c.re}/{c.im};".encode())
        h.update(b"|")

    poly(prod)
    for x in (integral, norm_a, norm_b):
        h.update(f"{x.re}/{x.im}|".encode())
    for key in sorted(dec.components):
        h.update(f"{key}".encode())
        poly(dec.components[key])
    poly(lap)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# serving a workload in this process
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """One served repetition of a request: its latency, what was wrong
    with its answer, and a digest of the answer for the determinism
    check."""

    name: str
    seconds: float
    problems: list
    digest: str


def report_problems(status: int, report_path: str):
    """Check the verify run's exit status and report bytes."""
    problems = []
    if status != 0:
        problems.append(f"exit {status}, want 0")
    try:
        with open(report_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        return problems + [f"no report: {exc}"], ""
    if digest != VERIFY_REPORT_SHA256:
        problems.append(f"report sha256 {digest[:12]}... differs from "
                        f"the pinned {VERIFY_REPORT_SHA256[:12]}...")
    return problems, digest


class Session:
    """Set-up and timed requests of one workload inside this process."""

    def __init__(self, workload: str, seed: int, count: int, workdir: str,
                 repeats: int | None = None):
        self.workload = workload
        self.seed = seed
        self.count = count
        self.workdir = workdir
        self.repeats = repeats or REPEATS[workload]
        self.warmup: list[Outcome] = []
        self._requests: list = []
        self._base: dict = {}           # kernel: checked repetition 0

    def setup(self, check: bool = True) -> None:
        """Import the program, make the inputs and serve the warm-up.

        With ``check`` false the warm-up answers are not checked, so that
        timing set-up does not time the benchmark's own checks.
        """
        import crsphere.cli  # noqa: F401  (everything the CLI loads)
        if self.workload == "analyze-stream":
            self._requests = analyze_requests(self.seed, self.count)
            warm = analyze_warmup(self.seed)
        else:
            self._requests = kernel_items(self.seed, self.count)
            warm = kernel_warmup(self.seed)
        self.warmup = [self._serve_one(req, 0, check=check) for req in warm]
        self._base.clear()

    def serve(self, tracer=None) -> list[Outcome]:
        """Serve every request ``repeats`` times: repetition 0 of every
        request, then repetition 1, and so on.  Outcome ``r * count + i``
        is repetition ``r`` of request ``i``."""
        out = []
        for r in range(self.repeats):
            for i, req in enumerate(self._requests):
                out.append(self._serve_one(req, r, tracer,
                                           r * len(self._requests) + i))
        return out

    def serve_verify(self, tracer=None) -> Outcome:
        """The untimed ``crsphere verify`` run, traced if ``tracer``."""
        from crsphere.cli import main
        report = os.path.join(self.workdir, f"report-{os.getpid()}.txt")
        if os.path.exists(report):      # a stale report must not pass
            os.remove(report)
        if tracer is not None:
            tracer.request = -1
            tracer.active = True
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(VERIFY_ARGS + ["--output", report])
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        problems, digest = report_problems(status, report)
        return Outcome("verify", seconds, problems, digest)

    def _serve_one(self, req, rep: int, tracer=None, request: int = 0,
                   check: bool = True) -> Outcome:
        """Serve one repetition; its input is made before the clock
        starts."""
        if self.workload == "analyze-stream":
            path = write_analyze_file(req, rep, self.workdir)
        else:
            factors = req.factors(rep)
        if tracer is not None:
            tracer.request = request
            tracer.active = True
        t0 = time.perf_counter()
        try:
            if self.workload == "analyze-stream":
                answer = run_analyze(path)
            else:
                answer = run_kernel(*factors)
        except Exception as exc:        # a crash is a failed request
            answer = exc
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        name = f"{req.name}.r{rep}"
        if isinstance(answer, Exception):
            return Outcome(name, seconds,
                           [f"raised {type(answer).__name__}: {answer}"], "")
        if not check:
            return Outcome(name, seconds, [], "")
        if self.workload == "analyze-stream":
            status, out = answer
            digest = hashlib.sha256(f"{status}\n{out}".encode()).hexdigest()
            return Outcome(name, seconds, check_analyze(req, status, out),
                           digest)
        if rep == 0:
            problems = check_kernel(req, answer)
            if not problems:
                self._base[req.name] = answer
        elif req.name in self._base:
            problems = check_kernel_moved(self._base[req.name],
                                          req.moves[rep], answer)
        else:
            problems = ["repetition 0 failed its checks"]
        return Outcome(name, seconds, problems, kernel_digest(answer))
