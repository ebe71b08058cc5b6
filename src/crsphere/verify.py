"""Deterministic verification suites and the structured report.

Each suite replays a fixed pool of exact identities and records every
comparison verbatim (both sides as rational strings).  Pool enumeration
is sorted by (total degree, exponents), so a given configuration always
produces byte-identical reports.  Optional Monte-Carlo cross-checks are
float-only sanity guards on the measure conventions and never touch the
exact verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__ as _version
from .ring import (ExactScalar, SpherePoly, norm2, parse_poly, parse_scalar,
                   volume_factor)
from . import spectral
from . import frames
from . import variation
from . import oracle3

__all__ = ["SuiteConfig", "CheckRecord", "Report", "run_suite",
           "monomial_pool", "structured_tensors", "conformal_checks",
           "conventions", "conventions_text", "SUITE_NAMES"]

SUITE_NAMES = ("ring", "spectral", "frames", "variation", "oracle3")


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration for a verification run."""

    n: int = 1
    degree: int = 4
    suites: tuple[str, ...] = SUITE_NAMES
    samples: int = 0
    seed: int = 0
    output: str = "report.txt"

    def validate(self) -> None:
        if self.degree < 1:
            raise ValueError("degree bound must be >= 1")
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")
        if self.n > 3:
            raise ValueError(
                f"n = {self.n} is not supported for pool suites; exact "
                "pools are maintained for n <= 3 only")
        if self.samples < 0:
            raise ValueError("sample count must be >= 0")
        choices = f"choose from {', '.join(SUITE_NAMES)} or 'all'"
        if not self.suites:
            raise ValueError(f"no suite selected; {choices}")
        for i, s in enumerate(self.suites):
            if s not in SUITE_NAMES:
                raise ValueError(f"unknown suite {s!r}; {choices}")
            if s in self.suites[:i]:
                raise ValueError(f"suite {s!r} is listed twice")


@dataclass(frozen=True)
class CheckRecord:
    name: str
    expected: str
    actual: str
    ok: bool
    kind: str = "exact"

    def to_text(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return f"  {mark} {self.name} expected={self.expected} actual={self.actual}"


@dataclass
class Report:
    config: SuiteConfig
    conventions: list[tuple[str, str]] = field(default_factory=list)
    suites: list[tuple[str, list[CheckRecord]]] = field(default_factory=list)
    version: str = _version

    def exact_failures(self) -> int:
        return sum(1 for _, recs in self.suites
                   for r in recs if r.kind == "exact" and not r.ok)

    def float_failures(self) -> int:
        return sum(1 for _, recs in self.suites
                   for r in recs if r.kind == "float" and not r.ok)

    def passed(self) -> bool:
        return self.exact_failures() == 0

    def to_text(self) -> str:
        c = self.config
        lines = [
            "crsphere verification report",
            f"version: {self.version}",
            f"n: {c.n}",
            f"degree: {c.degree}",
            f"suites: {','.join(c.suites)}",
            f"samples: {c.samples}",
            f"seed: {c.seed}",
            "",
            "[conventions]",
        ]
        lines += [f"{k}: {v}" for k, v in self.conventions]
        for name, recs in self.suites:
            bad = sum(1 for r in recs if not r.ok)
            status = "PASS" if bad == 0 else f"FAIL ({bad} failed)"
            lines.append("")
            lines.append(f"[suite {name}] {status} ({len(recs)} checks)")
            lines += [r.to_text() for r in recs]
        lines.append("")
        nsuites = len(self.suites)
        good = sum(1 for _, recs in self.suites if all(r.ok for r in recs))
        total = sum(len(recs) for _, recs in self.suites)
        lines.append(f"[summary] {good}/{nsuites} suites passed, "
                     f"{total} checks, {self.exact_failures()} exact failures,"
                     f" {self.float_failures()} float failures")
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def conventions(n: int) -> list[tuple[str, str]]:
    w0 = variation.round_webster_curvature(n)
    return [
        ("contact form", "theta = i sum (z_a dzbar_a - zbar_a dz_a), "
                         "normalized so theta(T) = 1"),
        ("transverse field", "T = (i/2) sum (z_a d/dz_a - zbar_a d/dzbar_a); "
                             "weight-m functions get i m/2"),
        ("levi constant h", str(oracle3.LEVI_CONSTANT)),
        ("levi pairing sign", "positive-definite, sum v_a conj(w_a)"),
        ("sharp pairing", "sum dz_a(V) dzbar_a(W); i-dtheta convention of "
                          "the musical map"),
        ("round webster curvature W0", f"n(n+1)/2 = {w0} at n={n} "
                                       "(frame-derived)"),
        ("textbook W variant", f"n(n+1) = {n * (n + 1)}; differs by the "
                               "gradient calibration factor"),
        ("eigenvalues", "lambda(p,q,n) = p q + n (p+q)/2"),
        ("gradient calibration kappa", str(spectral.GRADIENT_CALIBRATION)),
        ("second-variation coefficient C",
         f"{oracle3.SECOND_VARIATION_COEFF} (order-t^2 of int W against "
         "sum (m+4)||E^(m)||^2; d^2/dt^2 doubles it)"),
        ("volume factor", f"{volume_factor(n)} (integrals reported in the "
                          "probability measure)"),
        ("normalized-energy unit", "2 pi (symbolic; multiplies every "
                                   "reported functional value)"),
        ("embeddability cutoff", "nonzero modes m <= -4 obstruct (S^3); "
                                 "constant directions classify embeddable "
                                 "under this orientation"),
    ]


def conventions_text(n: int) -> str:
    return "\n".join(f"{k}: {v}" for k, v in conventions(n))


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def _exponents(width: int, total: int):
    if width == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponents(width - 1, total - head):
            yield (head,) + rest


def monomial_pool(n: int, degree: int) -> list[tuple[str, SpherePoly]]:
    """All monomials z^a zbar^b with |a| + |b| <= degree, in pool order."""
    out = []
    for d in range(degree + 1):
        keys = []
        for da in range(d + 1):
            for a in _exponents(n + 1, da):
                for b in _exponents(n + 1, d - da):
                    keys.append((a, b))
        for a, b in sorted(keys):
            p = SpherePoly.monomial(n, a, b)
            out.append((p.to_grammar(), p))
    return out


def _rec(name: str, want, got, kind: str = "exact") -> CheckRecord:
    def s(x):
        if isinstance(x, SpherePoly):
            return x.to_grammar()
        if isinstance(x, ExactScalar):
            return x.serialize()
        return str(x)
    return CheckRecord(name=name, expected=s(want), actual=s(got),
                       ok=s(want) == s(got) if kind == "exact" else bool(got == want),
                       kind=kind)


def _rec_bool(name: str, ok: bool, detail: str = "") -> CheckRecord:
    return CheckRecord(name=name, expected="true",
                       actual="true" if ok else f"false {detail}".strip(),
                       ok=ok)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def run_ring_suite(cfg: SuiteConfig) -> list[CheckRecord]:
    n = cfg.n
    recs: list[CheckRecord] = []
    pool = monomial_pool(n, min(cfg.degree, 4))

    # canonical examples
    if n == 1:
        z1w1 = SpherePoly.z(1, 1) * SpherePoly.w(1, 1)
        recs.append(_rec("normal_form[z1 w1]",
                         SpherePoly.one(1) - SpherePoly.z(1, 2) * SpherePoly.w(1, 2),
                         z1w1))
    relation = SpherePoly.zero(n)
    for j in range(1, n + 2):
        relation = relation + SpherePoly.z(n, j) * SpherePoly.w(n, j)
    recs.append(_rec("normal_form[sphere relation]", SpherePoly.one(n),
                     relation))

    # integration: phase invariance and the zero rule
    phase = ExactScalar(Fraction(3, 5), Fraction(4, 5))
    for name, p in pool:
        recs.append(_rec(f"integral.phase-invariance[{name}]",
                         p.integral(), p.phase_substitute(phase).integral()))
    # serialization round trips
    for name, p in pool[: 12]:
        recs.append(_rec(f"grammar.roundtrip[{name}]", p,
                         parse_poly(p.to_grammar(), n)))
    sc = ExactScalar(Fraction(-7, 3), Fraction(5, 11))
    recs.append(_rec("scalar.roundtrip", sc, parse_scalar(sc.serialize())))

    # fourier partition and idempotence
    for name, p in pool:
        total = SpherePoly.zero(n)
        for m in p.modes():
            pm = p.fourier_project(m)
            total = total + pm
            if pm.fourier_project(m) != pm:
                recs.append(_rec_bool(f"fourier.idempotent[{name}]", False))
                break
        recs.append(_rec(f"fourier.partition[{name}]", p, total))

    # circle invariance of the measure: zero mean off the zero mode
    for name, p in pool:
        if p.fourier_project(0).is_zero():
            recs.append(_rec(f"integral.zero-mode-rule[{name}]",
                             ExactScalar.zero(), p.integral()))

    # product compatibility with the quotient
    zs = [SpherePoly.z(n, 1), SpherePoly.w(n, 1), SpherePoly.z(n, 2)]
    q = (zs[0] + zs[1]) * (zs[2] + SpherePoly.one(n))
    recs.append(_rec("product.requotient",
                     q * relation, q))
    return recs


def run_spectral_suite(cfg: SuiteConfig) -> list[CheckRecord]:
    n = cfg.n
    recs: list[CheckRecord] = []
    pool = monomial_pool(n, min(cfg.degree, 4))

    # eigenvalue table
    for p, q in sorted((p, q) for p in range(5) for q in range(5)
                       if 0 < p + q <= 4):
        lam = spectral.eigenvalue(p, q, n)
        recs.append(_rec(f"eigenvalue[{p},{q},{n}]",
                         Fraction(p * q) + Fraction(n * (p + q), 2), lam))

    for name, f in pool:
        dec = spectral.harmonic_decompose(f)
        recs.append(_rec(f"decompose.reconstruct[{name}]", f,
                         dec.reconstruct()))
        # eigen property on each component
        ok = True
        for (p, q), comp in dec.components.items():
            lam = ExactScalar(spectral.eigenvalue(p, q, n))
            if spectral.sublaplacian(comp) != comp * lam * -1:
                ok = False
        recs.append(_rec_bool(f"decompose.eigen[{name}]", ok))

    # self-adjointness and negativity on real samples
    reals = []
    for name, f in pool[: 18]:
        g = f + f.conjugate()
        if not g.is_zero():
            reals.append((name, g))
    for i in range(min(6, len(reals))):
        for j in range(i, min(6, len(reals))):
            fi, fj = reals[i][1], reals[j][1]
            left = (fi * spectral.sublaplacian(fj)).integral()
            right = (fj * spectral.sublaplacian(fi)).integral()
            recs.append(_rec(f"sublap.self-adjoint[{i},{j}]", left, right))
    for name, g in reals:
        val = (g * spectral.sublaplacian(g)).integral()
        recs.append(_rec_bool(f"sublap.nonpositive[{name}]",
                              val.is_real() and val.re <= 0,
                              f"value {val.serialize()}"))

    # spectral-gap identity: energy - n(||f||^2 - mean^2) >= 0, null
    # exactly on constants plus linear functions
    for name, g in reals:
        e = spectral.dirichlet_energy(g)
        mean = g.integral()
        gap = e - (norm2(g) - mean * mean) * n
        only_linear = all(p + q <= 1 for (p, q)
                          in spectral.harmonic_decompose(g).components)
        want_zero = only_linear
        is_zero = gap.is_zero()
        recs.append(_rec_bool(
            f"spectral-gap[{name}]",
            gap.is_real() and gap.re >= 0 and (is_zero == want_zero),
            f"gap {gap.serialize()}"))

    if n == 1:
        re_z1 = (SpherePoly.z(1, 1) + SpherePoly.w(1, 1)) * Fraction(1, 2)
        recs.append(_rec("dirichlet[Re z1]", ExactScalar(Fraction(1, 4)),
                         spectral.dirichlet_energy(re_z1)))
    return recs


def run_frames_suite(cfg: SuiteConfig) -> list[CheckRecord]:
    recs: list[CheckRecord] = []
    minus_i = ExactScalar(0, -1)
    for n in range(1, cfg.n + 1):
        pairs = frames.index_pairs(n)
        t = frames.reeb(n)
        relation = SpherePoly.zero(n)
        for j in range(1, n + 2):
            relation = relation + SpherePoly.z(n, j) * SpherePoly.w(n, j)

        for (j, k) in pairs:
            zjk = frames.z_field(n, j, k)
            recs.append(_rec_bool(f"bracket[T,Z{j}{k}]@n={n}",
                                  frames.bracket(t, zjk) == zjk * minus_i))
            recs.append(_rec_bool(f"covariant_T[Z{j}{k}]@n={n}",
                                  frames.covariant_T(zjk) == zjk * minus_i))
        for (j, k) in pairs:
            for (p, q) in pairs:
                recs.append(_rec_bool(
                    f"covariant_Z[Z{j}{k},Z{p}{q}]@n={n}",
                    frames.covariant_Z(frames.z_field(n, j, k),
                                       frames.z_field(n, p, q)).is_zero()))
        # sharp-map consistency across all index pairs
        for (l, m) in pairs:
            for (j, k) in pairs:
                lhs = frames.sharp_pairing(frames.z_field(n, l, m),
                                           frames.zbar_field(n, j, k))
                rhs = frames.form_eval(frames.theta_form(n, j, k),
                                       frames.z_field(n, l, m))
                recs.append(_rec(f"sharp[{l}{m},{j}{k}]@n={n}", rhs, lhs))
        # duality of the contact form
        recs.append(_rec(f"theta(T)@n={n}", SpherePoly.one(n),
                         frames.form_eval(frames.contact_form(n), t)))
        # tight-frame Parseval on a polynomial-coefficient field
        v = frames.z_field(n, 1, 2) * SpherePoly.w(n, n + 1)
        if n > 1:
            v = v + frames.z_field(n, 2, 3) * SpherePoly.w(n, 1)
        par = SpherePoly.zero(n)
        for (j, k) in pairs:
            c = frames.form_eval(frames.theta_form(n, j, k), v)
            par = par + c * c.conjugate()
        recs.append(_rec(f"parseval@n={n}", frames.levi_pairing(v, v), par))
    return recs


def structured_tensors(n: int, count: int) -> list[tuple[str, "variation.DeformationTensor"]]:
    """Deterministic symmetric deformation tensors of degree <= 3."""
    out = []
    if n == 1:
        for name, p in monomial_pool(1, 3):
            out.append((name, variation.DeformationTensor.from_coefficient(p)))
        i = 0
        pool = monomial_pool(1, 3)
        while len(out) < count and i + 4 < len(pool):
            p = pool[i][1] + pool[i + 4][1] * ExactScalar(0, 1)
            out.append((f"combo{i}", variation.DeformationTensor.from_coefficient(p)))
            i += 1
        return out[:count]
    pairs = frames.index_pairs(n)
    coeffs = [SpherePoly.one(n), SpherePoly.z(n, 1), SpherePoly.w(n, n + 1),
              SpherePoly.z(n, 1) * SpherePoly.w(n, 2),
              SpherePoly.z(n, 2) ** 2,
              SpherePoly.w(n, 1) * SpherePoly.w(n, 2),
              SpherePoly.z(n, 1) * SpherePoly.z(n, 2) * SpherePoly.w(n, 3),
              SpherePoly.w(n, 2) ** 3]
    for ci, c in enumerate(coeffs):
        for ai in range(len(pairs)):
            if len(out) >= count:
                return out
            d = frames.TensorField(n, {(pairs[ai], pairs[ai]): c})
            out.append((f"diag{ci}.{ai}",
                        variation.DeformationTensor.from_tensor(d)))
            bi = (ai + 1) % len(pairs)
            if len(out) >= count:
                return out
            s = frames.TensorField(n, {(pairs[ai], pairs[bi]): c,
                                       (pairs[bi], pairs[ai]): c})
            out.append((f"sym{ci}.{ai}",
                        variation.DeformationTensor.from_tensor(s)))
    return out[:count]


def run_variation_suite(cfg: SuiteConfig) -> list[CheckRecord]:
    n = cfg.n
    recs: list[CheckRecord] = []

    # two-route Hessian equality on structured tensors
    count = 50 if n == 1 else 20
    for name, e in structured_tensors(n, count):
        recs.append(_rec_bool(f"symmetry[{name}]@n={n}",
                              not e.asymmetries))
        rep = variation.j_hessian(e)
        via = variation.j_hessian_via_T(e)
        recs.append(_rec(f"two-route[{name}]@n={n}", rep.total, via))
        # mode orthogonality
        nrm = ExactScalar.zero()
        for c in e.coefficients().values():
            nrm = nrm + norm2(c)
        recs.append(_rec(f"mode-orthogonality[{name}]@n={n}", nrm,
                         rep.norm2()))
        if n > 1 and e.admissible() and not e.is_zero():
            bound = nrm * (4 * n)
            recs.append(_rec_bool(
                f"admissible-positivity[{name}]@n={n}",
                rep.total.is_real() and rep.total.re >= bound.re
                and rep.total.re > 0,
                f"total {rep.total.serialize()}"))

    if n == 1:
        # sign law over pure modes realizable at degree <= 6
        for name, p in monomial_pool(1, 6):
            if p.is_zero():
                continue
            ms = p.modes()
            if len(ms) != 1:
                continue
            m = ms[0]
            e = variation.DeformationTensor.from_coefficient(p)
            total = variation.j_hessian(e).total
            if m <= -5:
                ok = total.is_real() and total.re < 0
            elif m == -4:
                ok = total.is_zero()
            else:
                ok = total.is_real() and total.re > 0
            recs.append(_rec_bool(f"sign-law[m={m}][{name}]", ok,
                                  f"total {total.serialize()}"))
        # embeddability classifier on the canonical examples
        for text, want in (("(1/1,0/1) w1 w2^3", False),
                           ("(1/1,0/1)", True),
                           ("(1/1,0/1) w1^4 z2", True),
                           ("(1/1,0/1) w1^5", False)):
            e = variation.DeformationTensor.from_coefficient(parse_poly(text, 1))
            recs.append(_rec_bool(f"embeddable[{text}]",
                                  variation.is_embeddable(e) == want))

    # conformal direction: kernel, positivity, route equality
    recs += conformal_checks(n, max_degree=min(cfg.degree, 4))
    return recs


def conformal_checks(n: int, max_degree: int = 4) -> list[CheckRecord]:
    recs: list[CheckRecord] = []
    seen: set = set()
    for name, p in monomial_pool(n, max_degree):
        for v in (p + p.conjugate(),
                  (p - p.conjugate()) * ExactScalar(0, 1)):
            v = v - SpherePoly.constant(n, v.integral())
            if v.is_zero():
                continue
            if v in seen:
                continue
            seen.add(v)
            hess = variation.conformal_hessian(v)
            bidegrees = spectral.harmonic_decompose(v).components.keys()
            linear = all(p_ + q_ == 1 for (p_, q_) in bidegrees)
            ok = hess.is_real() and hess.re >= 0 and \
                (hess.is_zero() == linear)
            recs.append(_rec_bool(f"conformal-hessian[{name}]@n={n}", ok,
                                  f"value {hess.serialize()}"))
            series = variation.yamabe_energy_series(v)
            recs.append(_rec(f"conformal-route[{name}]@n={n}",
                             hess, series.c2.constant_term() * 2))
            recs.append(_rec(f"conformal-first-variation[{name}]@n={n}",
                             ExactScalar.zero(), series.c1.constant_term()))
    return recs


def run_oracle3_suite(cfg: SuiteConfig) -> list[CheckRecord]:
    recs: list[CheckRecord] = []
    if cfg.n != 1:
        recs.append(_rec_bool("oracle3.skipped-dimension", True))
        return recs
    pool = monomial_pool(1, cfg.degree)
    c = ExactScalar(oracle3.SECOND_VARIATION_COEFF)

    solved = {}
    for name, e in pool:
        ps = oracle3.solve_structure(oracle3.deform_frame(e))
        solved[name] = ps
        recs.append(_rec(f"criticality[{name}]", ExactScalar.zero(),
                         ps.webster.c1.integral()))
        d2 = ps.webster.c2.integral() * 2
        modes = oracle3.mode_weighted_norm(e)
        recs.append(_rec(f"mode-formula[{name}]", modes, d2))
        via = variation.j_hessian_via_T(
            variation.DeformationTensor.from_coefficient(e))
        recs.append(_rec(f"covariant-route[{name}]", via, d2))
        recs.append(_rec(f"series-coefficient[{name}]", modes * c,
                         ps.webster.c2.integral()))

    # closed-form first-order slices on a diverse subset
    subset = pool[:: max(1, len(pool) // 18)]
    for name, e in subset:
        for check in (oracle3.check_first_variation,
                      oracle3.check_torsion_variation,
                      oracle3.check_connection_variation):
            verdict = check(e, solved[name])
            recs.append(_rec_bool(f"{verdict.name}", verdict.ok))

    # gauge invariance and path-completion independence
    phase = ExactScalar(Fraction(3, 5), Fraction(4, 5))
    tweak = SpherePoly.z(1, 1) + SpherePoly.w(1, 2) ** 2
    for name, e in subset[:6]:
        base = solved[name].webster
        gauged = oracle3.solve_structure(
            oracle3.deform_frame(e, phase=phase)).webster
        recs.append(_rec_bool(f"gauge-invariance[{name}]", base == gauged))
        moved = oracle3.solve_structure(
            oracle3.deform_frame(e, second_order_tweak=tweak)).webster
        recs.append(_rec(f"path-independence[{name}]",
                         (base.c2.integral()), (moved.c2.integral())))
    return recs


def run_montecarlo_suite(cfg: SuiteConfig) -> list[CheckRecord]:
    """Float cross-check of the exact monomial integrals (3 standard errors)."""
    import numpy as np

    n = cfg.n
    recs: list[CheckRecord] = []
    rng = np.random.RandomState(cfg.seed)
    dim = n + 1
    g = rng.standard_normal((cfg.samples, 2 * dim))
    pts = g / np.linalg.norm(g, axis=1, keepdims=True)
    zs = pts[:, :dim] + 1j * pts[:, dim:]
    powcache = {}

    def zpow(j: int, e: int):
        key = (j, e)
        if key not in powcache:
            powcache[key] = zs[:, j] ** e
        return powcache[key]

    for name, p in monomial_pool(n, min(cfg.degree, 6)):
        vals = np.zeros(cfg.samples, dtype=complex)
        for (a, b), c in p.sorted_terms():
            term = np.full(cfg.samples, c.to_complex())
            for j, e in enumerate(a):
                if e:
                    term = term * zpow(j, e)
            for j, e in enumerate(b):
                if e:
                    term = term * np.conj(zpow(j, e))
            vals = vals + term
        exact = p.integral()
        for part, data, want in (("re", vals.real, float(exact.re)),
                                 ("im", vals.imag, float(exact.im))):
            mean = float(data.mean())
            se = float(data.std(ddof=1)) / math.sqrt(cfg.samples)
            ok = abs(mean - want) <= 3 * se + 1e-12
            recs.append(CheckRecord(
                name=f"montecarlo[{name}].{part}",
                expected=f"{want:+.6f}",
                actual=f"{mean:+.6f} (3se={3 * se:.6f})",
                ok=ok, kind="float"))
    return recs


_RUNNERS = {
    "ring": run_ring_suite,
    "spectral": run_spectral_suite,
    "frames": run_frames_suite,
    "variation": run_variation_suite,
    "oracle3": run_oracle3_suite,
}


def run_suite(cfg: SuiteConfig) -> Report:
    """Execute the selected suites deterministically and build the report."""
    cfg.validate()
    report = Report(config=cfg, conventions=conventions(cfg.n))
    for name in cfg.suites:
        report.suites.append((name, _RUNNERS[name](cfg)))
    if cfg.samples > 0:
        report.suites.append(("montecarlo", run_montecarlo_suite(cfg)))
    return report
