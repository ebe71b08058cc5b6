"""Acceptance gate: every criterion exact, one pass line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
summary prints).  All equalities are exact rational identities; the only
float checks are the Monte-Carlo cross-validation of the measure, held to
three standard errors at a fixed seed.
"""

import time
from fractions import Fraction

import pytest

from crsphere.ring import ExactScalar, SpherePoly
from crsphere import frames, spectral, variation, oracle3
from crsphere.verify import (SuiteConfig, conformal_checks, monomial_pool,
                             run_montecarlo_suite, structured_tensors)

Z1 = frames.z_field(1, 1, 2)             # 3-dimensional frame field
ZB1 = Z1.conjugate()
T = frames.reeb(1)


@pytest.fixture(scope="module")
def pool_series():
    """Solved structure equations for every monomial with |a|+|b| <= 4."""
    out = []
    start = time.time()
    for name, e in monomial_pool(1, 4):
        out.append((name, e, oracle3.solve_structure(oracle3.deform_frame(e))))
    elapsed = time.time() - start
    assert len(out) == 70
    assert elapsed < 120, f"pool solve took {elapsed:.1f}s"
    return out


def test_criterion_1_criticality(pool_series):
    for name, _, ps in pool_series:
        val = ps.webster.c1.integral()
        assert val.is_zero(), f"first variation leaked for {name}: {val}"
    print(f"\nACCEPTANCE 1 criticality: PASS ({len(pool_series)} monomials, "
          "order-t of the total curvature exactly 0)")


def test_criterion_2_mode_formula(pool_series):
    # the constant is pinned by the constant deformation, then uniform
    e_one = SpherePoly.one(1)
    ps_one = oracle3.solve_structure(oracle3.deform_frame(e_one))
    denom = oracle3.mode_weighted_norm(e_one)
    c = ps_one.webster.c2.integral() / denom
    assert c.is_real() and c.re > 0
    assert c == ExactScalar(oracle3.SECOND_VARIATION_COEFF)
    for name, e, ps in pool_series:
        want = oracle3.mode_weighted_norm(e) * c
        got = ps.webster.c2.integral()
        assert got == want, f"mode formula failed for {name}"
    print(f"\nACCEPTANCE 2 mode formula: PASS (C = {c.re}, uniform over "
          f"{len(pool_series)} cases)")


def test_criterion_3_two_route_hessian():
    count = 0
    for n, size in ((1, 50), (2, 20)):
        tensors = structured_tensors(n, size)
        assert len(tensors) == size
        for name, e in tensors:
            assert not e.asymmetries
            rep = variation.j_hessian(e)
            via = variation.j_hessian_via_T(e)
            assert rep.total == via, f"route mismatch at {name} (n={n})"
            count += 1
    print(f"\nACCEPTANCE 3 two-route Hessian: PASS ({count} tensors, "
          "S^3 and S^5)")


def test_criterion_4_first_variation_formulas(pool_series):
    for name, e, ps in pool_series:
        ebar = e.conjugate()
        # torsion: dA/dt = -i (T - 2i) conj(E)
        want_a = (frames.field_apply(T, ebar) - ebar * ExactScalar(0, 2)) \
            * ExactScalar(0, -1)
        assert ps.torsion.c1 == want_a, f"torsion slice at {name}"
        # connection: -i (Zbar_1 E) theta^1 - i (Z_1 conj E) theta^1bar
        assert ps.omega[oracle3.TH].c1.is_zero(), \
            f"connection theta slice at {name}"
        assert ps.omega[oracle3.T1].c1 == \
            frames.field_apply(ZB1, e) * ExactScalar(0, -1)
        assert ps.omega[oracle3.T1B].c1 == \
            frames.field_apply(Z1, ebar) * ExactScalar(0, -1)
        # curvature: (i/2)(Zbar_1^2 E - Z_1^2 conj E)
        want_w = (frames.field_apply(ZB1, frames.field_apply(ZB1, e))
                  - frames.field_apply(Z1, frames.field_apply(Z1, ebar))) \
            * ExactScalar(0, Fraction(1, 2))
        assert ps.webster.c1 == want_w, f"curvature slice at {name}"
    print(f"\nACCEPTANCE 4 first-variation formulas: PASS "
          f"({len(pool_series)} cases, torsion/connection/curvature slices)")


def test_criterion_5_conformal_hessian():
    total = 0
    for n in (1, 2, 3):
        recs = conformal_checks(n, max_degree=4)
        bad = [r for r in recs if not r.ok]
        assert not bad, f"n={n}: {bad[:3]}"
        total += len(recs)
    print(f"\nACCEPTANCE 5 conformal Hessian: PASS ({total} checks over "
          "n in {1,2,3}; kernel = ambient-linear span; series route exact)")


def test_criterion_6_sign_embeddability_coupling():
    checked = 0
    for name, p in monomial_pool(1, 6):
        ms = p.modes()
        if len(ms) != 1:
            continue
        m = ms[0]
        e = variation.DeformationTensor.from_coefficient(p)
        total = variation.j_hessian(e).total
        emb = variation.is_embeddable(e)
        assert total.is_real()
        if m <= -5:
            assert total.re < 0 and not emb, name
        elif m == -4:
            assert total.is_zero() and not emb, name
        else:
            assert total.re > 0 and emb, name
        checked += 1
    # multi-term pure modes behave identically
    for p in (SpherePoly.w(1, 1) ** 5 + SpherePoly.w(1, 1) * SpherePoly.w(1, 2) ** 4,
              SpherePoly.w(1, 1) ** 4 + SpherePoly.w(1, 2) ** 4):
        e = variation.DeformationTensor.from_coefficient(p)
        total = variation.j_hessian(e).total
        m = p.modes()[0]
        if m <= -5:
            assert total.re < 0
        else:
            assert total.is_zero()
        checked += 1
    print(f"\nACCEPTANCE 6 sign/embeddability coupling: PASS "
          f"({checked} pure-mode directions)")


def test_criterion_7_spectral_table_and_frame_constant():
    checked = 0
    for n in (1, 2, 3):
        for p in range(5):
            for q in range(5):
                if not 0 < p + q <= 4:
                    continue
                # frame-free reproduction: decompose a few bidegree-(p,q)
                # monomials and act with the spectral sub-Laplacian
                a = [0] * (n + 1)
                b = [0] * (n + 1)
                a[0] = p
                b[min(1, n)] = q
                mono = SpherePoly.monomial(n, tuple(a), tuple(b))
                comp = spectral.harmonic_decompose(mono).components.get((p, q))
                assert comp is not None and not comp.is_zero()
                lam = ExactScalar(Fraction(p * q) + Fraction(n * (p + q), 2))
                assert spectral.sublaplacian(comp) == comp * lam * -1
                assert spectral.eigenvalue(p, q, n) == \
                    p * q + Fraction(n * (p + q), 2)
                checked += 1
    # frame-derived round curvature equals the calibrated n(n+1)/2 at n=1
    ps = oracle3.solve_structure(oracle3.deform_frame(SpherePoly.zero(1)))
    w0 = ps.webster.c0
    assert w0 == SpherePoly.constant(1, ExactScalar(Fraction(1)))
    assert variation.round_webster_curvature(1) == Fraction(1)
    print(f"\nACCEPTANCE 7 spectral table: PASS ({checked} eigenvalue "
          "reproductions; frame W0 = 1 = n(n+1)/2 at n=1)")


def test_criterion_8_frame_identities():
    checked = 0
    for n in (1, 2, 3):
        pairs = frames.index_pairs(n)
        t = frames.reeb(n)
        for jk in pairs:
            zf = frames.z_field(n, *jk)
            assert frames.bracket(t, zf) == zf * ExactScalar(0, -1)
            checked += 1
        for jk in pairs:
            for pq in pairs:
                assert frames.covariant_Z(frames.z_field(n, *jk),
                                          frames.z_field(n, *pq)).is_zero()
                checked += 1
        for lm in pairs:
            for jk in pairs:
                lhs = frames.sharp_pairing(frames.z_field(n, *lm),
                                           frames.zbar_field(n, *jk))
                rhs = frames.form_eval(frames.theta_form(n, *jk),
                                       frames.z_field(n, *lm))
                assert lhs == rhs
                checked += 1
        v = frames.z_field(n, 1, 2) * SpherePoly.w(n, n + 1)
        if n > 1:
            v = v + frames.z_field(n, 2, 3) * \
                (SpherePoly.z(n, 1) * SpherePoly.w(n, 2))
        par = SpherePoly.zero(n)
        for jk in pairs:
            c = frames.form_eval(frames.theta_form(n, *jk), v)
            par = par + c * c.conjugate()
        assert par == frames.levi_pairing(v, v)
        checked += 1
    print(f"\nACCEPTANCE 8 frame identities: PASS ({checked} identities, "
          "n <= 3)")


def test_criterion_9_montecarlo_cross_check():
    start = time.time()
    cfg = SuiteConfig(n=1, degree=6, suites=("ring",), samples=1_000_000,
                      seed=0)
    recs = run_montecarlo_suite(cfg)
    elapsed = time.time() - start
    bad = [r for r in recs if not r.ok]
    assert not bad, bad[:5]
    assert elapsed < 60, f"Monte-Carlo took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 9 exact-vs-float integration: PASS "
          f"({len(recs)} comparisons within 3 standard errors, "
          f"{elapsed:.1f}s)")
