"""Deformation tensors, mode analysis, embeddability and both Hessians."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crsphere import frames, variation
from crsphere.ring import (ExactScalar, SpherePoly, TSeries2, mode_norms,
                           norm2)
from crsphere.frames import TensorField, index_pairs, tight_expand, z_field
from crsphere.variation import (DeformationTensor, HessianReport,
                                conformal_exponent, conformal_hessian,
                                is_embeddable, j_hessian, j_hessian_via_T,
                                obstructing_modes, round_webster_curvature,
                                validate_symmetry, yamabe_energy_series)
from crsphere.spectral import harmonic_decompose, sublaplacian
from crsphere.verify import monomial_pool

from test_frames import low_degree_polys, tensors
from test_ring import polys, z, w


def defo(p: SpherePoly) -> DeformationTensor:
    return DeformationTensor.from_coefficient(p)


def real_zero_avg(p: SpherePoly) -> SpherePoly:
    v = p + p.conjugate()
    return v - SpherePoly.constant(v.n, v.integral())


# -- calibration constants ----------------------------------------------------

def test_round_curvature_and_exponent():
    assert round_webster_curvature(1) == 1
    assert round_webster_curvature(2) == 3
    assert round_webster_curvature(3) == 6
    assert conformal_exponent(1) == 4
    assert conformal_exponent(2) == 3


# -- symmetry ----------------------------------------------------------------------

def test_symmetry_vacuous_on_s3():
    assert not defo(w(1, 1) ** 5).asymmetries


def test_symmetric_pair_tensor_s5():
    pairs = index_pairs(2)
    c = z(2, 3)
    sym = TensorField(2, {(pairs[0], pairs[1]): c, (pairs[1], pairs[0]): c})
    assert not DeformationTensor.from_tensor(sym).asymmetries


def test_antisymmetric_pair_tensor_rejected():
    pairs = index_pairs(2)
    c = SpherePoly.one(2)
    anti = TensorField(2, {(pairs[0], pairs[1]): c,
                           (pairs[1], pairs[0]): c * -1})
    e = DeformationTensor.from_tensor(anti)
    assert e.asymmetries
    assert validate_symmetry(e.tensor) == e.asymmetries
    assert all(lhs != rhs for _, _, lhs, rhs in e.asymmetries)
    with pytest.raises(ValueError):
        j_hessian(e)
    with pytest.raises(ValueError):
        j_hessian_via_T(e)


# -- fourier modes -------------------------------------------------------------------

def test_mode_examples():
    assert defo(SpherePoly.one(1)).coefficient_modes() == [0]
    e = defo(w(1, 1) * w(1, 2) ** 3)
    assert e.coefficient_modes() == [-4]
    e2 = defo(z(1, 1) * w(1, 2) + w(1, 1) ** 5)
    assert e2.coefficient_modes() == [-5, 0]


def _split_coefficient(e):
    """The circle-mode split of an S^3 deformation, coefficient by
    coefficient, without a tensor."""
    return {m: defo(e.coefficient.fourier_project(m))
            for m in e.coefficient_modes()}


def test_mode_split_at_n1_is_coefficient_split():
    """Each mode part built as a tensor through ``from_tensor`` is the
    part built from the coefficient alone."""
    pool = [p for _, p in monomial_pool(1, 4)]
    for i, p in enumerate(pool):
        for q in pool[i:]:
            e = defo(p + q)
            by_tensor = {m: DeformationTensor.from_tensor(TensorField(1, {
                             k: c.fourier_project(m)
                             for k, c in e.coefficients().items()}))
                         for m in e.coefficient_modes()}
            assert by_tensor == _split_coefficient(e)


@given(polys(n=1))
def test_modes_sum_back(p):
    e = defo(p)
    total = SpherePoly.zero(1)
    for part in _split_coefficient(e).values():
        total = total + part.coefficient
    assert total == p


# -- one stored form -----------------------------------------------------------------

def test_deformation_and_report_store_one_form():
    assert [f.name for f in dataclasses.fields(DeformationTensor)] == [
        "tensor", "asymmetries"]
    assert [f.name for f in dataclasses.fields(HessianReport)] == [
        "modes", "total"]


def test_s3_coefficient_and_tensor_build_the_same_deformation():
    """On S^3 the frame Gram is 1: a coefficient stored as it is equals
    the canonical tensor ``from_tensor`` makes of it."""
    for _, c in monomial_pool(1, 4):
        a = DeformationTensor.from_coefficient(c)
        b = DeformationTensor.from_tensor(TensorField(1, {((1, 2), (1, 2)): c}))
        assert a.tensor.coeffs == b.tensor.coeffs
        assert a.asymmetries == b.asymmetries == ()
        assert a.n == b.n == 1
        assert a.coefficient == b.coefficient == c
        assert a.coefficients() == b.coefficients() == {((1, 2), (1, 2)): c}


def test_coefficient_is_none_above_s3():
    pairs = index_pairs(2)
    e = DeformationTensor.from_tensor(
        TensorField(2, {(pairs[0], pairs[0]): z(2, 1)}))
    assert e.n == 2
    assert e.coefficient is None
    assert defo(SpherePoly.zero(1)).coefficient == SpherePoly.zero(1)


@pytest.mark.parametrize("n", [1, 2])
def test_j_hessian_via_T_builds_no_tensor_of_its_own(monkeypatch, n):
    """The only TensorField made is the one ``covariant_T`` returns."""
    pairs = index_pairs(n)
    c = z(n, 1) * w(n, 2) + SpherePoly.one(n)
    e = DeformationTensor.from_tensor(
        TensorField(n, {(pairs[0], pairs[-1]): c, (pairs[-1], pairs[0]): c}))
    total = j_hessian(e).total
    built = []
    original = TensorField.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(TensorField, "__post_init__", counting)
    derivatives = []
    covariant_T = frames.covariant_T

    def counting_T(obj):
        out = covariant_T(obj)
        derivatives.append(out)
        return out

    monkeypatch.setattr(variation, "covariant_T", counting_T)
    assert j_hessian_via_T(e) == total
    assert len(derivatives) == len(built) == 1
    assert built[0] is derivatives[0]


@given(polys(n=1))
def test_mode_orthogonality(p):
    e = defo(p)
    rep = j_hessian(e)
    assert rep.norm2() == norm2(p)


# -- embeddability --------------------------------------------------------------------

def test_embeddability_examples():
    assert not is_embeddable(defo(w(1, 1) * w(1, 2) ** 3))   # m = -4
    assert is_embeddable(defo(SpherePoly.one(1)))             # m = 0
    assert is_embeddable(defo(w(1, 1) ** 4 * z(1, 2)))        # m = -3
    assert not is_embeddable(defo(w(1, 1) ** 5))              # m = -5
    assert is_embeddable(defo(SpherePoly.zero(1)))


def test_embeddability_rejected_above_s3():
    pairs = index_pairs(2)
    t = TensorField(2, {(pairs[0], pairs[0]): SpherePoly.one(2)})
    for classify in (is_embeddable, obstructing_modes):
        with pytest.raises(ValueError):
            classify(DeformationTensor.from_tensor(t))


def test_obstructing_modes_example():
    e = defo(w(1, 1) ** 5 + w(1, 1) * w(1, 2) ** 3 + SpherePoly.one(1))
    assert obstructing_modes(e) == [-5, -4]
    assert not is_embeddable(e)


def test_embeddable_exactly_without_obstructing_modes():
    for _, p in monomial_pool(1, 6):
        if not p.is_zero():
            e = defo(p)
            assert is_embeddable(e) == (not obstructing_modes(e))


# -- structure Hessian ------------------------------------------------------------------

def test_hessian_frozen_values():
    c = ExactScalar(Fraction(2, 3), Fraction(-1, 5))
    rep = j_hessian(defo(SpherePoly.constant(1, c)))
    assert rep.total == ExactScalar(c.abs2() * 4)

    assert j_hessian(defo(w(1, 1) * w(1, 2) ** 3)).total.is_zero()

    rep5 = j_hessian(defo(w(1, 1) ** 5))
    assert rep5.total == ExactScalar(Fraction(-1, 6))
    assert rep5.modes == ((-5, ExactScalar(Fraction(1, 6)),
                           ExactScalar(Fraction(-1, 6))),)
    assert not is_embeddable(defo(w(1, 1) ** 5))


def test_hessian_report_invariants():
    p = SpherePoly.one(1) + w(1, 1) ** 5 + z(1, 1) * w(1, 2)
    e = defo(p)
    rep = j_hessian(e)
    total = ExactScalar.zero()
    for _, _, wt in rep.modes:
        total = total + wt
    assert rep.total == total * e.n
    assert rep.norm2() == norm2(p)


@given(polys(n=1))
def test_two_route_equality(p):
    e = defo(p)
    assert j_hessian(e).total == j_hessian_via_T(e)


def lowered_form_scan(t: TensorField):
    """Reference scan: B(Z_a, Z_b) against B(Z_b, Z_a) through lowered_form."""
    pairs = index_pairs(t.n)
    fields = [z_field(t.n, *p) for p in pairs]
    bad = []
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            lhs = t.lowered_form(fields[a], fields[b])
            rhs = t.lowered_form(fields[b], fields[a])
            if lhs != rhs:
                bad.append((pairs[a], pairs[b], lhs, rhs))
    return tuple(bad)


@pytest.mark.parametrize("n, examples", [(2, 20), (3, 4)])
def test_scan_matches_lowered_form_reference(n, examples):
    @settings(max_examples=examples, deadline=None)
    @given(st.booleans().flatmap(lambda sym: tensors(n, symmetric=sym)))
    def check(t):
        canonical = tight_expand(t)
        assert validate_symmetry(canonical) == lowered_form_scan(canonical)

    check()


def test_scan_makes_no_lowered_form_call(monkeypatch):
    calls = []
    original = TensorField.lowered_form

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(TensorField, "lowered_form", counting)
    pairs = index_pairs(3)
    t = TensorField(3, {(pairs[0], pairs[5]): z(3, 4),
                        (pairs[5], pairs[0]): w(3, 1)})
    assert validate_symmetry(tight_expand(t))
    assert calls == []


@given(polys(n=1))
def test_hessian_real(p):
    assert j_hessian(defo(p)).total.is_real()


def test_two_route_equality_s5():
    pairs = index_pairs(2)
    cs = [SpherePoly.one(2), z(2, 1) * w(2, 2), w(2, 3) ** 2,
          z(2, 1) * z(2, 2) * z(2, 3)]
    for c in cs:
        t = TensorField(2, {(pairs[0], pairs[0]): c,
                            (pairs[1], pairs[2]): c,
                            (pairs[2], pairs[1]): c})
        e = DeformationTensor.from_tensor(t)
        assert not e.asymmetries
        assert j_hessian(e).total == j_hessian_via_T(e)


def norms_by_projection(e: DeformationTensor) -> dict:
    """sum over coefficients c of norm2(c^(m)), for each mode m present."""
    norms = {}
    for c in e.coefficients().values():
        for m in c.modes():
            norms[m] = norms.get(m, ExactScalar.zero()) \
                + norm2(c.fourier_project(m))
    return norms


def deformations(n):
    """Deformations with coefficients of up to four terms of degree <= 3,
    so a coefficient often spans several modes; symmetric for n >= 2."""
    coefficient = low_degree_polys(n, max_degree=3, max_terms=4)
    if n == 1:
        return coefficient.map(defo)
    pairs = index_pairs(n)

    def build(entries):
        cs = {}
        for a, b, c in entries:
            cs[(a, b)] = cs[(b, a)] = c
        return DeformationTensor.from_tensor(TensorField(n, cs))
    entry = st.tuples(st.sampled_from(pairs), st.sampled_from(pairs),
                      coefficient)
    return st.lists(entry, min_size=1, max_size=2).map(build)


@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    polys(n=n, max_terms=3), max_size=3)))
def test_mode_norms_of_several_polynomials_add_per_mode(ps):
    """``mode_norms(*ps)``, one moment sum per mode over the ps' common
    denominator, is the per-mode sum of norm2 of their projections."""
    want = {}
    for p in ps:
        for m in p.modes():
            want[m] = (want.get(m, ExactScalar.zero())
                       + norm2(p.fourier_project(m)))
    assert mode_norms(*ps) == want


@pytest.mark.parametrize("n, examples", [(1, 60), (2, 25), (3, 8)])
def test_mode_norms_match_projection_route(n, examples):
    """``ring.mode_norms``, from one shift grouping per coefficient,
    equals norm2 of each of the coefficient's mode projections, and
    j_hessian's mode norms are those sums over the coefficients."""
    def agree(e):
        assert not e.asymmetries
        for c in e.coefficients().values():
            assert mode_norms(c) == {m: norm2(c.fourier_project(m))
                                     for m in c.modes()}
        want = {m: v for m, v in norms_by_projection(e).items()
                if not v.is_zero()}
        rep = j_hessian(e)
        assert {m: nrm for m, nrm, _ in rep.modes} == want
        assert rep.total == sum((v * (m + 4) for m, v in want.items()),
                                ExactScalar.zero()) * n

    @settings(max_examples=examples, deadline=None)
    @given(deformations(n))
    def check(e):
        agree(e)

    check()
    c = z(n, 1) * w(n, 2) + w(n, 1) ** 2 + z(n, 2) * ExactScalar(0, 3)
    e = defo(c) if n == 1 else DeformationTensor.from_tensor(
        TensorField(n, {((1, 2), (1, 2)): c}))
    assert [m for m, _, _ in j_hessian(e).modes] == [-2, 0, 1]
    agree(e)


@pytest.mark.parametrize("n, examples", [(2, 25), (3, 8)])
def test_two_route_equality_random_symmetric(n, examples):
    @settings(max_examples=examples, deadline=None)
    @given(tensors(n, symmetric=True))
    def check(t):
        e = DeformationTensor.from_tensor(t)
        assert not e.asymmetries
        assert j_hessian(e).total == j_hessian_via_T(e)

    check()


def test_sign_law_pure_modes():
    cases = [(w(1, 1) ** 5, -1), (w(1, 1) ** 2 * w(1, 2) ** 3, -1),
             (w(1, 1) * w(1, 2) ** 3, 0), (w(1, 1) ** 4, 0),
             (w(1, 1) ** 3, 1), (z(1, 1), 1), (SpherePoly.one(1), 1),
             (z(1, 1) ** 2 * w(1, 2), 1)]
    for p, sign in cases:
        total = j_hessian(defo(p)).total
        assert total.is_real()
        if sign < 0:
            assert total.re < 0
        elif sign == 0:
            assert total.is_zero()
        else:
            assert total.re > 0


def test_embeddable_nonzero_positive():
    p = z(1, 1) + w(1, 1) ** 4 * z(1, 2)   # modes 1 and -3, embeddable
    e = defo(p)
    assert is_embeddable(e)
    assert j_hessian(e).total.re > 0


def test_admissible_positivity_s5():
    pairs = index_pairs(2)
    n = 2
    t = TensorField(2, {(pairs[0], pairs[0]): z(2, 1) * z(2, 2),
                        (pairs[1], pairs[1]): SpherePoly.one(2)})
    e = DeformationTensor.from_tensor(t)
    assert e.admissible()
    rep = j_hessian(e)
    bound = rep.norm2() * (4 * n)
    assert rep.total.re >= bound.re > 0


# -- conformal direction -------------------------------------------------------------------

def test_conformal_first_variation_vanishes_on_examples():
    for p in (SpherePoly.one(1), (z(1, 1) + w(1, 1)) * Fraction(1, 2),
              z(1, 1) * w(1, 1)):
        assert yamabe_energy_series(p).c1.constant_term().is_zero()


@given(polys(n=1, max_terms=2))
def test_conformal_first_variation_vanishes(p):
    v = p + p.conjugate()
    assert yamabe_energy_series(v).c1.constant_term().is_zero()


def test_conformal_hessian_frozen_values():
    re_z1 = (z(1, 1) + w(1, 1)) * Fraction(1, 2)
    assert conformal_hessian(re_z1).is_zero()

    v = z(1, 1) * w(1, 1) - z(1, 2) * w(1, 2)
    assert conformal_hessian(v) == ExactScalar(4)

    re_z1sq = (z(1, 1) ** 2 + w(1, 1) ** 2) * Fraction(1, 2)
    assert conformal_hessian(re_z1sq) == ExactScalar(Fraction(2, 3))


def test_conformal_hessian_preconditions():
    with pytest.raises(ValueError):
        conformal_hessian(z(1, 1))            # not real
    with pytest.raises(ValueError):
        conformal_hessian(SpherePoly.one(1))  # nonzero average


@given(polys(n=1, max_terms=2))
def test_conformal_hessian_kernel(p):
    v = real_zero_avg(p)
    if v.is_zero():
        return
    h = conformal_hessian(v)
    assert h.is_real() and h.re >= 0
    linear = all(pp + qq == 1
                 for (pp, qq) in harmonic_decompose(v).components)
    assert h.is_zero() == linear


@given(polys(n=1, max_terms=2))
def test_yamabe_route_equality(p):
    v = real_zero_avg(p)
    series = yamabe_energy_series(v)
    assert series.c0.constant_term() == ExactScalar(round_webster_curvature(1))
    assert series.c1.constant_term().is_zero()
    assert series.c2.constant_term() * 2 == conformal_hessian(v)


def test_yamabe_route_equality_s5():
    v = real_zero_avg(z(2, 1) * w(2, 2) + z(2, 3) ** 2)
    series = yamabe_energy_series(v)
    assert series.c0.constant_term() == ExactScalar(round_webster_curvature(2))
    assert series.c1.constant_term().is_zero()
    assert series.c2.constant_term() * 2 == conformal_hessian(v)


def _closed_form_yamabe_series(v):
    """The normalized energy along 1 + t v, with the volume series
    int (1 + t v)^s = 1 + s int v t + s(s-1)/2 ||v||^2 t^2 written out."""
    n = v.n
    q_hom = 2 * n + 2
    u = TSeries2(SpherePoly.one(n), v)
    lap_u = TSeries2(SpherePoly.zero(n), sublaplacian(v))
    integrand = u * (lap_u * ExactScalar(-conformal_exponent(n))
                     + u * ExactScalar(round_webster_curvature(n)))
    n0, n1, n2 = integrand.integral()
    numerator = TSeries2(SpherePoly.constant(n, n0),
                         SpherePoly.constant(n, n1),
                         SpherePoly.constant(n, n2))
    s = Fraction(2 * q_hom, q_hom - 2)
    d1 = v.integral() * ExactScalar(s)
    d2 = norm2(v) * ExactScalar(s * (s - 1) / 2)
    denominator = TSeries2(SpherePoly.one(n), SpherePoly.constant(n, d1),
                           SpherePoly.constant(n, d2))
    return numerator * denominator.fractional_power(
        Fraction(-(q_hom - 2), q_hom))


def _conformal_directions(n, max_degree):
    """The real mean-zero directions of ``verify.conformal_checks``."""
    out = {}
    for _, p in monomial_pool(n, max_degree):
        for v in (p + p.conjugate(),
                  (p - p.conjugate()) * ExactScalar(0, 1)):
            v = v - SpherePoly.constant(n, v.integral())
            if not v.is_zero():
                out.setdefault(v, None)
    return list(out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_yamabe_series_matches_closed_form(n):
    for v in _conformal_directions(n, 3):
        assert yamabe_energy_series(v) == _closed_form_yamabe_series(v)


@pytest.mark.parametrize("n, examples", [(2, 40), (3, 25)])
def test_conformal_routes_random_directions(n, examples):
    @settings(max_examples=examples, deadline=None)
    @given(low_degree_polys(n, max_degree=3))
    def check(p):
        v = real_zero_avg(p)
        assert conformal_hessian(v) == \
            yamabe_energy_series(v).c2.constant_term() * 2

    check()


def test_yamabe_series_of_zero_direction():
    s = yamabe_energy_series(SpherePoly.zero(1))
    assert s.c1.is_zero() and s.c2.is_zero()
    assert s.c0.constant_term() == ExactScalar(1)


def test_scale_direction_flat_to_second_order():
    # v = 1 rescales the contact form; the normalized energy cannot move
    s = yamabe_energy_series(SpherePoly.one(1))
    assert s.c1.is_zero() and s.c2.is_zero()
