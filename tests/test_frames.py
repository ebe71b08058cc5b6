"""Frame fields, dual forms, pairings and covariant differentiation."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from crsphere import frames
from crsphere.ring import ExactScalar, SpherePoly
from crsphere.frames import (FrameVector, TensorField, bracket, contact_form,
                             covariant_T, covariant_Z, field_apply, form_eval,
                             index_pairs, levi_pairing, reeb, sharp_inverse,
                             sharp_pairing, theta_form, thetabar_form,
                             tight_expand, z_field, zbar_field)

from test_ring import polys, scalars, z, w

I = ExactScalar(0, 1)


def delta(a, b):
    return 1 if a == b else 0


def closed_nabla_z_zbar(n, j, k, l, m) -> FrameVector:
    """Independent closed formula for nabla_{Z_jk} Zbar_lm."""
    zero = SpherePoly.zero(n)
    wcoef = [zero for _ in range(n + 1)]
    # (d_{kl} zbar_j - d_{jl} zbar_k)(dbar_m - z_m sigma)
    #   + (d_{jm} zbar_k - d_{km} zbar_j)(dbar_l - z_l sigma)
    c1 = w(n, j) * delta(k, l) - w(n, k) * delta(j, l)
    c2 = w(n, k) * delta(j, m) - w(n, j) * delta(k, m)
    for a in range(n + 1):
        t = zero
        if a == m - 1:
            t = t + c1
        t = t - c1 * z(n, m) * w(n, a + 1)
        if a == l - 1:
            t = t + c2
        t = t - c2 * z(n, l) * w(n, a + 1)
        wcoef[a] = t
    return FrameVector.from_ambient(n, [zero] * (n + 1), wcoef)


# -- field application -----------------------------------------------------------

def test_field_apply_examples():
    assert field_apply(z_field(1, 1, 2), z(1, 2)) == w(1, 1)
    assert field_apply(reeb(1), z(1, 1)) == z(1, 1) * ExactScalar(0, Fraction(1, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tangency(n):
    # every frame field annihilates the defining relation, term by term:
    # apply the raw ambient derivation to sum z zbar and reduce
    relation = SpherePoly.zero(n)
    for j in range(1, n + 2):
        relation = relation + z(n, j) * w(n, j)
    fields = [reeb(n)] + [z_field(n, *p) for p in index_pairs(n)] \
        + [zbar_field(n, *p) for p in index_pairs(n)]
    for x in fields:
        assert field_apply(x, relation).is_zero()


@given(polys(n=1), polys(n=1))
def test_derivation_rule(f, g):
    x = z_field(1, 1, 2)
    assert field_apply(x, f * g) == \
        field_apply(x, f) * g + f * field_apply(x, g)


@given(st.integers(1, 3).flatmap(lambda n: polys(n=n)), st.integers(0, 3),
       st.integers(0, 1))
def test_partial_output_is_normal_form(p, a, side):
    out = frames._partial(p, side, a % (p.n + 1))
    assert SpherePoly(p.n, dict(out.terms)) == out


def test_weight_action_of_T():
    t = reeb(1)
    for m, p in ((1, z(1, 1)), (-1, w(1, 2)), (3, z(1, 1) ** 2 * z(1, 2)),
                 (0, z(1, 1) * w(1, 2))):
        assert field_apply(t, p) == p * ExactScalar(0, Fraction(m, 2))


# -- forms -------------------------------------------------------------------------

def test_form_eval_examples():
    assert form_eval(theta_form(1, 1, 2), z_field(1, 1, 2)) == SpherePoly.one(1)
    assert form_eval(theta_form(2, 1, 2), z_field(2, 1, 3)) == z(2, 2) * w(2, 3)
    assert form_eval(theta_form(1, 1, 2), reeb(1)).is_zero()
    assert form_eval(contact_form(1), reeb(1)) == SpherePoly.one(1)
    assert form_eval(contact_form(1), z_field(1, 1, 2)).is_zero()


# -- pairings ----------------------------------------------------------------------

def test_levi_examples():
    assert levi_pairing(z_field(1, 1, 2), z_field(1, 1, 2)) == SpherePoly.one(1)
    got = levi_pairing(z_field(2, 1, 2), z_field(2, 1, 3))
    assert got == w(2, 2) * z(2, 3)


def test_levi_rejects_transverse_and_conjugate():
    with pytest.raises(ValueError):
        levi_pairing(z_field(1, 1, 2), reeb(1))
    with pytest.raises(ValueError):
        levi_pairing(zbar_field(1, 1, 2), z_field(1, 1, 2))


@given(polys(n=1, max_terms=2))
def test_levi_positive(c):
    v = z_field(1, 1, 2) * c
    val = levi_pairing(v, v)
    assert val == val.conjugate()
    assert val.integral().re >= 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sharp_consistency_all_pairs(n):
    for lm in index_pairs(n):
        for jk in index_pairs(n):
            lhs = sharp_pairing(z_field(n, *lm), zbar_field(n, *jk))
            rhs = form_eval(theta_form(n, *jk), z_field(n, *lm))
            assert lhs == rhs


def test_sharp_inverse():
    assert sharp_inverse(zbar_field(1, 1, 2)) == theta_form(1, 1, 2)
    with pytest.raises(ValueError):
        sharp_inverse(z_field(1, 1, 2))
    with pytest.raises(ValueError):
        sharp_inverse(reeb(1))


# -- tight frame --------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_vector_reconstruction(n):
    v = z_field(n, 1, 2) * w(n, n + 1)
    if n > 1:
        v = v + z_field(n, 2, 3) * (z(n, 1) * w(n, 2))
    coeffs = tight_expand(v)
    back = FrameVector(n, {})
    for jk, c in coeffs.items():
        back = back + z_field(n, *jk) * c
    assert back == v


@pytest.mark.parametrize("n", [1, 2])
def test_parseval(n):
    v = z_field(n, 1, 2) * w(n, n + 1)
    if n > 1:
        v = v + z_field(n, 2, 3) * w(n, 1)
    total = SpherePoly.zero(n)
    for jk in index_pairs(n):
        c = form_eval(theta_form(n, *jk), v)
        total = total + c * c.conjugate()
    assert total == levi_pairing(v, v)


def test_parseval_example_s5():
    v = z_field(2, 1, 2) * w(2, 3) + z_field(2, 2, 3) * w(2, 1)
    total = SpherePoly.zero(2)
    for jk in index_pairs(2):
        c = form_eval(theta_form(2, *jk), v)
        total = total + c * c.conjugate()
    assert total == levi_pairing(v, v)


def test_unit_expansion():
    coeffs = tight_expand(z_field(1, 1, 2))
    assert coeffs[(1, 2)] == SpherePoly.one(1)


def test_zero_tensor_expansion():
    t = TensorField(1, {})
    assert tight_expand(t).coeffs == {}


@pytest.mark.parametrize("n", [1, 2])
def test_tensor_canonicalization_idempotent(n):
    pairs = index_pairs(n)
    t = TensorField(n, {(pairs[0], pairs[-1]): z(n, 1),
                        (pairs[-1], pairs[0]): w(n, 2)})
    once = tight_expand(t)
    twice = tight_expand(once)
    assert once.coeffs == twice.coeffs


# -- the frame Gram and canonical coefficients ---------------------------------------

def low_degree_polys(n, max_degree=2, max_terms=2):
    """Sums of at most ``max_terms`` monomials of total degree <= max_degree."""
    exps = [e for e in product(range(max_degree + 1), repeat=n + 1)
            if sum(e) <= max_degree]
    monomials = [(a, b) for a in exps for b in exps
                 if sum(a) + sum(b) <= max_degree]
    term = st.tuples(st.sampled_from(monomials), scalars())

    def build(ts):
        acc = SpherePoly.zero(n)
        for (a, b), c in ts:
            acc = acc + SpherePoly.monomial(n, a, b, c)
        return acc
    return st.lists(term, min_size=1, max_size=max_terms).map(build)


def tensors(n, symmetric=False):
    """One or two random entries c_ab; ``symmetric`` also sets c_ba = c_ab."""
    pairs = index_pairs(n)
    entry = st.tuples(st.sampled_from(pairs), st.sampled_from(pairs),
                      low_degree_polys(n))

    def build(entries):
        cs = {}
        for a, b, c in entries:
            cs[(a, b)] = c
            if symmetric:
                cs[(b, a)] = c
        return TensorField(n, cs)
    return st.lists(entry, min_size=1, max_size=2).map(build)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_is_hermitian_idempotent_and_conjugate_to_left_gram(n):
    h = frames._gram_right(n)
    pairs = index_pairs(n)
    for pq in pairs:
        for jk in pairs:
            left = form_eval(thetabar_form(n, *pq), zbar_field(n, *jk))
            assert left == h[(pq, jk)].conjugate()
            assert h[(pq, jk)] == h[(jk, pq)].conjugate()
            square = SpherePoly.zero(n)
            for rs in pairs:
                square = square + h[(pq, rs)] * h[(rs, jk)]
            assert square == h[(pq, jk)]


def test_gram_built_once_per_n(monkeypatch):
    calls = []
    original = frames.form_eval

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(frames, "form_eval", counting)
    frames._gram_right.cache_clear()
    pairs = index_pairs(2)
    t = TensorField(2, {(pairs[0], pairs[1]): z(2, 3)})
    first = tight_expand(t)
    assert len(calls) == len(pairs) ** 2
    calls.clear()
    assert tight_expand(t) == first
    assert calls == []


@pytest.mark.parametrize("n, examples", [(2, 40), (3, 20)])
def test_lowered_form_reads_canonical_coefficients(n, examples):
    pairs = index_pairs(n)

    @settings(max_examples=examples, deadline=None)
    @given(tensors(n), st.sampled_from(pairs), st.sampled_from(pairs))
    def check(t, a, b):
        canonical = tight_expand(t)
        want = canonical.coeffs.get((a, b), SpherePoly.zero(n))
        x, y = z_field(n, *a), z_field(n, *b)
        assert canonical.lowered_form(x, y) == want
        assert t.lowered_form(x, y) == want

    check()


# -- covariant differentiation --------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_bracket_with_T(n):
    t = reeb(n)
    for jk in index_pairs(n):
        zf = z_field(n, *jk)
        assert bracket(t, zf) == zf * ExactScalar(0, -1)
        zbf = zbar_field(n, *jk)
        assert bracket(t, zbf) == zbf * ExactScalar(0, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_covariant_T_weights(n):
    for jk in index_pairs(n):
        zf = z_field(n, *jk)
        assert covariant_T(zf) == zf * ExactScalar(0, -1)
        zbf = zbar_field(n, *jk)
        assert covariant_T(zbf) == zbf * ExactScalar(0, 1)
    assert covariant_T(reeb(n)).is_zero()


@given(polys(n=1, max_terms=2))
def test_covariant_T_leibniz(f):
    x = z_field(1, 1, 2)
    lhs = covariant_T(x * f)
    rhs = x * field_apply(reeb(1), f) + covariant_T(x) * f
    assert lhs == rhs


def test_covariant_T_tensor_weight_shift():
    # constant coefficient: weight 2i; mode -4 coefficient: zero
    t0 = TensorField(1, {((1, 2), (1, 2)): SpherePoly.one(1)})
    got = covariant_T(t0)
    assert got.coeffs[((1, 2), (1, 2))] == SpherePoly.constant(1, ExactScalar(0, 2))
    em4 = TensorField(1, {((1, 2), (1, 2)): w(1, 1) * w(1, 2) ** 3})
    assert covariant_T(em4).is_zero()


def test_covariant_T_mode_eigenvalue():
    # coefficient of weight m returns i(m/2 + 2) times itself
    for m, c in ((2, z(1, 1) * z(1, 2)), (-5, w(1, 1) ** 5)):
        t = TensorField(1, {((1, 2), (1, 2)): c})
        got = covariant_T(t).coeffs.get(((1, 2), (1, 2)), SpherePoly.zero(1))
        assert got == c * ExactScalar(0, Fraction(m, 2) + 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_covariant_Z_annihilates_frame(n):
    pairs = index_pairs(n)
    for jk in pairs[:3]:
        for pq in pairs[:3]:
            assert covariant_Z(z_field(n, *jk), z_field(n, *pq)).is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_covariant_Z_mixed_matches_closed_formula(n):
    for jk in index_pairs(n):
        for lm in index_pairs(n):
            got = covariant_Z(z_field(n, *jk), zbar_field(n, *lm))
            want = closed_nabla_z_zbar(n, *jk, *lm)
            assert got == want


@pytest.mark.parametrize("n", [1, 2])
def test_tanaka_compatibility(n):
    """X dtheta(Y, Zbar) = dtheta(Y, [X, Zbar]_{Hbar}) for frame triples,
    certifying nabla_{Z_jk} Z_pq = 0 through the defining property."""
    pairs = index_pairs(n)
    for jk in pairs:
        for pq in pairs:
            for lm in pairs:
                x = z_field(n, *jk)
                y = z_field(n, *pq)
                zb = zbar_field(n, *lm)
                lhs = field_apply(x, sharp_pairing(y, zb))
                rhs = sharp_pairing(y, covariant_Z(x, zb))
                assert lhs == rhs


def test_covariant_Z_example_s3():
    # nabla_{Z_12} Zbar_12 = -zbar2(dbar2 - z2 sigma) - zbar1(dbar1 - z1 sigma)
    got = covariant_Z(z_field(1, 1, 2), zbar_field(1, 1, 2))
    assert got == closed_nabla_z_zbar(1, 1, 2, 1, 2)
    v, wc = got.ambient()
    assert all(c.is_zero() for c in v)


def test_from_ambient_rejects_non_tangential():
    n = 1
    with pytest.raises(ValueError):
        FrameVector.from_ambient(
            n, [SpherePoly.one(n), SpherePoly.zero(n)],
            [SpherePoly.zero(n), SpherePoly.zero(n)])
