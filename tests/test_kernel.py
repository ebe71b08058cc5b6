"""The integer kernel against the Fraction-pair reference, exactly.

``fraction_kernel`` is the term-by-term ``ExactScalar`` arithmetic the
integer kernel replaced; every operation here must give the same terms,
the same scalars and the same text, for n = 1..3.
"""

import itertools
import random
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_kernel as ref
from crsphere import ring
from crsphere.ring import (MAX_TERM_DEGREE, ExactScalar, SpherePoly, inner,
                           norm2, parse_poly)
from crsphere.spectral import harmonic_decompose, sublaplacian


def scalars():
    # small denominators, so sums and products cancel often
    fr = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.builds(ExactScalar, fr, fr)


def exponents(n, first=2, rest=2):
    """Exponent tuples: 0..first for z_1 (or zbar_1), 0..rest elsewhere."""
    return st.tuples(st.integers(0, first),
                     *[st.integers(0, rest) for _ in range(n)])


def summed(ts):
    """The term dict {(a, b): sum of c} of the triples (a, b, c)."""
    acc = {}
    for a, b, c in ts:
        acc[(a, b)] = acc.get((a, b), ExactScalar.zero()) + c
    return acc


def raw_terms(n, max_terms, first=2, rest=2):
    """A term dict, not reduced: exponents 0..2 in every coordinate unless
    ``first`` and ``rest`` say otherwise."""
    exps = exponents(n, first, rest)
    return st.lists(st.tuples(exps, exps, scalars()), max_size=max_terms
                    ).map(summed)


# (n, s, t, c): two raw term dicts in dimension n and a scalar
cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), raw_terms(n, 3 if n == 1 else 2),
    raw_terms(n, 3 if n == 1 else 2), scalars()))


def reduced(n, raw):
    return ref.reduced(n, raw.items())


@given(cases)
def test_normal_form_matches_reference(case):
    n, s, t, _ = case
    assert dict(SpherePoly(n, s).terms) == reduced(n, s)
    assert dict(SpherePoly(n, t).terms) == reduced(n, t)


@given(cases)
def test_ring_operations_match_reference(case):
    n, s, t, c = case
    p, q = SpherePoly(n, s), SpherePoly(n, t)
    rs, rt = reduced(n, s), reduced(n, t)
    assert dict((p * q).terms) == ref.mul(n, rs, rt)
    assert dict((p + q).terms) == ref.combine(rs, rt, 1)
    assert dict((p - q).terms) == ref.combine(rs, rt, -1)
    assert dict((p * c).terms) == ref.scale(rs, c)
    assert dict(p.conjugate().terms) == ref.conjugate(rs)


@given(cases)
def test_integral_and_norm_match_reference(case):
    n, s, t, _ = case
    p, q = SpherePoly(n, s), SpherePoly(n, t)
    rs, rt = reduced(n, s), reduced(n, t)
    assert p.integral() == ref.integral(n, rs)
    assert (p * q).integral() == ref.integral(n, ref.mul(n, rs, rt))
    assert norm2(p) == ref.norm2(n, rs)
    assert norm2(p * q) == ref.norm2(n, ref.mul(n, rs, rt))


@given(cases)
def test_spectral_matches_reference(case):
    n, s, _, _ = case
    p, rs = SpherePoly(n, s), reduced(n, s)
    assert dict(sublaplacian(p).terms) == ref.sublaplacian(n, rs)
    got = harmonic_decompose(p).components
    want = ref.harmonic_components(n, rs)
    assert list(got) == sorted(want)
    assert {k: dict(v.terms) for k, v in got.items()} == want


# Parts with min(P, Q) up to 6, which the exponents 0..2 of ``cases``
# rarely reach: single deep parts, one bidegree key fed by seven parts, a
# key whose layers cancel (the mean of z2^6 w2^6 is 1/7), and parts whose
# deep layers are all zero.
DEEP_CASES = [
    (1, "(1/1,0/1) z2^6 w2^6"),
    (1, "(1/1,0/1) z2^6 w2^6 (-1/7,0/1)"),
    (1, "(3/2,0/1) z2^6 w2^6 (-1/1,1/1) z2^5 w2^5 (1/3,0/1) z2^4 w2^4"
        " (0/1,2/1) z2^3 w2^3 (1/1,0/1) z2^2 w2^2 (-5/4,0/1) z2 w2 (2/1,0/1)"),
    (1, "(1/1,0/1) z1^6 w2^6 (2/1,-1/1) z2^6 w1^6 (1/1,0/1) z1^2 z2^4 w2^5"),
    (2, "(1/1,0/1) z2^4 z3^2 w2^2 w3^4 (-2/1,1/1) z3^5 w3^5"
        " (1/1,0/1) z1^6 w2^3 w3^3"),
    (2, "(2/5,0/1) z1 z2^3 z3^2 w2^4 w3^2 (1/1,-3/1) z2^4 w2^4"),
    (3, "(1/1,0/1) z2^3 z3^3 w2^2 w3^4"),
    (3, "(1/2,1/3) z2 z3^2 z4^3 w2^3 w3 w4^2 (-1/1,0/1) z2^2 z4^2 w3^2 w4^2"
        " (3/1,0/1) z2^2 z3^2 z4^2 w2^2 w3^2 w4^2"),
]


@pytest.mark.parametrize("n, text", DEEP_CASES)
def test_deep_layers_match_reference(n, text):
    p = parse_poly(text, n)
    assert max(min(sum(a), sum(b)) for a, b in p.terms) >= 4
    assert all(sum(a) + sum(b) <= MAX_TERM_DEGREE for a, b in p.terms)
    got = harmonic_decompose(p).components
    want = ref.harmonic_components(n, dict(p.terms))
    assert list(got) == sorted(want)
    assert {k: dict(v.terms) for k, v in got.items()} == want


@given(cases)
def test_grammar_matches_reference(case):
    n, s, t, _ = case
    p, q = SpherePoly(n, s), SpherePoly(n, t)
    rs, rt = reduced(n, s), reduced(n, t)
    assert p.to_grammar() == ref.to_grammar(rs)
    assert (p * q).to_grammar() == ref.to_grammar(ref.mul(n, rs, rt))


@given(cases)
def test_cancelled_denominators_are_canonical(case):
    n, s, t, _ = case
    p, q = SpherePoly(n, s), SpherePoly(n, t)
    for same in (p * Fraction(2, 3) * Fraction(3, 2),
                 p * ExactScalar(Fraction(3, 5), Fraction(4, 5))
                 * ExactScalar(Fraction(3, 5), Fraction(-4, 5)),
                 p + q - q):
        assert same == p and hash(same) == hash(p)
        assert (same.nums, same.den) == (p.nums, p.den)
    assert math.gcd(p.den, *(x for c in p.nums.values() for x in c)) == 1


# -- constant factors and the shared zero -------------------------------------

@given(cases)
def test_constant_factor_products_match_reference(case):
    """A constant factor, on either side, gives the reference product and
    the same numerators and denominator as the term-pair loop."""
    n, s, _, c = case
    p, rs = SpherePoly(n, s), reduced(n, s)
    k = SpherePoly.constant(n, c)
    rk = reduced(n, {((0,) * (n + 1), (0,) * (n + 1)): c})
    want = ref.mul(n, rs, rk)
    for got in (p * k, k * p):
        assert dict(got.terms) == want
        assert (got.nums, got.den) == ((p * c).nums, (p * c).den)
    assert dict((p * SpherePoly.zero(n)).terms) == {}


def test_constant_factor_products_reduce_nothing(monkeypatch):
    p = parse_poly("(1/2,1/3) z1 w1^2 z2 (3/1,0/1) w2^3", 1)
    k = SpherePoly.constant(1, ExactScalar(Fraction(2, 7), -3))
    calls = []
    reduce_nums = ring.reduce_nums

    def counting(*args):
        calls.append(args)
        return reduce_nums(*args)

    monkeypatch.setattr(ring, "reduce_nums", counting)
    for q in (p * k, k * p, p * SpherePoly.zero(1), SpherePoly.one(1) * p):
        assert q.n == 1
    assert calls == []
    p * p
    assert len(calls) == 1


@given(cases)
def test_zero_is_one_shared_unchanged_instance(case):
    n, s, _, c = case
    zero = SpherePoly.zero(n)
    assert SpherePoly.zero(n) is zero
    p = SpherePoly(n, s)
    for got in (zero + p, p + zero, p - zero, zero - p, zero * p, p * zero,
                zero * c, -zero, zero.conjugate(), zero ** 2):
        assert got.n == n
    assert p + zero == p and zero - p == -p and (zero * p).is_zero()
    assert zero.nums == {} and zero.den == 1
    assert SpherePoly.zero(n) is zero


# -- reduction in closed form -------------------------------------------------

def test_reduction_closed_form_n1():
    # z1^20 zbar1^20 = (1 - z2 zbar2)^20 on S^3
    want = {((0, j), (0, j)): ExactScalar((-1) ** j * math.comb(20, j))
            for j in range(21)}
    got = SpherePoly.monomial(1, (20, 0), (20, 0))
    assert dict(got.terms) == want


def test_reduction_closed_form_n3():
    # z1^8 zbar1^8 = (1 - z2 zbar2 - z3 zbar3 - z4 zbar4)^8 on S^7
    want = {}
    for m in itertools.product(range(9), repeat=3):
        s = sum(m)
        if s <= 8:
            c = math.factorial(8) // math.factorial(8 - s)
            for e in m:
                c //= math.factorial(e)
            want[((0,) + m, (0,) + m)] = ExactScalar((-1) ** s * c)
    assert len(want) == 165
    got = SpherePoly.monomial(3, (8, 0, 0, 0), (8, 0, 0, 0))
    assert dict(got.terms) == want


def test_reduction_matches_stack_reference():
    for n, k in ((1, 9), (2, 6), (3, 4)):
        a = (k, 1) + (0,) * (n - 1)
        b = (k + 1,) + (0,) * (n - 1) + (2,)
        raw = {(a, b): ExactScalar(Fraction(-5, 3), 2)}
        assert dict(SpherePoly(n, raw).terms) == reduced(n, raw)


# -- packed monomial keys -----------------------------------------------------

@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), raw_terms(n, 4, MAX_TERM_DEGREE, MAX_TERM_DEGREE))))
def test_terms_round_trip_through_the_constructor(case):
    """Every field of a key, up to MAX_TERM_DEGREE in each exponent,
    decodes to the exponents it was built from."""
    n, s = case
    p = SpherePoly(n, s)
    again = SpherePoly(n, p.terms)
    assert again == p
    assert (again.nums, again.den) == (p.nums, p.den)


def wide_terms(n, max_terms):
    """A raw term dict in which one side of each term has exponents up to
    6 off the first coordinate, so key fields and degrees run high, and
    the other side and z_1, zbar_1 stay at 2 or less, so the reference's
    reduction and harmonic peeling stay small."""
    term = st.tuples(exponents(n, 2, 6), exponents(n), scalars(),
                     st.booleans())
    return st.lists(term, max_size=max_terms).map(lambda ts: summed(
        (b, a, c) if swap else (a, b, c) for a, b, c, swap in ts))


wide_cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), wide_terms(n, 2), wide_terms(n, 2)))


@settings(deadline=None)
@given(wide_cases)
def test_wide_exponents_match_reference(case):
    n, s, t = case
    p, q = SpherePoly(n, s), SpherePoly(n, t)
    rs, rt = reduced(n, s), reduced(n, t)
    assert dict(p.terms) == rs
    prod = ref.mul(n, rs, rt)
    assert dict((p * q).terms) == prod
    assert (p * q).integral() == ref.integral(n, prod)
    assert inner(p, q) == ref.inner(n, rs, rt)
    assert dict(sublaplacian(p).terms) == ref.sublaplacian(n, rs)
    got = harmonic_decompose(p).components
    assert {k: dict(v.terms) for k, v in got.items()} == \
        ref.harmonic_components(n, rs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_key_overflow_raises(n):
    """An exponent or degree of 2^7 does not fit a key field: the
    constructor rejects it, and a product reaching it raises instead of
    carrying into the next field."""
    top = ring._CAP - 1
    e = (0,) * n
    big = SpherePoly.monomial(n, e + (top,), (0,) * (n + 1))
    assert dict(big.terms) == {(e + (top,), (0,) * (n + 1)): 1}
    with pytest.raises(ValueError, match="does not fit"):
        SpherePoly.monomial(n, e + (top + 1,), (0,) * (n + 1))
    with pytest.raises(ValueError, match="does not fit"):
        SpherePoly.monomial(n, (0,) * (n + 1), (top // 2 + 1,) + e[1:]
                            + (top // 2 + 1,))
    with pytest.raises(ValueError, match="negative"):
        SpherePoly.monomial(n, (-1,) + e, (0,) * (n + 1))
    z = SpherePoly.z(n, n + 1)
    for factor in (z, big, z ** 64):
        with pytest.raises(OverflowError):
            big * factor
    with pytest.raises(OverflowError):
        SpherePoly.w(n, 2) ** 64 * SpherePoly.w(n, 1) ** 64
    assert (z ** 63 * z ** 63) == z ** 126


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_key_field_is_guarded(n):
    """A product that reaches 2^7 in a key field raises OverflowError, for
    every exponent a_j and b_j and for both degree fields |a| and |b|
    with every exponent below 2^7; reaching 127 there gives the product."""
    assert ring._CAP == 128
    zero = (0,) * (n + 1)

    def mono(side, exps):       # z^exps (side 0) or zbar^exps (side 1)
        return SpherePoly.monomial(n, *((exps, zero), (zero, exps))[side])

    def unit(j, e):
        return tuple(e if i == j else 0 for i in range(n + 1))

    for side in (0, 1):
        cases = [(unit(j, 64), unit(j, e)) for j in range(n + 1)
                 for e in (63, 64)]
        cases += [(unit(0, 64), unit(j, e)) for j in range(1, n + 1)
                  for e in (63, 64)]
        for a, b in cases:
            x, y = mono(side, a), mono(side, b)
            total = tuple(map(sum, zip(a, b)))
            if sum(b) == 64:
                with pytest.raises(OverflowError, match="reached degree 128"):
                    x * y
            else:
                assert max(total) < 128 and sum(total) == 127
                assert x * y == mono(side, total)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moments_match_factorial_rule_up_to_the_field_bound(n):
    """``ring._moments`` reads n! prod(a_j!) from its per-n table; on halves
    whose fields reach 2 (_CAP - 1), as a product's diagonal can, it gives
    the reference's factorial rule, summed over items of mixed degree,
    cold and warm."""
    top = 2 * (ring._CAP - 1)
    rng = random.Random(f"moments/{n}")
    exps = [(0,) * (n + 1), (top,) + (0,) * n, (0,) * n + (top,),
            tuple(top // (n + 1) for _ in range(n + 1))]
    for _ in range(12):
        d = rng.choice((3, 40, top))
        cuts = sorted(rng.randint(0, d) for _ in range(n))
        exps.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [d])))
    assert all(sum(a) <= top for a in exps)
    assert any(sum(a) == top for a in exps)
    den = 6
    coeffs = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in exps]
    diag = [(int.from_bytes(bytes((sum(a), *a)), "little"), c)
            for a, c in zip(exps, coeffs)]
    want = sum((ref.integral(n, {(a, a): ExactScalar(Fraction(re, den),
                                                     Fraction(im, den))})
                for a, (re, im) in zip(exps, coeffs)), ExactScalar.zero())
    ring._moment_table(n).clear()
    assert ring._moments(n, diag, den) == want
    assert len(ring._moment_table(n)) == len(set(exps))
    assert ring._moments(n, diag, den) == want
    for (half, c), a in zip(diag, exps):
        assert ring._moments(n, [(half, c)], 1) == ref.integral(
            n, {(a, a): ExactScalar(*c)})
