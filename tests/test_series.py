"""Truncated series against the dense reference, and mixed-type operators.

``dense_series`` is coefficient-by-coefficient polynomial arithmetic on
dense three-coefficient series, every operand lifted to a series first;
every operation of ``TSeries2``'s one term map (sums, products, fused
sums, conjugation, negation and binomial powers) must give the same
series, for n = 1, 2 and 3, whichever side the series is on.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import dense_series as dense
from crsphere import ring
from crsphere.ring import ORDER, ExactScalar, SpherePoly, TSeries2


def scalars():
    fr = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.builds(ExactScalar, fr, fr)


def polys(n):
    """A polynomial of up to three terms, exponents 0..2 in every coordinate."""
    exps = st.tuples(*[st.integers(0, 2) for _ in range(n + 1)])

    def build(ts):
        acc = {}
        for a, b, c in ts:
            acc[(a, b)] = acc.get((a, b), ExactScalar.zero()) + c
        return SpherePoly(n, acc)
    return st.lists(st.tuples(exps, exps, scalars()), min_size=1,
                    max_size=3).map(build)


def series(n, c0=None, full=False):
    """Each coefficient independently zero or a random polynomial; with
    ``full`` every coefficient is nonzero, so a product of two such series
    has term pairs of orders 3 and 4 to drop."""
    coeff = polys(n) if full else st.one_of(st.just(SpherePoly.zero(n)),
                                            polys(n))
    return st.tuples(coeff if c0 is None else st.just(c0), coeff, coeff
                     ).map(lambda cs: TSeries2(*cs))


def operands(n):
    return st.one_of(series(n), series(n, full=True), polys(n), scalars(),
                     st.integers(-3, 3))


# (n, s, x): a series and an operand of any supported type
cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.one_of(series(n), series(n, full=True)), operands(n)))


@given(cases)
def test_product_matches_dense_reference(case):
    n, s, x = case
    want = dense.mul(n, s, x)
    assert s * x == want
    assert x * s == want


@given(cases)
def test_sum_and_difference_match_dense_reference(case):
    n, s, x = case
    assert s + x == dense.combine(n, s, x, 1)
    assert x + s == dense.combine(n, s, x, 1)
    assert s - x == dense.combine(n, s, x, -1)
    assert x - s == dense.combine(n, x, s, -1)


@given(cases)
def test_conjugate_and_negation_match_dense_reference(case):
    n, s, _ = case
    assert s.conjugate() == dense.conjugate(n, s)
    assert -s == dense.combine(n, TSeries2.zero(n), s, -1)
    assert s.conjugate().conjugate() == s == -(-s)


def factors(n):
    return st.one_of(series(n), series(n, full=True), polys(n))


# (n, items): one to three products (x, y, k) of series and polynomials
sums = st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(factors(n), factors(n),
              st.sampled_from([-3, -2, -1, 1, 2, 3])),
    min_size=1, max_size=3)))


@given(sums)
def test_sum_of_products_matches_dense_reference(case):
    """One fused sum equals the sum of the dense products, reduced one by
    one; the fused map is reduced once."""
    n, items = case
    want = TSeries2.zero(n)
    for x, y, k in items:
        want = dense.combine(n, want, dense.mul(n, x, y) * k, 1)
    assert ring.sum_of_products(n, items) == want


# (n, s, e): a series with constant term 1 and an exponent p/q
powers = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), series(n, c0=SpherePoly.one(n)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))))


@given(powers)
def test_fractional_power_matches_dense_powers(case):
    """r = s^(p/q) satisfies r^q = s^p, both sides by dense products."""
    n, s, e = case
    r = s.fractional_power(e)
    lhs = dense.power(n, r, e.denominator)
    if e.numerator >= 0:
        assert lhs == dense.power(n, s, e.numerator)
    else:
        assert dense.mul(n, lhs, dense.power(n, s, -e.numerator)) == \
            TSeries2.constant(n, 1)


@pytest.mark.parametrize("n, exponents", [
    (1, (Fraction(4), Fraction(-1, 2))),
    (2, (Fraction(3), Fraction(-2, 3))),
    (3, (Fraction(8, 3), Fraction(-3, 4)))])
def test_fractional_power_of_the_yamabe_exponents(n, exponents):
    """The volume exponent 2Q/(Q-2) and the normalizing exponent
    -(Q-2)/Q of ``yamabe_energy_series`` (Q = 2n + 2) against dense
    powers, on a series with every coefficient nonzero."""
    z, w = SpherePoly.z, SpherePoly.w
    s = TSeries2(SpherePoly.one(n), z(n, 1) * w(n, n + 1) + z(n, 2),
                 w(n, 2) * ExactScalar(Fraction(1, 3), -1))
    for e in exponents:
        r = s.fractional_power(e)
        lhs = dense.power(n, r, e.denominator)
        rhs = dense.power(n, s, abs(e.numerator))
        assert (lhs if e > 0 else dense.mul(n, lhs, rhs)) == \
            (rhs if e > 0 else TSeries2.constant(n, 1))


def _count_pairs(monkeypatch):
    """The term pairs each ``ring._add_products`` call forms, as the
    orders (i, j) of its two factors' terms."""
    calls = []
    original = ring._add_products
    shift = 2 * ring._half(1)

    def wrapper(dst, xs, ys, scale=1):
        calls.extend((k1 >> shift, k2 >> shift) for k1 in xs for k2 in ys)
        return original(dst, xs, ys, scale)
    monkeypatch.setattr(ring, "_add_products", wrapper)
    return calls


def test_product_multiplies_only_nonzero_pairs(monkeypatch):
    """A series product pairs only order buckets i + j <= ORDER, reduces
    once, and a constant factor scales: no pair, no reduction."""
    z1, w2 = SpherePoly.z(1, 1), SpherePoly.w(1, 2)
    zero = SpherePoly.zero(1)
    s = TSeries2(SpherePoly.one(1), zero, z1)
    t = TSeries2(zero, w2, zero)
    want = {"series": dense.mul(1, s, t), "poly": dense.mul(1, s, w2),
            "scalar": dense.mul(1, s, ExactScalar(0, 2))}
    pairs = _count_pairs(monkeypatch)
    reductions = []
    reduce_nums = ring.reduce_nums
    monkeypatch.setattr(ring, "reduce_nums", lambda n, raw: reductions.append(
        raw) or reduce_nums(n, raw))
    assert s * t == want["series"]
    assert pairs == [(0, 1)]        # 1 * w2; z1 * w2 is order t^3
    assert len(reductions) == 1
    pairs.clear(), reductions.clear()
    assert s * w2 == want["poly"]
    assert sorted(pairs) == [(0, 0), (2, 0)]    # c0 and c2; c1 is zero
    assert len(reductions) == 1
    pairs.clear(), reductions.clear()
    assert s * ExactScalar(0, 2) == want["scalar"]
    assert pairs == [] and reductions == []
    full = TSeries2(z1, w2, z1 * w2)
    want = dense.mul(1, full, full)
    pairs.clear()
    assert full * full == want
    assert sorted(pairs) == [(i, j) for i in range(ORDER + 1)
                             for j in range(ORDER + 1 - i)]


# -- mixed-type operators -------------------------------------------------------

MIXED = [
    SpherePoly.one(1),
    SpherePoly.z(1, 1) + SpherePoly.w(1, 2) * ExactScalar(Fraction(1, 3), 1),
    ExactScalar(2),
    ExactScalar(Fraction(-1, 2), 3),
    3,
    Fraction(2, 5),
]
SERIES = [TSeries2.zero(1),
          TSeries2(SpherePoly.one(1), SpherePoly.z(1, 1), SpherePoly.w(1, 2))]


@pytest.mark.parametrize("s", SERIES, ids=["zero", "series"])
@pytest.mark.parametrize("x", MIXED, ids=["one", "poly", "two", "gaussian",
                                         "int", "fraction"])
def test_mixed_operators_agree_in_both_orders(x, s):
    assert x * s == s * x == dense.mul(1, s, x)
    assert x + s == s + x == dense.combine(1, s, x, 1)
    assert x - s == -(s - x) == dense.combine(1, x, s, -1)


@pytest.mark.parametrize("x", [1, 0, Fraction(-2, 3),
                               ExactScalar(Fraction(1, 2), -1)],
                         ids=["int", "zero", "fraction", "gaussian"])
def test_series_equals_a_scalar_as_a_polynomial_does(x):
    """A series compares with an exact scalar as its constant series, on
    either side of == and !=, as a polynomial does; a bool is no scalar."""
    for const, other in ((TSeries2.constant(1, x), TSeries2.constant(1, x)
                          + TSeries2(SpherePoly.zero(1), SpherePoly.one(1))),
                         (SpherePoly.constant(1, x),
                          SpherePoly.constant(1, x) + SpherePoly.z(1, 1))):
        assert const == x and x == const
        assert not (const != x) and not (x != const)
        assert other != x and x != other
        assert not (other == x) and not (x == other)
        assert const != x + 1 and x + 1 != const
        assert const == SpherePoly.constant(1, x) == const
    assert TSeries2.constant(1, 1) != True and True != TSeries2.constant(1, 1)


def test_poly_and_scalar_times_zero_series():
    assert SpherePoly.one(1) * TSeries2.zero(1) == TSeries2.zero(1)
    assert ExactScalar(2) * TSeries2.zero(1) == TSeries2.zero(1)
    assert SpherePoly.one(1) + TSeries2.zero(1) == TSeries2.constant(1, 1)


@pytest.mark.parametrize("bad", [1.5, "2"], ids=["float", "str"])
@pytest.mark.parametrize("value", [ExactScalar(2), SpherePoly.one(1),
                                   TSeries2.constant(1, 1)],
                         ids=["scalar", "poly", "series"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_inexact_operands_raise(op, value, bad):
    with pytest.raises(TypeError):
        op(value, bad)
    with pytest.raises(TypeError):
        op(bad, value)


def test_bool_is_not_a_scalar():
    with pytest.raises(TypeError):
        ExactScalar(True)
    with pytest.raises(TypeError):
        ExactScalar(2) * True
    with pytest.raises(TypeError):
        TSeries2.constant(1, 1) * True


def test_series_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        TSeries2.zero(1) * TSeries2.zero(2)
    with pytest.raises(ValueError):
        TSeries2.zero(1) * SpherePoly.one(2)
    with pytest.raises(ValueError):
        TSeries2.zero(1) + SpherePoly.one(2)


# -- the type rule: a series operand makes a series -----------------------------

POLY = MIXED[1]
TERM_MAPS = {"poly": POLY, "poly0": SpherePoly.zero(1), "series": SERIES[1],
             "series0": SERIES[0]}
SCALARS = {"int": 3, "int0": 0, "fraction": Fraction(-2, 5),
           "gaussian": ExactScalar(Fraction(1, 2), -1)}
REFERENCE = {operator.add: lambda x, y: dense.combine(1, x, y, 1),
             operator.sub: lambda x, y: dense.combine(1, x, y, -1),
             operator.mul: lambda x, y: dense.mul(1, x, y)}


def result_type(*operands):
    return (TSeries2 if any(isinstance(x, TSeries2) for x in operands)
            else SpherePoly)


@pytest.mark.parametrize("op", REFERENCE, ids=["add", "sub", "mul"])
@pytest.mark.parametrize("y", [*TERM_MAPS.values(), *SCALARS.values()],
                         ids=[*TERM_MAPS, *SCALARS])
@pytest.mark.parametrize("x", TERM_MAPS.values(), ids=TERM_MAPS)
def test_a_series_operand_makes_a_series(op, x, y):
    """x op y and y op x: a series when either operand is one, else a
    polynomial, zero operands included; each the dense reference."""
    for a, b in ((x, y), (y, x)):
        got = op(a, b)
        assert type(got) is result_type(a, b)
        assert got == REFERENCE[op](a, b)


@pytest.mark.parametrize("k", [1, -2, 0])
@pytest.mark.parametrize("y", TERM_MAPS.values(), ids=TERM_MAPS)
@pytest.mark.parametrize("x", TERM_MAPS.values(), ids=TERM_MAPS)
def test_a_series_factor_makes_a_series_fused_sum(x, y, k):
    for a, b in ((x, y), (y, x)):
        got = ring.sum_of_products(1, [(a, b, k)])
        assert type(got) is result_type(a, b)
        assert got == dense.mul(1, a, b) * k


def test_a_series_factor_of_any_item_makes_a_series_fused_sum():
    items = [(POLY, POLY, 1), (SpherePoly.one(1), TSeries2.zero(1), 1)]
    got = ring.sum_of_products(1, items)
    assert type(got) is TSeries2 and got == POLY * POLY
    assert type(ring.sum_of_products(1, [])) is SpherePoly


@pytest.mark.parametrize("p", [SpherePoly.zero(1), SpherePoly.one(1), POLY],
                         ids=["zero", "one", "poly"])
def test_a_polynomial_equals_its_order_zero_series(p):
    s = TSeries2(p)
    assert p == s and s == p and not (p != s) and not (s != p)
    lifted = s + TSeries2(SpherePoly.zero(1), SpherePoly.one(1))
    assert p != lifted and lifted != p
    assert not (p == lifted) and not (lifted == p)


def test_fused_sum_skips_zero_coefficients():
    """A zero k contributes nothing: the result is the canonical zero,
    not a map of (0, 0) terms."""
    s = SERIES[1]
    out = ring.sum_of_products(1, [(s, s, 0)])
    assert out.nums == {} and out.den == 1
    assert out.is_zero() and out == 0 and out == TSeries2.zero(1)
    assert ring.sum_of_products(1, [(s, s, 0), (s, POLY, 2)]) == s * POLY * 2


@pytest.mark.parametrize("coeffs", [
    (POLY, SERIES[1]), (SERIES[1],), (POLY, None, SERIES[0]), (None,),
    (POLY, 1), (POLY, POLY, ExactScalar(2))],
    ids=["c1-series", "c0-series", "c2-series", "c0-none", "c1-int",
         "c2-scalar"])
def test_series_coefficients_must_be_polynomials(coeffs):
    """A series coefficient would put its orders past ORDER."""
    with pytest.raises(TypeError):
        TSeries2(*coeffs)
