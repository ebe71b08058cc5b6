"""Truncated series against the dense reference, and mixed-type operators.

``dense_series`` is the product ``TSeries2`` used before it skipped zero
coefficients and stopped lifting polynomial and scalar operands; every
operation here must give the same series, for n = 1 and 2, whichever
side the series is on.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import dense_series as dense
from crsphere.ring import ExactScalar, SpherePoly, TSeries2


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


def series(n, c0=None):
    """Each coefficient independently zero or a random polynomial."""
    coeff = st.one_of(st.just(SpherePoly.zero(n)), polys(n))
    return st.tuples(coeff if c0 is None else st.just(c0), coeff, coeff
                     ).map(lambda cs: TSeries2(*cs))


def operands(n):
    return st.one_of(series(n), polys(n), scalars(), st.integers(-3, 3))


# (n, s, x): a series and an operand of any supported type
cases = st.integers(1, 2).flatmap(lambda n: st.tuples(
    st.just(n), series(n), operands(n)))


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


# (n, s, e): a series with constant term 1 and an exponent p/q
powers = st.integers(1, 2).flatmap(lambda n: st.tuples(
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


def _count_products(monkeypatch):
    calls = []
    for name in ("__mul__", "__rmul__"):
        original = SpherePoly.__dict__[name]

        def wrapper(self, other, original=original):
            calls.append(other)
            return original(self, other)
        monkeypatch.setattr(SpherePoly, name, wrapper)
    return calls


def test_product_multiplies_only_nonzero_pairs(monkeypatch):
    z1, w2 = SpherePoly.z(1, 1), SpherePoly.w(1, 2)
    zero = SpherePoly.zero(1)
    s = TSeries2(SpherePoly.one(1), zero, z1)
    t = TSeries2(zero, w2, zero)
    want = {"series": dense.mul(1, s, t), "poly": dense.mul(1, s, w2),
            "scalar": dense.mul(1, s, ExactScalar(0, 2))}
    calls = _count_products(monkeypatch)
    assert s * t == want["series"]
    assert len(calls) == 1          # only c0 * d1; c2 * d1 is order t^3
    calls.clear()
    assert s * w2 == want["poly"]
    assert len(calls) == 2          # c0 and c2; c1 is zero
    calls.clear()
    assert s * ExactScalar(0, 2) == want["scalar"]
    assert all(not isinstance(x, (SpherePoly, TSeries2)) for x in calls)


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
