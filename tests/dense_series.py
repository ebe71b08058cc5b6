"""Reference series arithmetic for the differential tests in ``test_series.py``.

This is the dense degree-2 product ``crsphere.ring.TSeries2`` used before
it skipped zero coefficients: every operand, a polynomial or a scalar
included, is first lifted to a three-coefficient series, and a product
forms all six coefficient products a0 b0, a0 b1, a1 b0, a0 b2, a1 b1 and
a2 b0, zero or not, each a polynomial product.  It is kept only as an
independent oracle of ``TSeries2``'s one term map.
"""

from __future__ import annotations

from crsphere.ring import ExactScalar, SpherePoly, TSeries2


def lift(n: int, x) -> tuple[SpherePoly, SpherePoly, SpherePoly]:
    """The coefficients (c0, c1, c2) of x as a series in dimension n."""
    if isinstance(x, TSeries2):
        return (x.c0, x.c1, x.c2)
    zero = SpherePoly.zero(n)
    if isinstance(x, SpherePoly):
        return (x, zero, zero)
    return (SpherePoly.constant(n, ExactScalar.coerce(x)), zero, zero)


def mul(n: int, x, y) -> TSeries2:
    a0, a1, a2 = lift(n, x)
    b0, b1, b2 = lift(n, y)
    return TSeries2(a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0)


def conjugate(n: int, x) -> TSeries2:
    """Each coefficient's conjugate."""
    return TSeries2(*(a.conjugate() for a in lift(n, x)))


def combine(n: int, x, y, sign: int) -> TSeries2:
    """x + sign * y, coefficient by coefficient."""
    return TSeries2(*(a + b * sign for a, b in zip(lift(n, x), lift(n, y))))


def power(n: int, x, k: int) -> TSeries2:
    """x^k for k >= 0 by k dense products."""
    out = TSeries2.constant(n, 1)
    for _ in range(k):
        out = mul(n, out, x)
    return out
