"""Pool enumeration of the verification suites."""

import pytest

from crsphere.ring import SpherePoly
from crsphere.verify import monomial_pool


def _nested_exponents(width, total):
    """Exponent tuples of length width summing to exactly total."""
    if width == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _nested_exponents(width - 1, total - head):
            yield (head,) + rest


def _nested_pool(n, degree):
    """The pool as enumerated degree by degree, each degree sorted by (a, b)."""
    out = []
    for d in range(degree + 1):
        keys = [(a, b) for da in range(d + 1)
                for a in _nested_exponents(n + 1, da)
                for b in _nested_exponents(n + 1, d - da)]
        for a, b in sorted(keys):
            p = SpherePoly.monomial(n, a, b)
            out.append((p.to_grammar(), p))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_pool_matches_nested_enumeration(n):
    for degree in range(9):
        pool = monomial_pool(n, degree)
        want = _nested_pool(n, degree)
        assert [name for name, _ in pool] == [name for name, _ in want]
        assert [p for _, p in pool] == [p for _, p in want]
