"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check:
integration is recomputed from iterated Beta integrals on the simplex via
binomial sums, and ambient harmonicity is checked with a separately
written derivative rule.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import settings

from crsphere import frames, spectral
from crsphere.ring import ExactScalar, SpherePoly

settings.register_profile("det", derandomize=True, max_examples=60)
settings.load_profile("det")


def beta_int(p: int, q: int) -> Fraction:
    """Exact integral of x^p (1-x)^q on [0, 1] as a binomial sum."""
    total = Fraction(0)
    for k in range(q + 1):
        total += Fraction((-1) ** k * math.comb(q, k), p + k + 1)
    return total


def simplex_moment(n: int, exps: tuple[int, ...]) -> Fraction:
    """E[prod x_j^{a_j}] for (x_1..x_{n+1}) uniform on the n-simplex.

    Recursive marginal route: x_1 has density n (1-x)^{n-1} and the rest
    is (1 - x_1) times a uniform (n-1)-simplex point.  The squared moduli
    |z_j|^2 of a uniform point of S^{2n+1} are distributed this way, so
    this is an integration oracle independent of the factorial rule.
    """
    if n == 0:
        return Fraction(1)
    rest = sum(exps[1:])
    return (n * beta_int(exps[0], n - 1 + rest)
            * simplex_moment(n - 1, exps[1:]))


def oracle_monomial_integral(n: int, a: tuple[int, ...],
                             b: tuple[int, ...]) -> Fraction:
    if a != b:
        return Fraction(0)
    return simplex_moment(n, a)


def coordinate_phase(p: SpherePoly, j: int, u: ExactScalar) -> SpherePoly:
    """Substitute z_j -> u z_j, zbar_j -> conj(u) zbar_j (1-based j)."""
    if u.abs2() != 1:
        raise ValueError("unit phase required")
    out = {}
    ub = u.conjugate()
    for (a, b), c in p.terms.items():
        f = ExactScalar.one()
        for _ in range(a[j - 1]):
            f = f * u
        for _ in range(b[j - 1]):
            f = f * ub
        out[(a, b)] = c * f
    return SpherePoly(p.n, out)


def ambient_box_oracle(terms: dict) -> dict:
    """Independent sum_a d/dz_a d/dzbar_a on ambient term dicts."""
    out: dict = {}
    for (a, b), c in terms.items():
        for j in range(len(a)):
            if a[j] > 0 and b[j] > 0:
                key = (a[:j] + (a[j] - 1,) + a[j + 1:],
                       b[:j] + (b[j] - 1,) + b[j + 1:])
                prev = out.get(key, ExactScalar.zero())
                s = prev + c * (a[j] * b[j])
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
    return out


@pytest.fixture(scope="session")
def unit_phase() -> ExactScalar:
    return ExactScalar(Fraction(3, 5), Fraction(4, 5))


@pytest.fixture
def emptied():
    """``emptied(*tables)`` empties each ``ring.LazyTable`` given for the
    test; their entries and fill functions are put back after it."""
    saved = []

    def empty(*tables):
        for table in tables:
            saved.append((table, dict(table), table.fill))
            table.clear()

    yield empty
    for table, entries, fill in reversed(saved):
        table.clear()
        table.update(entries)
        table.fill = fill


@pytest.fixture
def frame_tables(emptied):
    """``frames._tables``, with the n = 1, 2, 3 image tables emptied."""
    emptied(*(t for n in (1, 2, 3) for t in frames._tables(n)))
    return frames._tables


@pytest.fixture
def projection_tables(emptied):
    """``frames._projections``, with the n = 1, 2, 3 tables emptied."""
    emptied(*(t for n in (1, 2, 3) for t in frames._projections(n).values()))
    return frames._projections


@pytest.fixture
def spectral_tables(emptied):
    """``spectral._tables``, with the n = 1, 2, 3 decomposition and
    sub-Laplacian tables emptied, the decomposition tables at depth 0."""
    emptied(*(t for n in (1, 2, 3) for t in spectral._tables(n)))
    for n in (1, 2, 3):
        spectral._build(spectral._tables(n)[0], n, 0)
    return spectral._tables
