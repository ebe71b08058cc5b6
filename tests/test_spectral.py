"""Harmonic decomposition, sub-Laplacian and Dirichlet energies."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crsphere import spectral, variation
from crsphere.ring import ExactScalar, SpherePoly, norm2
from crsphere.spectral import (GRADIENT_CALIBRATION, dirichlet_energy,
                               eigenvalue, harmonic_decompose, sublaplacian,
                               sublaplacian_energy)

from conftest import ambient_box_oracle
from test_ring import polys, z, w


def real_polys(n=1):
    return polys(n).map(lambda p: p + p.conjugate())


# complex polynomials on S^3, S^5 and S^7; fewer terms above S^3 keep the
# reference decomposition cheap
polys_n123 = st.integers(1, 3).flatmap(
    lambda n: polys(n=n, max_terms=3 if n == 1 else 2))


def spectral_sublaplacian(f):
    """Reference route: -lambda_{p,q,n} times each harmonic component."""
    out = SpherePoly.zero(f.n)
    for (p, q), comp in harmonic_decompose(f).components.items():
        out = out - comp * ExactScalar(eigenvalue(p, q, f.n))
    return out


def spectral_energy(f):
    """Reference route: sum lambda_{p,q,n} ||f_pq||^2."""
    total = ExactScalar.zero()
    for (p, q), comp in harmonic_decompose(f).components.items():
        total = total + ExactScalar(eigenvalue(p, q, f.n)) * norm2(comp)
    return total


# -- decomposition ---------------------------------------------------------------

def test_decompose_coordinate():
    dec = harmonic_decompose(z(1, 1))
    assert dec.bidegrees() == [(1, 0)]
    assert dec.components[(1, 0)] == z(1, 1)


def test_decompose_z1w1():
    dec = harmonic_decompose(z(1, 1) * w(1, 1))
    assert dec.components[(0, 0)] == SpherePoly.constant(1, Fraction(1, 2))
    want = (z(1, 1) * w(1, 1) - z(1, 2) * w(1, 2)) * Fraction(1, 2)
    assert dec.components[(1, 1)] == want


def test_decompose_z1w2_already_harmonic():
    p = z(1, 1) * w(1, 2)
    dec = harmonic_decompose(p)
    assert dec.bidegrees() == [(1, 1)]
    assert dec.components[(1, 1)] == p


@given(polys(n=1))
def test_reconstruction(p):
    assert harmonic_decompose(p).reconstruct() == p


@given(polys(n=2, max_terms=2))
def test_reconstruction_n2(p):
    assert harmonic_decompose(p).reconstruct() == p


@given(polys(n=1))
def test_lifts_are_harmonic_and_bihomogeneous(p):
    dec = harmonic_decompose(p)
    for (pp, qq), amb in dec.lifts.items():
        assert ambient_box_oracle(amb) == {}
        for a, b in amb:
            assert (sum(a), sum(b)) == (pp, qq)


@given(polys(n=1))
def test_decomposition_idempotent(p):
    dec = harmonic_decompose(p)
    for key, comp in dec.components.items():
        again = harmonic_decompose(comp)
        assert set(again.components) <= {key}


@given(polys(n=1, max_terms=2))
def test_components_orthogonal(p):
    comps = list(harmonic_decompose(p).components.values())
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            assert (comps[i] * comps[j].conjugate()).integral().is_zero()


# -- sub-Laplacian ------------------------------------------------------------------

def test_eigenvalue_table():
    assert eigenvalue(1, 0, 1) == Fraction(1, 2)
    assert eigenvalue(1, 1, 1) == 2
    assert eigenvalue(2, 2, 3) == 4 + 6
    for n in (1, 2, 3):
        for p in range(5):
            for q in range(5):
                assert eigenvalue(p, q, n) == p * q + Fraction(n * (p + q), 2)


def test_sublaplacian_examples():
    assert sublaplacian(SpherePoly.one(1)).is_zero()
    assert sublaplacian(z(1, 1)) == z(1, 1) * Fraction(-1, 2)
    assert sublaplacian(z(1, 1) * w(1, 2)) == z(1, 1) * w(1, 2) * -2


@given(polys(n=1))
def test_sublaplacian_linear(p):
    q = z(1, 1) * w(1, 2)
    assert sublaplacian(p + q) == sublaplacian(p) + sublaplacian(q)


@given(polys_n123)
def test_eigen_property_on_components(p):
    for (pp, qq), comp in harmonic_decompose(p).components.items():
        lam = ExactScalar(eigenvalue(pp, qq, p.n))
        assert sublaplacian(comp) == comp * lam * -1


@given(polys_n123)
def test_term_by_term_matches_spectral_route(f):
    assert sublaplacian(f) == spectral_sublaplacian(f)
    energy = sublaplacian_energy(f)
    assert energy == spectral_energy(f)
    assert energy.is_real() and energy.re >= 0


@given(polys_n123)
def test_sublaplacian_output_is_normal_form(f):
    out = sublaplacian(f)
    assert SpherePoly(f.n, dict(out.terms)) == out


def test_no_decomposition_behind_the_operator(monkeypatch):
    calls = []
    original = spectral.harmonic_decompose

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(spectral, "harmonic_decompose", counting)
    f = (z(2, 1) * w(2, 2) + z(2, 3) * w(2, 1) * w(2, 1)) * ExactScalar(1, 2)
    v = f + f.conjugate()
    v = v - SpherePoly.constant(2, v.integral())
    sublaplacian(f)
    sublaplacian_energy(f)
    variation.conformal_hessian(v)
    variation.yamabe_energy_series(v)
    assert calls == []


@given(real_polys(), real_polys())
def test_self_adjoint(f, g):
    lhs = (f * sublaplacian(g)).integral()
    rhs = (g * sublaplacian(f)).integral()
    assert lhs == rhs


@given(real_polys())
def test_nonpositive_with_constant_kernel(f):
    val = (f * sublaplacian(f)).integral()
    assert val.is_real() and val.re <= 0
    if val.is_zero():
        assert f.is_constant()


# -- energies -----------------------------------------------------------------------

def test_dirichlet_examples():
    assert dirichlet_energy(SpherePoly.one(1)).is_zero()
    re_z1 = (z(1, 1) + w(1, 1)) * Fraction(1, 2)
    assert dirichlet_energy(re_z1) == ExactScalar(Fraction(1, 4))
    f = z(1, 1) * w(1, 1) - z(1, 2) * w(1, 2)
    # pure (1,1) component: 2 * lambda_{1,1} * ||f||^2 = 4 * 1/3
    assert dirichlet_energy(f) == ExactScalar(Fraction(4, 3))
    assert (f * f).integral() == ExactScalar(Fraction(1, 3))


def test_dirichlet_rejects_non_real():
    with pytest.raises(ValueError):
        dirichlet_energy(z(1, 1))


@given(real_polys())
def test_dirichlet_is_calibrated_quadratic_form(f):
    assert dirichlet_energy(f) == sublaplacian_energy(f) * GRADIENT_CALIBRATION
    assert sublaplacian_energy(f) == (f * sublaplacian(f)).integral() * -1


@given(real_polys())
def test_spectral_gap_identity(f):
    """Energy minus n (variance) is nonnegative, null exactly on constants
    plus ambient-linear functions."""
    n = 1
    mean = f.integral()
    gap = dirichlet_energy(f) - (norm2(f) - mean * mean) * n
    assert gap.is_real() and gap.re >= 0
    affine = all(p + q <= 1 for (p, q)
                 in harmonic_decompose(f).components)
    assert gap.is_zero() == affine


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gap_weights_vanish_only_on_linear(n):
    for p in range(5):
        for q in range(5):
            if p + q == 0 or p + q > 4:
                continue
            wgt = GRADIENT_CALIBRATION * eigenvalue(p, q, n) - n
            if (p, q) in ((1, 0), (0, 1)):
                assert wgt == 0
            else:
                assert wgt > 0
