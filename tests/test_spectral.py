"""Harmonic decomposition, sub-Laplacian and Dirichlet energies."""

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from crsphere import ring, spectral, variation
from crsphere.ring import ExactScalar, SpherePoly, norm2, parse_poly
from crsphere.spectral import (GRADIENT_CALIBRATION, dirichlet_energy,
                               eigenvalue, harmonic_decompose, sublaplacian,
                               sublaplacian_energy)
from crsphere.verify import monomial_pool

import fraction_kernel as ref
from conftest import ambient_box_oracle
from test_kernel import DEEP_CASES
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
    # the reference peel writes each bidegree part A of the normal form as
    # A = sum_k |z|^{2k} H_k, H_k harmonic of bidegree (P-k, Q-k); on the
    # sphere |z|^2 = 1, so the restricted layers sum to A, and each is the
    # (P-k, Q-k) component the box-power solve reads off A alone
    parts = {}
    for key, c in p.terms.items():
        parts.setdefault((sum(key[0]), sum(key[1])), {})[key] = c
    for (pp, qq), part in parts.items():
        solved = harmonic_decompose(SpherePoly(p.n, part)).components
        layers = ref.peel_layers(part, pp, qq, p.n)
        assert sorted(solved) == sorted((pp - k, qq - k) for k in layers)
        restricted = SpherePoly.zero(p.n)
        for k, lift in layers.items():
            assert lift and ambient_box_oracle(lift) == {}
            for a, b in lift:
                assert (sum(a), sum(b)) == (pp - k, qq - k)
            layer = SpherePoly(p.n, lift)
            assert solved[(pp - k, qq - k)] == layer
            restricted = restricted + layer
        assert restricted == SpherePoly(p.n, part)


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


def call_counter(monkeypatch, calls):
    """``count(owner, name)``: wrap ``owner.name`` for the test so that
    ``calls[name]`` counts its calls."""
    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)
    return count


def test_decomposition_multiplies_and_reduces_nothing(monkeypatch,
                                                     spectral_tables):
    # the layers come from box powers, which stay in normal form, by a
    # table built once per (P, Q, n); once every monomial's image is
    # tabled, neither operator takes a box power or solves a layer
    f = (z(3, 2) * w(3, 2)) ** 3 * (z(3, 3) * w(3, 4)) ** 2 + z(3, 1) * w(3, 2)
    g = f * ExactScalar(2, -1) + z(3, 4) * w(3, 3)     # the same (P, Q)
    calls = {}
    count = call_counter(monkeypatch, calls)
    count(ring, "reduce_nums")
    count(ring.SpherePoly, "__mul__")
    count(spectral, "_box_factor")
    spectral._layer_rows.cache_clear()
    assert harmonic_decompose(f).bidegrees() == [(k, k) for k in range(1, 6)]
    assert calls.keys() == {"_box_factor"}
    calls.clear()
    harmonic_decompose(g)
    assert calls == {}
    sublaplacian(f)
    sublaplacian(g)
    count(spectral, "box")
    count(spectral, "_layer_rows")
    for h in (f, g):
        harmonic_decompose(h)
        sublaplacian(h)
    assert calls == {}


def test_decomposition_table_shares_each_component(spectral_tables):
    """Every layer entry naming a component (p, q, D) holds the same tuple
    object, so a filled table keeps one destination per component, not
    one per layer."""
    f = z(3, 2) * w(3, 3) + z(3, 1) * w(3, 4) * ExactScalar(0, 2)
    g = z(3, 3) ** 2 * w(3, 2) + w(3, 1) * z(3, 4)
    for p in (f * g, f * f.conjugate(), g * g.conjugate() * f):
        harmonic_decompose(p)
    images = spectral_tables(3)[0]
    dests = [dest for image in images.values() for dest, _ in image]
    assert len(dests) > len(set(dests)) > 1
    assert len({id(d) for d in dests}) == len(set(dests))


def test_warm_decomposition_makes_one_polynomial_per_component(monkeypatch):
    """Once its monomials are tabled, a decomposition is one table pass
    and one ``from_nums`` per component: no denominator is combined and
    no term map is summed into another."""
    f = z(3, 2) * w(3, 3) + z(3, 1) * w(3, 4) * ExactScalar(0, 2) + w(3, 2)
    g = z(3, 3) ** 2 * w(3, 2) + w(3, 1) * z(3, 4) - z(3, 2) * w(3, 2)
    prod = f * g * f.conjugate()
    harmonic_decompose(prod)                 # fills the table
    calls = {}
    count = call_counter(monkeypatch, calls)
    count(math, "lcm")
    count(ring, "accumulate")
    count(spectral, "accumulate")
    count(SpherePoly, "from_nums")
    components = harmonic_decompose(prod).components
    assert len(components) > 3
    assert calls == {"from_nums": len(components)}


def test_decomposition_table_deepens_and_never_shrinks(spectral_tables):
    """A monomial past the table's depth rebuilds it at its polynomial's
    depth; a shallower one later keeps that depth.  Every result equals
    the reference, in ascending (p, q), with equal nums and den."""
    n, text = DEEP_CASES[0]
    images = spectral_tables(n)[0]
    shallow = z(1, 1) * w(1, 2) + z(1, 2) ** 3 * w(1, 1) * ExactScalar(2, 1)
    deep = parse_poly(text, n)
    depths, keys = [images.fill.args[:2]], []
    for f in (shallow, deep, shallow):
        assert_matches_reference(f)
        depths.append(images.fill.args[:2])
        keys.append(set(images))
    assert depths == [(n, 0), (n, 1), (n, 6), (n, 6)]
    # a rebuild empties the table: one table per n at a time
    assert keys == [set(shallow.nums), set(deep.nums),
                    set(deep.nums) | set(shallow.nums)]


@given(real_polys(), real_polys())
def test_self_adjoint(f, g):
    lhs = (f * sublaplacian(g)).integral()
    rhs = (g * sublaplacian(f)).integral()
    assert lhs == rhs


def self_adjoint_failures(n: int) -> list:
    """The pairs (i, j), i < j, of the real pool functions f + conj(f) of
    degree <= 2 on which int f_i L f_j != int f_j L f_i."""
    reals = [g for _, f in monomial_pool(n, 2)
             if not (g := f + f.conjugate()).is_zero()]
    lap = [sublaplacian(g) for g in reals]
    return [(i, j) for i in range(len(reals)) for j in range(i + 1, len(reals))
            if (reals[i] * lap[j]).integral() != (reals[j] * lap[i]).integral()]


@pytest.mark.parametrize("n", [2, 3])
def test_self_adjoint_on_degree_two_pool(n, monkeypatch, spectral_tables):
    """The sub-Laplacian is self-adjoint on the degree-2 real pool, where
    box is not zero; a box that drops z_(n+1) breaks it there."""
    assert self_adjoint_failures(n) == []

    def short_box(n, nums):
        out = {}
        for a in range(1, n):
            ring.accumulate(out, ring.partial(
                n, ring.partial(n, nums, 1, a), 0, a).items())
        return out

    for table in spectral_tables(n):
        table.clear()
    monkeypatch.setattr(spectral, "box", short_box)
    assert self_adjoint_failures(n) != []


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


# -- image tables -------------------------------------------------------------------

def amb_box(n, p):
    """sum_a d/dz_a d/dzbar_a on normal-form terms, fused on packed keys:
    d/dz_a d/dzbar_a subtracts the key of z_a zbar_a.  No normal-form term
    holds z_1 zbar_1, so the sum starts at a = 2.  Written apart from
    ``ring.box`` and ``ring.partial`` so that it can check them."""
    h = ring._half(n)
    units = [(s, (1 | 1 << s) * (1 | 1 << h))
             for s in range(2 * ring._F, h, ring._F)]
    out = {}
    ring.accumulate(out, ((key - u, (re * e, im * e))
                          for key, (re, im) in p.items()
                          for s, u in units
                          if (e := (key >> s & ring._M)
                              * (key >> h + s & ring._M))))
    return out


@given(polys_n123)
def test_box_and_partial_match_the_fused_box(f):
    n = f.n
    assert ring.box(n, f.nums) == amb_box(n, f.nums)
    out = {}
    for a in range(n + 1):
        mixed = ring.partial(n, ring.partial(n, f.nums, 1, a), 0, a)
        assert mixed == ring.partial(n, ring.partial(n, f.nums, 0, a), 1, a)
        ring.accumulate(out, mixed.items())
    assert out == amb_box(n, f.nums)


def reference_decompose(f):
    """The components of f by box powers of its parts and the layer rows,
    solved on every call: the route the image tables replaced."""
    n = f.n
    h = ring._half(n)
    parts = {}
    power, j = f.nums, 0
    while power:
        for key, c in power.items():
            part = parts.setdefault(((key & ring._M) + j,
                                     (key >> h & ring._M) + j), [])
            if len(part) == j:
                part.append({})
            part[j][key] = c
        power, j = amb_box(n, power), j + 1
    parts = sorted(parts.items())
    den = math.lcm(*(d for (p, q), _ in parts
                     for _, d, _ in spectral._layer_rows(p, q, n)))
    sums = {}
    for (p, q), powers in parts:
        for k, d, row in spectral._layer_rows(p, q, n):
            if k < len(powers):
                dst = sums.setdefault((p - k, q - k), {})
                for power, a in zip(powers[k:], row):
                    ring.accumulate(dst, power.items(), a * (den // d))
    return {key: SpherePoly.from_nums(n, nums, den * f.den)
            for key, nums in sums.items() if nums}


def reference_sublaplacian(f):
    """box - lambda on each term, computed on every call."""
    n = f.n
    h = ring._half(n)
    out = {}
    for key, (re, im) in f.nums.items():
        lam = spectral._double_eigenvalue(key & ring._M, key >> h & ring._M, n)
        if lam:
            out[key] = (-re * lam, -im * lam)
    ring.accumulate(out, amb_box(n, f.nums).items(), 2)
    return SpherePoly.from_nums(n, out, 2 * f.den)


def assert_matches_reference(f):
    """The table route gives the reference's components, in ascending
    (p, q), and its sub-Laplacian, with equal nums and den."""
    want = reference_decompose(f)
    got = harmonic_decompose(f).components
    assert list(got) == sorted(want)
    assert all((got[pq].nums, got[pq].den) == (c.nums, c.den)
               for pq, c in want.items())
    lap, want_lap = sublaplacian(f), reference_sublaplacian(f)
    assert (lap.nums, lap.den) == (want_lap.nums, want_lap.den)


def test_table_route_matches_reference_cold_and_warm(spectral_tables):
    @given(polys_n123)
    def check(f):
        for table in spectral_tables(f.n):
            table.clear()
        assert_matches_reference(f)      # fills the tables
        assert_matches_reference(f)      # reads them

    check()


@pytest.mark.parametrize("n, text", DEEP_CASES + [
    (2, "(1/1,0/1) z2 w2 (-1/1,0/1) z3 w3 (1/1,0/1) z2^2 w2^2"),
    (2, "(1/1,0/1) z2 w2 (1/1,0/1) z2^2 w2^2")])
def test_deep_parts_match_reference_cold_and_warm(n, text, spectral_tables):
    # the first extra case's (1, 1) part is harmonic, so its box image is
    # zero although each of its monomials has a (0, 0) layer: those layers
    # cancel in the (0, 0) destination, which the (2, 2) part alone feeds
    f = parse_poly(text, n)
    assert_matches_reference(f)
    assert_matches_reference(f)


def test_kernel_products_match_reference(monkeypatch, spectral_tables):
    """Every kernel-s7 seed-1 item, every 7th repetition: 440 products of
    random n = 3 polynomials, as the benchmark serves them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for dataclass
    spec.loader.exec_module(workloads)
    products = [a * b for item in workloads.kernel_items(1, 44)
                for a, b in map(item.factors, range(0, 64, 7))]
    assert len(products) == 440
    for f in products:
        assert_matches_reference(f)


def test_every_table_weight_is_pinned_by_an_identity(spectral_tables):
    """Fill the n = 1 and n = 2 tables from monomial_pool(n, 4) through the
    spectral suite's two identities: the components reconstruct f, and
    each is an eigenfunction with eigenvalue pq + n(p + q)/2.  The pool
    deepens the decomposition table to depth 2, so its weights are over
    each component's D_pq(2).  Then negate each weight of each table
    entry in turn: every negation must break an identity on a pool
    member whose decomposition reads that entry."""
    def broken(f):
        dec = harmonic_decompose(f)
        return dec.reconstruct() != f or any(
            sublaplacian(c) != c * ExactScalar(-ref.eigenvalue(p, q, f.n))
            for (p, q), c in dec.components.items())

    def negated(entry, i, j):
        """The entry with weight j of destination i negated."""
        dest, pairs = entry[i]
        key, w = pairs[j]
        pairs = pairs[:j] + ((key, -w),) + pairs[j + 1:]
        return entry[:i] + ((dest, pairs),) + entry[i + 1:]

    survivors = []
    for n in (1, 2):
        pool = [f for _, f in monomial_pool(n, 4)]
        assert not any(map(broken, pool))
        assert spectral_tables(n)[0].fill.args[:2] == (n, 2)
        # the pool members whose identities read each entry
        readers = ({}, {})
        for f in pool:
            for key in f.nums:
                readers[0].setdefault(key, []).append(f)
            for c in harmonic_decompose(f).components.values():
                for key in c.nums:
                    readers[1].setdefault(key, []).append(f)
        sites = [(table_index, key, i, j)
                 for table_index in (0, 1)
                 for key, entry in spectral_tables(n)[table_index].items()
                 for i, (_, pairs) in enumerate(entry)
                 for j in range(len(pairs))]
        assert len(sites) == {1: 154, 2: 534}[n]
        for table_index, key, i, j in sites:
            table = spectral_tables(n)[table_index]
            entry = table[key]
            table[key] = negated(entry, i, j)
            try:
                if not any(map(broken, readers[table_index][key])):
                    survivors.append((n, table_index, ring._decode(n, key)))
            finally:
                table[key] = entry
    assert survivors == []
