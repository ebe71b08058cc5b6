"""Frame fields, dual forms, pairings and covariant differentiation."""

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from crsphere import frames, ring
from crsphere.ring import ExactScalar, SpherePoly, TSeries2, inner
from crsphere.frames import (FrameVector, TensorField, bracket, contact_form,
                             covariant_T, covariant_Z, field_apply, form_eval,
                             index_pairs, levi_pairing, reeb, sharp_pairing,
                             theta_form, thetabar_form, tight_expand,
                             z_field, zbar_field)
from crsphere.verify import monomial_pool

import ambient_frame
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


def test_bracket_forms_no_product_with_a_zero_factor(monkeypatch):
    """[Z_12, Zbar_13] at n = 2 keeps its slots, and neither field_apply
    (which skips a zero image X_s(f)) nor the ambient re-expansion
    multiplies by a zero polynomial, series or scalar."""
    n = 2
    x, y = z_field(n, 1, 2), zbar_field(n, 1, 3)
    zero = SpherePoly.zero(n)
    want = (w(n, 2) * z(n, 3) * ExactScalar(0, -2), z(n, 1) * z(n, 3), zero,
            -z(n, 3) ** 2, zero, -w(n, 1) * w(n, 2), -w(n, 2) ** 2)
    products = []
    for cls in (SpherePoly, TSeries2):
        for name in ("__mul__", "__rmul__"):
            def counting(a, b, _original=getattr(cls, name)):
                products.append(a.is_zero()
                                or (b.is_zero() if hasattr(b, "is_zero")
                                    else b == 0))
                return _original(a, b)
            monkeypatch.setattr(cls, name, counting)
    got = bracket(x, y)
    assert got.slots == want
    assert products and not any(products)
    series = [FrameVector(n, (TSeries2(c, c * z(n, 1)) for c in v.slots))
              for v in (x, y)]
    products.clear()
    assert order_slots(bracket(*series), 0) == want
    assert products and not any(products)


def test_field_apply_returns_the_zero_of_its_ring():
    """Z_12 * zbar_3 has no nonzero image on a constant, so it applies to
    the zero of its ring: a series when a slot or f is one."""
    n = 2
    x = z_field(n, 1, 2) * w(n, 3)
    c = SpherePoly.constant(n, 5)
    sx = FrameVector(n, map(TSeries2, x.slots))
    for vector, f, ring_type in ((x, c, SpherePoly), (sx, c, TSeries2),
                                 (x, TSeries2(c, c), TSeries2),
                                 (x, SpherePoly.zero(n), SpherePoly),
                                 (sx, TSeries2.zero(n), TSeries2)):
        got = field_apply(vector, f)
        assert type(got) is ring_type and got.is_zero()


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
    out = SpherePoly.from_nums(
        p.n, ring.partial(p.n, p.nums, side, a % (p.n + 1)), p.den)
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


def frame_fields(n):
    """T, the Z_jk and the Zbar_jk: one field per slot."""
    pairs = index_pairs(n)
    return ([reeb(n)] + [z_field(n, *p) for p in pairs]
            + [zbar_field(n, *p) for p in pairs])


def coframe_values(x: FrameVector) -> tuple:
    """(theta(x), theta_jk(x)..., thetabar_jk(x)...) through ambient
    coordinates: theta = i sum (z_a dzbar_a - zbar_a dz_a), theta_jk =
    z_j dz_k - z_k dz_j and its conjugate, on x's ambient coefficients."""
    n = x.n
    v, wc = x.ambient()
    th = SpherePoly.zero(n)
    for a in range(n + 1):
        th = th + (z(n, a + 1) * wc[a] - w(n, a + 1) * v[a]) * I
    pairs = index_pairs(n)
    return ((th,)
            + tuple(z(n, j) * v[k - 1] - z(n, k) * v[j - 1] for j, k in pairs)
            + tuple(w(n, j) * wc[k - 1] - w(n, k) * wc[j - 1]
                    for j, k in pairs))


def slot_tuples(n):
    """Slots with each entry 0 or a small random polynomial."""
    entry = st.one_of(st.just(SpherePoly.zero(n)),
                      low_degree_polys(n, max_degree=1, max_terms=1))
    return st.tuples(*[entry] * (2 * len(index_pairs(n)) + 1))


@pytest.mark.parametrize("n, examples", [(1, 40), (2, 20), (3, 10)])
def test_form_eval_matches_ambient_route(n, examples):
    """Pairing through the Gram [1, H, conj H] equals evaluating the form
    through ambient coordinates, on conjugate pairs too."""

    @settings(max_examples=examples, deadline=None)
    @given(slot_tuples(n), slot_tuples(n))
    def check(a, x):
        alpha, vec = frames.FrameForm(n, a), FrameVector(n, x)
        want = SpherePoly.zero(n)
        for c, value in zip(a, coframe_values(vec)):
            want = want + c * value
        assert form_eval(alpha, vec) == want
        assert vec.conjugate().ambient() == tuple(
            tuple(c.conjugate() for c in part)
            for part in reversed(vec.ambient()))

    check()


def test_form_equality_compares_forms_not_slots():
    """On S^5 the coframe is overcomplete: z3 theta_12 - z2 theta_13 +
    z1 theta_23 vanishes on every frame field, so it equals the zero form
    though its slots do not; distinct coframe members stay distinct."""
    n = 2
    zero = SpherePoly.zero(n)
    hol = [z(n, 3), -z(n, 2), z(n, 1)]      # over index_pairs(2)
    null = frames.FrameForm(n, [zero] + hol + [zero] * 3)
    assert all(form_eval(null, x).is_zero() for x in frame_fields(n))
    assert null == frames.FrameForm(n, [zero] * 7)
    conj = frames.FrameForm(n, [zero] * 4 + [c.conjugate() for c in hol])
    assert conj == frames.FrameForm(n, [zero] * 7)
    assert theta_form(n, 1, 2) != theta_form(n, 1, 3)
    assert theta_form(n, 1, 2) != thetabar_form(n, 1, 2)
    assert contact_form(n) != frames.FrameForm(n, [zero] * 7)


# -- exterior calculus on slot tuples ------------------------------------------------

def test_base_table_at_n1():
    """d theta = 2i theta_12 ^ thetabar_12, d theta_12 = i theta ^
    theta_12 and its conjugate, over the wedges (0,1), (0,2), (1,2)."""
    zero = SpherePoly.zero(1)

    def c(re, im):
        return SpherePoly.constant(1, ExactScalar(re, im))
    assert frames._d_base(1) == ((zero, zero, c(0, 2)),
                                 (c(0, 1), zero, zero),
                                 (zero, c(0, -1), zero))


def value2(beta, ex, ey):
    """beta(X, Y) for a 2-form ``{(i, j): b_ij}`` and the coframe values
    ex, ey of X and Y: sum over i < j of b_ij (e^i(X) e^j(Y) - e^j(X)
    e^i(Y))."""
    total = TSeries2.zero(ex[0].n)
    for (i, j), b in beta.items():
        if not b.is_zero():
            total = total + b * (ex[i] * ey[j] - ex[j] * ey[i])
    return total


@pytest.mark.parametrize("n, size", [(1, 35), (2, 12), (3, 10)])
def test_d_of_df_vanishes_on_every_pair_of_frame_fields(n, size):
    """d(df) = 0 for the series s = f + t conj(f) + t^2 f^2.  The family
    is overcomplete for n >= 2, so a zero 2-form can have nonzero slots:
    it is evaluated on every pair of frame fields instead."""
    cols = [coframe_values(x) for x in frame_fields(n)]
    wedges = list(combinations(range(len(cols)), 2))
    pool = monomial_pool(n, 3)
    for name, f in pool[::len(pool) // size]:
        s = TSeries2(f, f.conjugate(), f * f)
        beta = dict(zip(wedges, frames.d(frames.df(s))))
        for a, b in wedges:
            assert value2(beta, cols[a], cols[b]) == TSeries2.zero(n), \
                (name, a, b)


def test_wedge_is_alternating():
    a = frames.df(TSeries2(z(2, 1) * w(2, 3), z(2, 2)))
    b = frames.df(TSeries2(w(2, 2), None, z(2, 3)))
    assert frames.wedge(a, b) == tuple(-c for c in frames.wedge(b, a))
    assert all(c.is_zero() for c in frames.wedge(a, a))


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


# -- tight frame --------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_vector_reconstruction(n):
    v = z_field(n, 1, 2) * w(n, n + 1)
    if n > 1:
        v = v + z_field(n, 2, 3) * (z(n, 1) * w(n, 2))
    coeffs = tight_expand(v)
    back = reeb(n) * 0
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
    """H is read off the per-n ambient coefficients of the Z_rs once; a
    second canonicalization reads none."""
    calls = []
    original = frames._ambients

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(frames, "_ambients", counting)
    frames._gram_right.cache_clear()
    frames._projections.cache_clear()
    pairs = index_pairs(2)
    t = TensorField(2, {(pairs[0], pairs[1]): z(2, 3)})
    first = tight_expand(t)
    assert calls == [(2,)]
    calls.clear()
    assert tight_expand(t) == first
    assert calls == []


@pytest.mark.parametrize("n, examples", [(2, 30), (3, 10)])
def test_tight_expand_matches_entrywise_sum(n, examples):
    """c'[pq, rs] = sum over the entries of H[jk, pq] c[jk, lm] H[lm, rs],
    each product reduced on its own, gives the same keys, in the same
    order, with the same nums and den."""
    h, pairs = frames._gram_right(n), index_pairs(n)

    @settings(max_examples=examples, deadline=None)
    @given(tensors(n), tensors(n, symmetric=True))
    def check(t, u):
        t = TensorField(n, {**t.coeffs, **u.coeffs})
        want = {}
        for pq in pairs:
            for rs in pairs:
                acc = SpherePoly.zero(n)
                for (jk, lm), c in t.coeffs.items():
                    acc = acc + h[(jk, pq)] * c * h[(lm, rs)]
                if not acc.is_zero():
                    want[(pq, rs)] = acc
        got = tight_expand(t).coeffs
        assert list(got) == list(want)
        assert all(same_normal_form(got[k], want[k]) for k in want)

    check()


def entrywise_reference(t: TensorField) -> dict:
    """c'[pq, rs] = sum over the entries of H[jk, pq] c[jk, lm] H[lm, rs],
    each product reduced on its own, as in the test above."""
    h, pairs = frames._gram_right(t.n), index_pairs(t.n)
    want = {}
    for pq in pairs:
        for rs in pairs:
            acc = SpherePoly.zero(t.n)
            for (jk, lm), c in t.coeffs.items():
                acc = acc + h[(jk, pq)] * c * h[(lm, rs)]
            if not acc.is_zero():
                want[(pq, rs)] = acc
    return want


def test_warm_tight_expand_forms_no_product_and_reduces_nothing(
        monkeypatch):
    n = 2
    pairs = index_pairs(n)
    t = TensorField(n, {(pairs[0], pairs[2]): z(n, 3) * ExactScalar(1, -2),
                        (pairs[2], pairs[0]): w(n, 2) * Fraction(1, 3)})
    want = entrywise_reference(t)
    assert tight_expand(t).coeffs == want
    calls = recorded_calls(monkeypatch, FILLING + (
        (ring, "reduce_nums"), (ring, "_add_products")))
    assert tight_expand(t).coeffs == want
    assert calls == []


def test_every_n2_projection_entry_is_pinned_by_the_entrywise_sum(
        projection_tables):
    """Fill the n = 2 projection table from the degree-2 pool at every
    input pair, then negate each stored image in turn: the entrywise sum
    must catch every negation on the monomial that owns it."""
    n = 2
    pairs = index_pairs(n)
    assert {g.den for g in frames._gram_right(n).values()} == {1}
    for jklm in product(pairs, repeat=2):
        for _, f in monomial_pool(n, 2):
            tight_expand(TensorField(n, {jklm: f}))
    cases = []
    for jklm, entries in projection_tables(n).items():
        for key, entry in entries.items():
            t = TensorField(n, {jklm: SpherePoly.from_nums(n, {key: (1, 0)},
                                                           1)})
            want = entrywise_reference(t)
            assert tight_expand(t).coeffs == want
            cases += [(t, want, entries, key, i) for i in range(len(entry))]
    assert len(cases) == 2187     # 27 monomials at 9 input pairs, 9 images each
    survivors = []
    for t, want, entries, key, i in cases:
        entry = entries[key]
        o, pairs = entry[i]
        entries[key] = (entry[:i] + ((o, tuple((k, -w) for k, w in pairs)),)
                        + entry[i + 1:])
        try:
            if tight_expand(t).coeffs == want:
                survivors.append((t, o))
        finally:
            entries[key] = entry
    assert survivors == []


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


@pytest.mark.parametrize("n, examples", [(1, 10), (2, 5)])
def test_jacobi_identity(n, examples):
    """[x, [y, v]] + [y, [v, x]] + [v, [x, y]] = 0 on every triple of
    frame fields and on vectors with polynomial slots."""
    zero = FrameVector(n, [SpherePoly.zero(n)] * len(frame_fields(n)))

    def jacobiator(x, y, v):
        return (bracket(x, bracket(y, v)) + bracket(y, bracket(v, x))
                + bracket(v, bracket(x, y)))
    for triple in combinations(frame_fields(n), 3):
        assert jacobiator(*triple) == zero

    @settings(max_examples=examples, deadline=None)
    @given(slot_tuples(n), slot_tuples(n), slot_tuples(n))
    def check(a, b, c):
        assert jacobiator(*(FrameVector(n, s) for s in (a, b, c))) == zero

    check()


def series_vector(xs) -> FrameVector:
    """x_0 + t x_1 + t^2 x_2 from the polynomial vectors x_k."""
    return FrameVector(xs[0].n, map(TSeries2, *(x.slots for x in xs)))


def order_slots(x: FrameVector, k: int) -> tuple:
    """The order-k polynomial slots of a series vector."""
    return tuple(orders(c)[k] for c in x.slots)


@pytest.mark.parametrize("n", [1, 2])
def test_series_vectors_match_polynomial_orders(n):
    """bracket, covariant_Z and covariant_T of series vectors x and y give,
    at each order k, the truncated sum over i + j = k of the operation on
    the polynomial vectors x_i and y_j (covariant_T is linear: y_k).  Each
    series slot is nonzero at orders 0, 1 and 2 and zero in some
    coefficients.  A series vector also meets a frame field, a polynomial
    vector whose t and t^2 parts are zero, on either side."""
    one, first, last = SpherePoly.one(n), index_pairs(n)[0], index_pairs(n)[-1]
    xs = [z_field(n, *first) * (one + z(n, 1) * w(n, 2)),
          z_field(n, *first) * w(n, 1) + z_field(n, *last) * z(n, 1),
          z_field(n, *last) * ExactScalar(0, 2)]
    ys = [zbar_field(n, *first) * z(n, 2) + reeb(n) * w(n, 1),
          z_field(n, *last) * w(n, 2),
          zbar_field(n, *last) + zbar_field(n, *first) * z(n, 1)
          + reeb(n) * ExactScalar(1, 1)]
    x, y = series_vector(xs), series_vector(ys)
    zero = xs[0] * SpherePoly.zero(n)
    zf, zbf = z_field(n, *last), zbar_field(n, *first)
    cases = ((x, xs, y, ys), (x, xs, zbf, [zbf, zero, zero]),
             (zf, [zf, zero, zero], y, ys))
    for op in (bracket, covariant_Z):
        for a, a_orders, b, b_orders in cases:
            got = op(a, b)
            for k in range(3):
                want = reduce(add, (op(a_orders[i], b_orders[k - i])
                                    for i in range(k + 1)))
                assert order_slots(got, k) == want.slots, (op.__name__, k)
    got = covariant_T(y)
    for k in range(3):
        assert order_slots(got, k) == covariant_T(ys[k]).slots


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_covariant_Z_mixed_matches_closed_formula(n):
    for jk in index_pairs(n):
        for lm in index_pairs(n):
            got = covariant_Z(z_field(n, *jk), zbar_field(n, *lm))
            want = closed_nabla_z_zbar(n, *jk, *lm)
            assert got == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_covariant_Z_leibniz(n):
    """nabla_X Y for X = sum dc_jk Z_jk and Y = t T + sum a_pq Z_pq +
    sum b_lm Zbar_lm, all coefficients nonconstant: X applied to each of
    Y's coefficients plus sum dc_jk b_lm nabla_{Z_jk} Zbar_lm, the last
    from the closed formula."""
    pairs = index_pairs(n)
    dc = {(j, k): z(n, j) * w(n, k) + i for i, (j, k) in enumerate(pairs)}
    a = {(j, k): w(n, j) + z(n, k) * I for j, k in pairs}
    b = {(j, k): z(n, k) ** 2 + w(n, j) * ExactScalar(i, 1)
         for i, (j, k) in enumerate(pairs)}
    t = z(n, 1) * w(n, n + 1) + 1
    x = reduce(add, (z_field(n, *jk) * c for jk, c in dc.items()))
    y = reduce(add, [reeb(n) * t]
               + [z_field(n, *pq) * c for pq, c in a.items()]
               + [zbar_field(n, *lm) * c for lm, c in b.items()])
    want = reduce(add, [reeb(n) * field_apply(x, t)]
                  + [z_field(n, *pq) * field_apply(x, c)
                     for pq, c in a.items()]
                  + [zbar_field(n, *lm) * field_apply(x, c)
                     for lm, c in b.items()]
                  + [closed_nabla_z_zbar(n, *jk, *lm) * (dc[jk] * b[lm])
                     for jk in pairs for lm in pairs])
    assert covariant_Z(x, y) == want


def test_covariant_Z_makes_one_bracket(monkeypatch):
    """Two direction slots and two Zbar target slots: one bracket."""
    p, q, r = index_pairs(2)
    x = z_field(2, *p) * w(2, 1) + z_field(2, *q) * z(2, 2)
    y = zbar_field(2, *p) * z(2, 3) + zbar_field(2, *r) * w(2, 2)
    calls = []
    original = frames.bracket

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(frames, "bracket", counting)
    covariant_Z(x, y)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [1, 2])
def test_covariant_Z_without_Zbar_part_forms_no_bracket(n, monkeypatch):
    """A target with no Zbar part gets a zero Zbar block, equal slot by
    slot, ring included, to the one read off the bracket, with polynomial
    and series directions and targets, and no bracket is formed."""
    first, last = index_pairs(n)[0], index_pairs(n)[-1]
    x = z_field(n, *first) * w(n, 1) + z_field(n, *last) * z(n, 2)
    y = reeb(n) * z(n, 1) + z_field(n, *last) * w(n, 2)
    zf = z_field(n, *first)
    zero = x * SpherePoly.zero(n)
    xt, yt = series_vector([x, zf, zero]), series_vector([y, zero, zf])
    cases = [(x, y), (x, zf), (xt, y), (x, yt), (xt, yt), (xt, zf)]

    def bracket_route(a, b):
        t, zs, _ = b._blocks()
        _, _, zb = bracket(a, b)._blocks()
        return tuple(field_apply(a, c) for c in t + zs) + zb

    wants = [bracket_route(a, b) for a, b in cases]
    calls = recorded_calls(monkeypatch, [(frames, "bracket")])
    for (a, b), want in zip(cases, wants):
        got = covariant_Z(a, b).slots
        assert got == want
        assert list(map(type, got)) == list(map(type, want))
    assert calls == []


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


# -- one-reduction field application and shared frame fields -------------------------

def same_normal_form(got: SpherePoly, want: SpherePoly) -> bool:
    return got.n == want.n and got.nums == want.nums and got.den == want.den


def orders(r) -> tuple:
    """The coefficients of a series; a polynomial is its own order 0."""
    if isinstance(r, TSeries2):
        return r.c0, r.c1, r.c2
    return r, SpherePoly.zero(r.n), SpherePoly.zero(r.n)


@pytest.mark.parametrize("n, examples", [(1, 40), (2, 20), (3, 10)])
def test_field_apply_matches_per_coordinate_route(n, examples):
    """The one-reduction kernel gives the reference's nums and den: on
    every frame field over the degree-2 monomials and over random
    polynomials, and on vectors with random polynomial slots."""
    fields = frame_fields(n)
    for x in fields:
        for _, f in monomial_pool(n, 2):
            assert same_normal_form(field_apply(x, f),
                                    ambient_frame.field_apply(x, f))

    @settings(max_examples=examples, deadline=None)
    @given(polys(n), slot_tuples(n), slot_tuples(n))
    def check(f, slots, more):
        for x in fields + [FrameVector(n, slots)]:
            assert same_normal_form(field_apply(x, f),
                                    ambient_frame.field_apply(x, f))
        # a vector with series slots applies each order's vector
        x = FrameVector(n, map(TSeries2, slots, more))
        got, want = field_apply(x, f), ambient_frame.field_apply(x, f)
        assert all(map(same_normal_form, orders(got), orders(want)))

    check()


@pytest.mark.parametrize("n, examples", [(1, 20), (2, 10), (3, 5)])
def test_df_of_series_matches_per_coordinate_route(n, examples):
    @settings(max_examples=examples, deadline=None)
    @given(polys(n), polys(n))
    def check(f, g):
        s = TSeries2(f, g.conjugate(), f * g)
        for got, x in zip(frames.df(s), frame_fields(n)):
            for c, want in zip(orders(got), orders(s)):
                assert same_normal_form(
                    c, ambient_frame.field_apply(x, want))

    check()


# -- image tables of the frame fields ------------------------------------------------

def table_pool(n) -> list:
    """The degree-3 monomials, then sums of four of them with Gaussian
    rational coefficients."""
    pool = [f for _, f in monomial_pool(n, 3)]
    mixed = [sum((f * ExactScalar(Fraction(i + 1, 3), Fraction(-i, 2))
                  for i, f in enumerate(pool[s:s + 4])), SpherePoly.zero(n))
             for s in range(0, len(pool), 4)]
    return pool + mixed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_route_matches_reference_cold_and_warm(n, frame_tables):
    """From empty tables, the first application of each frame field (which
    fills its entries) and the second (which reads them) both give the
    reference's nums and den."""
    pool = table_pool(n)
    for x in frame_fields(n):
        cold = [field_apply(x, f) for f in pool]
        warm = [field_apply(x, f) for f in pool]
        for f, c, h in zip(pool, cold, warm):
            want = ambient_frame.field_apply(x, f)
            assert same_normal_form(c, want) and same_normal_form(h, want)
    zero = (0,) * (n + 1)
    e1, e2 = (1,) + zero[1:], (0, 1) + zero[2:]
    # Z_12(z1 z2) = z1 zbar1 - z2 zbar2 needed reduction: 1 - 2 z2 zbar2 - ...
    images = frame_tables(n)[1]
    one = ring._encode(n, zero, zero)
    [(dest, pairs)] = images[ring._encode(n, (1, 1) + zero[2:], zero)]
    assert dest == 0 and dict(pairs)[one] == 1
    # T multiplies z1 zbar2 by i/2 times its mode 0: an empty image, and
    # z1^2 zbar2 by i/2 times its mode 1: the weight 1
    images = frame_tables(n)[0]
    assert images[ring._encode(n, e1, e2)] == ()
    key = ring._encode(n, (2,) + zero[1:], e2)
    assert images[key] == ((0, ((key, 1),)),)


def recorded_calls(monkeypatch, targets) -> list:
    """Record the name of every call to the (module, name) targets."""
    calls = []
    for module, name in targets:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(module, name, counting)
    return calls


FILLING = ((ring, "sum_of_products"), (frames, "sum_of_products"),
           (frames, "partial"))


def test_warm_application_forms_no_product_and_reduces_nothing(
        monkeypatch, frame_tables):
    cases = [(x, f, ambient_frame.field_apply(x, f))
             for n in (1, 2) for x in frame_fields(n) for f in table_pool(n)]
    for x, f, _ in cases:
        field_apply(x, f)
    calls = recorded_calls(monkeypatch, FILLING + (
        (ring, "reduce_nums"), (ring, "_add_products")))
    for x, f, want in cases:
        assert same_normal_form(field_apply(x, f), want)
    assert calls == []


def test_warm_non_member_application_reads_the_tables(monkeypatch):
    """A vector that is not a frame field applies through the frame
    fields' tables too: once they are warm it fills no entry again, on
    polynomial and on series slots.  Every fill takes the monomial's
    ambient derivatives by ``frames.partial``; the application itself
    sums its products with ``sum_of_products``, so that is no sign."""
    n = 2
    x = z_field(n, 1, 2)
    vectors = [x + zbar_field(n, 1, 3), x * w(n, 1), x.conjugate(),
               reeb(n) * z(n, 3) + x * ExactScalar(2, -1)]
    vectors.append(FrameVector(n, map(TSeries2, vectors[3].slots,
                                      vectors[1].slots)))
    pool = table_pool(n)
    cases = [(y, f, ambient_frame.field_apply(y, f))
             for y in vectors for f in pool]
    for y, f, _ in cases:
        field_apply(y, f)
    calls = recorded_calls(monkeypatch, ((frames, "partial"),))
    for y, f, want in cases:
        assert all(map(same_normal_form, orders(field_apply(y, f)),
                       orders(want)))
    assert calls == []


def fused_examples(n=2):
    """x = Z_12 zbar_3 + Zbar_13 z_2, y = T z_3 + Z_23 (2 - i) and
    f = z_1 zbar_2 + z_3^2."""
    x = z_field(n, 1, 2) * w(n, 3) + zbar_field(n, 1, 3) * z(n, 2)
    y = reeb(n) * z(n, 3) + z_field(n, 2, 3) * ExactScalar(2, -1)
    return x, y, z(n, 1) * w(n, 2) + z(n, 3) ** 2


def test_warm_non_member_application_reduces_once(monkeypatch):
    """x(f) = sum_s x_s X_s(f) is one sum_of_products: one reduction for
    the whole sum, not one per product."""
    x, _, f = fused_examples()
    x = x + reeb(2) * z(2, 3)
    want = field_apply(x, f)
    calls = recorded_calls(monkeypatch, ((ring, "reduce_nums"),))
    got = field_apply(x, f)
    assert calls == ["reduce_nums"]
    assert same_normal_form(got, want)


def test_warm_brackets_reduce_each_fused_sum_once(monkeypatch):
    """Each ambient coefficient of a bracket, the tangency check and each
    slot of its re-expansion is one sum_of_products: three warm n = 2
    brackets make at most 70 reductions (121 when each product and sum
    was reduced on its own)."""
    x, y, _ = fused_examples()
    cases = [(x, y), (z_field(2, 1, 2), zbar_field(2, 1, 3)),
             (x, x.conjugate())]
    want = [bracket(a, b) for a, b in cases]
    calls = recorded_calls(monkeypatch, ((ring, "reduce_nums"),))
    got = [bracket(a, b) for a, b in cases]
    assert len(calls) <= 70
    assert [g.slots for g in got] == [g.slots for g in want]


def test_every_n1_table_entry_is_pinned_by_an_identity(frame_tables):
    """Fill the n = 1 tables from monomial_pool(1, 4) and check, on every
    pool member f, three identities computed another way: T f is
    (i/2)(|a| - |b|) f term by term, [Z_1, Zbar_1] f = -2i T f, and
    inner(Z_1 f, g) = -inner(f, Zbar_1 g) for the first 35 pool members
    g, where ``inner`` pairs by the moment rule with no frame table.  Then
    negate each nonempty table entry in turn: every negation must break
    one of the identities."""
    t, z1, zb1 = frame_fields(1)
    pool = [f for _, f in monomial_pool(1, 4)]
    partners = pool[:35]
    modes = [SpherePoly(1, {(a, b): c * ExactScalar(0, Fraction(
        sum(a) - sum(b), 2)) for (a, b), c in f.terms.items()})
        for f in pool]

    def identities_hold() -> bool:
        zbar_g = [field_apply(zb1, g) for g in partners]
        for f, want in zip(pool, modes):
            tf = field_apply(t, f)
            zf, zbf = field_apply(z1, f), field_apply(zb1, f)
            if (tf != want
                    or field_apply(z1, zbf) - field_apply(zb1, zf)
                    != tf * ExactScalar(0, -2)
                    or any(inner(zf, g) != -inner(f, zg)
                           for g, zg in zip(partners, zbar_g))):
                return False
        return True

    assert identities_hold()
    entries = [(s, key) for s, images in enumerate(frame_tables(1))
               for key, image in images.items() if image]
    assert len(entries) == 126
    survivors = []
    for s, key in entries:
        images = frame_tables(1)[s]
        image = images[key]
        images[key] = tuple((dest, tuple((k, -w) for k, w in pairs))
                            for dest, pairs in image)
        try:
            if identities_hold():
                survivors.append((s, ring._decode(1, key)))
        finally:
            images[key] = image
    assert survivors == []


def circle_mode(f: SpherePoly) -> int:
    """|a| - |b| of a polynomial whose terms share it, as reduction keeps."""
    (m,) = {sum(a) - sum(b) for a, b in f.terms}
    return m


def test_every_n2_table_entry_is_pinned_by_an_identity(frame_tables):
    """Fill the n = 2 tables by applying the seven frame fields to
    monomial_pool(2, 4) and check, on every pool member f, identities
    computed another way: T f is (i/2)(|a| - |b|) f term by term, and
    inner(Z_jk f, g) = -inner(f, Zbar_jk g), and the same with Z_jk and
    Zbar_jk swapped, for every g in monomial_pool(2, 5) of the image's
    circle mode (Z_jk lowers it by 2, Zbar_jk raises it by 2), where
    ``inner`` pairs by the moment rule with no frame table.  Then negate
    each nonempty table entry in turn: every negation must break an
    identity on a pool member that holds its monomial."""
    n = 2
    fields = frame_fields(n)
    p = len(index_pairs(n))
    pool = [f for _, f in monomial_pool(n, 4)]
    for x in fields:
        for f in pool:
            field_apply(x, f)
    entries = [(s, key) for s, images in enumerate(frame_tables(n))
               for key, image in images.items() if image]
    assert len(entries) == 848
    partners = [g for _, g in monomial_pool(n, 5)]
    adjoint_images = {}     # (slot, circle mode of g) -> [(g, X'_s g)]
    for s in range(1, 2 * p + 1):
        adjoint = fields[s + p if s <= p else s - p]
        for g in partners:
            adjoint_images.setdefault((s, circle_mode(g)), []).append(
                (g, field_apply(adjoint, g)))

    def holds(s: int, f: SpherePoly) -> bool:
        xf = field_apply(fields[s], f)
        if s == 0:
            return xf == SpherePoly(n, {
                (a, b): c * ExactScalar(0, Fraction(sum(a) - sum(b), 2))
                for (a, b), c in f.terms.items()})
        mode = circle_mode(f) + (-2 if s <= p else 2)
        return all(inner(xf, g) == -inner(f, yg)
                   for g, yg in adjoint_images.get((s, mode), ()))

    assert [(s, f) for s in range(len(fields)) for f in pool
            if not holds(s, f)] == []
    survivors = []
    for s, key in entries:
        images = frame_tables(n)[s]
        image = images[key]
        images[key] = tuple((dest, tuple((k, -w) for k, w in pairs))
                            for dest, pairs in image)
        try:
            if all(holds(s, f) for f in pool if key in f.nums):
                survivors.append((s, ring._decode(n, key)))
        finally:
            images[key] = image
    assert survivors == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_fields_are_shared(n):
    assert reeb(n) is reeb(n)
    assert all(a is b for a, b in zip(frame_fields(n), frame_fields(n)))
    assert tuple(frame_fields(n)) == frames._frame(n)


def counting_coordinates(monkeypatch) -> list:
    """Record every SpherePoly.z and SpherePoly.w call from now on."""
    calls = []
    for name in ("z", "w"):
        original = getattr(SpherePoly, name)

        def counting(*args, _original=original):
            calls.append(args)
            return _original(*args)
        monkeypatch.setattr(SpherePoly, name, staticmethod(counting))
    return calls


def test_warm_covariant_Z_builds_no_coordinate(monkeypatch):
    def run():
        return [covariant_Z(z_field(2, 1, 2), zbar_field(2, *jk))
                for jk in index_pairs(2)]
    first = run()
    calls = counting_coordinates(monkeypatch)
    assert run() == first
    assert calls == []


def test_warm_j_hessian_via_T_builds_no_coordinate(monkeypatch):
    from crsphere.variation import DeformationTensor, j_hessian_via_T
    a, b = index_pairs(2)[:2]
    c = SpherePoly.constant(2, Fraction(-2, 3)) + w(2, 1) * ExactScalar(0, 4)
    e = DeformationTensor.from_tensor(TensorField(2, {(a, b): c, (b, a): c}))
    first = j_hessian_via_T(e)
    calls = counting_coordinates(monkeypatch)
    assert j_hessian_via_T(e) == first
    assert calls == []


@pytest.mark.parametrize("cls", [FrameVector, frames.FrameForm])
def test_slot_tuple_rejects_mixed_rings(cls):
    p, s = SpherePoly.one(1), TSeries2.zero(1)
    for slots in ((p, s, s), (s, p, p)):
        with pytest.raises(ValueError, match="mix polynomial and series"):
            cls(1, slots)
    assert cls(1, (p, p, p)).slots == (p, p, p)
    assert cls(1, (s, s, s)).slots == (s, s, s)
