"""Exact ring arithmetic: normal forms, integration, grading, series."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crsphere import ring
from crsphere.ring import (ExactScalar, SpherePoly, TSeries2, parse_poly,
                           parse_scalar, inner, norm2, sum_of_products,
                           volume_factor, PolyParseError, MAX_TERM_DEGREE)

from conftest import coordinate_phase, oracle_monomial_integral


def z(n, j):
    return SpherePoly.z(n, j)


def w(n, j):
    return SpherePoly.w(n, j)


# -- strategies ---------------------------------------------------------------

def scalars():
    fr = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.builds(ExactScalar, fr, fr)


def exponent_tuples(n):
    return st.tuples(*[st.integers(0, 2) for _ in range(n + 1)])


def polys(n=1, max_terms=3):
    term = st.tuples(exponent_tuples(n), exponent_tuples(n), scalars())
    def build(ts):
        acc = {}
        for a, b, c in ts:
            acc[(a, b)] = acc.get((a, b), ExactScalar.zero()) + c
        return SpherePoly(n, acc)
    return st.lists(term, min_size=0, max_size=max_terms).map(build)


# -- normal form ----------------------------------------------------------------

def test_sphere_relation_collapses():
    assert z(1, 1) * w(1, 1) + z(1, 2) * w(1, 2) == SpherePoly.one(1)


def test_reduced_monomial_untouched():
    assert z(1, 1).to_grammar() == "(1/1,0/1) z1"


def test_single_division_step():
    assert z(1, 1) * w(1, 1) == SpherePoly.one(1) - z(1, 2) * w(1, 2)


def test_no_reducible_monomials_stored():
    p = (z(1, 1) * w(1, 1) + z(1, 2)) ** 3
    for a, b in p.terms:
        assert not (a[0] >= 1 and b[0] >= 1)


@given(polys())
def test_normal_form_idempotent(p):
    assert SpherePoly(p.n, p.terms) == p


@given(polys(), polys())
def test_product_well_defined_on_classes(p, q):
    relation = z(1, 1) * w(1, 1) + z(1, 2) * w(1, 2)
    assert p * q == (p + relation - 1) * q


@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(polys())
def test_conjugate_involution(p):
    assert p.conjugate().conjugate() == p


# -- integration ------------------------------------------------------------------

def test_integral_examples():
    assert SpherePoly.one(1).integral() == ExactScalar.one()
    assert (z(1, 1) * w(1, 1)).integral() == ExactScalar(Fraction(1, 2))
    assert (z(1, 1) ** 2 * w(1, 1) ** 2).integral() == ExactScalar(Fraction(1, 3))


@pytest.mark.parametrize("n", [1, 2])
def test_integral_against_simplex_oracle(n):
    # all |a| <= 3 diagonal monomials against the Beta-integral oracle
    def tuples(width, total):
        if width == 1:
            yield (total,)
            return
        for h in range(total + 1):
            for rest in tuples(width - 1, total - h):
                yield (h,) + rest
    for d in range(4):
        for a in tuples(n + 1, d):
            got = SpherePoly.monomial(n, a, a).integral()
            want = oracle_monomial_integral(n, a, a)
            assert got == ExactScalar(want)


def test_offdiagonal_integrals_vanish(unit_phase):
    # coordinate-phase invariance forces them to zero; check both facts
    cases = [((1, 0), (0, 1)), ((2, 0), (0, 0)), ((2, 1), (1, 0)),
             ((1, 2), (2, 0))]
    for a, b in cases:
        p = SpherePoly.monomial(1, a, b)
        assert p.integral().is_zero()
        for j in (1, 2):
            assert coordinate_phase(p, j, unit_phase).integral() == p.integral()


@given(polys())
def test_integral_conjugation(p):
    assert p.conjugate().integral() == p.integral().conjugate()


@given(polys())
def test_integral_vanishes_off_zero_mode(p):
    q = p - p.fourier_project(0)
    assert q.integral().is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_phase_substitute_matches_coordinate_phases(n, data):
    """z -> u z, zbar -> conj(u) zbar on every coordinate at once equals the
    coordinate phases applied one coordinate at a time, on modes of both
    signs."""
    p = data.draw(polys(n, max_terms=4))
    p = p + z(n, 1) ** 3 * w(n, 2) + w(n, n + 1) ** 2 * z(n, 1)   # m = 2, -1
    for u in (ExactScalar(Fraction(3, 5), Fraction(4, 5)),
              ExactScalar(Fraction(5, 13), Fraction(-12, 13)),
              ExactScalar(0, 1), ExactScalar(-1)):
        want = p
        for j in range(1, n + 2):
            want = coordinate_phase(want, j, u)
        assert p.phase_substitute(u) == want


# -- grading -----------------------------------------------------------------------

def test_fourier_examples():
    p = z(1, 1) ** 2 * w(1, 2)
    assert p.fourier_project(1) == p
    assert (z(1, 1) + w(1, 1)).fourier_project(1) == z(1, 1)


@given(polys())
def test_fourier_partition(p):
    total = SpherePoly.zero(1)
    for m in p.modes():
        pm = p.fourier_project(m)
        assert pm.fourier_project(m) == pm
        total = total + pm
    assert total == p


@given(polys(), polys())
def test_grading_additive_under_products(p, q):
    for m in p.modes():
        for m2 in q.modes():
            prod = p.fourier_project(m) * q.fourier_project(m2)
            assert prod.fourier_project(m + m2) == prod


# -- series ------------------------------------------------------------------------

@given(polys(), polys(), polys())
def test_series_associativity(p, q, r):
    s1 = TSeries2(p, q, r)
    s2 = TSeries2(q, r, p)
    s3 = TSeries2(r, p, q)
    assert (s1 * s2) * s3 == s1 * (s2 * s3)


def test_series_truncation_drops_order3():
    t2 = TSeries2(SpherePoly.zero(1), SpherePoly.zero(1), SpherePoly.one(1))
    s = TSeries2(SpherePoly.zero(1), z(1, 1), w(1, 2))
    prod = t2 * s
    assert prod.c0.is_zero() and prod.c1.is_zero() and prod.c2.is_zero()


def test_fractional_power_binomial():
    v = z(1, 1) * w(1, 1)
    s = TSeries2(SpherePoly.one(1), v)
    p = s.fractional_power(Fraction(1, 2))
    # (1 + tv)^(1/2) = 1 + v/2 t - v^2/8 t^2 + O(t^3)
    assert p.c1 == v * Fraction(1, 2)
    assert p.c2 == v * v * Fraction(-1, 8)
    # square back, truncated
    sq = p * p
    assert sq.c0 == s.c0 and sq.c1 == s.c1 and sq.c2 == s.c2


def test_base_slice_of_series_is_round_value():
    s = TSeries2(SpherePoly.one(1), z(1, 1))
    assert s.c0 == SpherePoly.one(1)


# -- serialization ------------------------------------------------------------------

def test_scalar_roundtrip():
    s = ExactScalar(Fraction(-22, 7), Fraction(5, 3))
    assert parse_scalar(s.serialize()) == s
    assert s.serialize() == "-22/7+5/3*i"
    assert ExactScalar(0, Fraction(-1, 2)).serialize() == "0/1-1/2*i"


@pytest.mark.parametrize("text", ["1/0+0/1*i", "0/1+1/0*i", "3/0-2/0*i"])
def test_scalar_literal_with_zero_denominator_is_a_value_error(text):
    """A zero denominator is a bad literal, reported as one, never a
    ``ZeroDivisionError``."""
    with pytest.raises(ValueError, match="zero denominator") as exc:
        parse_scalar(text)
    assert repr(text) in str(exc.value)


@pytest.mark.parametrize("text", [
    "1" * 5000 + "/1+0/1*i", "1/" + "1" * 5000 + "+0/1*i",
    "1/1+" + "1" * 5000 + "/1*i", "1/1-1/" + "1" * 5000 + "*i"],
    ids=["re-num", "re-den", "im-num", "im-den"])
def test_scalar_literal_with_too_long_integer_is_a_value_error(text):
    """An integer past Python's digit limit is reported by the rule the
    term grammar also reads, naming the literal."""
    with pytest.raises(ValueError, match="integer literal of 5000 digits "
                       "is too long in ExactScalar literal") as exc:
        parse_scalar(text)
    assert repr(text) in str(exc.value)


@given(polys(n=2))
def test_grammar_roundtrip(p):
    assert parse_poly(p.to_grammar(), 2) == p


def test_grammar_examples():
    p = parse_poly("(1/2,0/1) z1^2 w2 (0/1,-1/1) z2", 1)
    want = z(1, 1) ** 2 * w(1, 2) * Fraction(1, 2) \
        + z(1, 2) * ExactScalar(0, -1)
    assert p == want


def test_parse_error_positions():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("(1/1,0/1) z1 $", 1)
    assert exc.value.line == 1 and exc.value.column == 14
    with pytest.raises(PolyParseError):
        parse_poly("(1/1,0/1) z5", 1)   # index out of range
    with pytest.raises(PolyParseError):
        parse_poly("z1", 1)             # variable before coefficient
    for text in ("", "  ", " + +", "\n"):    # no term at all
        with pytest.raises(PolyParseError, match="expected a term"):
            parse_poly(text, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coordinate_index_range_is_1_to_n_plus_1(n):
    """z_j and w_j exist for j = 1 .. n+1, in the constructor and in the
    grammar; an index just outside fails at the variable's column."""
    last = SpherePoly.z(n, n + 1)
    assert last.terms == {((0,) * n + (1,), (0,) * (n + 1)): 1}
    for j in (0, n + 2):
        with pytest.raises(ValueError, match=f"index {j} out of range"):
            SpherePoly.z(n, j)
    assert (parse_poly(f"(1/1,0/1) z{n + 1} w{n + 1}", n)
            == last * last.conjugate())
    for var, j in (("z", 0), ("w", 0), ("z", n + 2), ("w", n + 2)):
        with pytest.raises(PolyParseError) as exc:
            parse_poly(f"(1/1,0/1) z1\n(2/1,0/1) w1 {var}{j}^2", n)
        assert (exc.value.line, exc.value.column) == (2, 14)
        assert exc.value.message == (f"index {j} out of range 1..{n + 1} "
                                     f"for n={n}")


def test_parse_caps_term_degree_and_literal_length():
    assert MAX_TERM_DEGREE == 12
    assert parse_poly("(1/1,0/1) z1^6 w1^6", 1) == (z(1, 1) * w(1, 1)) ** 6
    # rejected while parsing, before reduction modulo the sphere relation
    with pytest.raises(PolyParseError) as exc:
        parse_poly("(1/1,0/1) z1^12 w1^28", 1)
    assert (exc.value.line, exc.value.column) == (1, 17)
    assert "term degree 40 exceeds the cap 12" in str(exc.value)
    with pytest.raises(PolyParseError) as exc:
        parse_poly("(1/1,0/1) z1\n(1/1," + "3" * 5000 + ") z2", 1)
    assert (exc.value.line, exc.value.column) == (2, 6)
    assert exc.value.message == "integer literal of 5000 digits is too long"


def test_scalar_rejects_bool():
    with pytest.raises(TypeError):
        ExactScalar(True)
    with pytest.raises(TypeError):
        ExactScalar(0, False)


@given(scalars(), st.integers(1, 3))
def test_equal_scalars_hash_alike(c, n):
    """A scalar, its constant polynomial and, when real, its rational are
    equal and hash alike, so set and dict lookups agree with ==."""
    equal = [c, SpherePoly.constant(n, c)]
    if c.is_real():
        equal.append(c.re)
        if c.re.denominator == 1:
            equal.append(c.re.numerator)
    for a in equal:
        for b in equal:
            assert a == b and hash(a) == hash(b) and a in {b}


def test_scalar_and_constant_are_not_bools():
    for one in (ExactScalar(1), SpherePoly.one(1)):
        assert one != True and not one == True
        assert True not in {one}
    assert ExactScalar(0) != False and SpherePoly.zero(2) != False


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        z(1, 1) * z(2, 1)


def test_volume_factor_symbolic():
    vf = volume_factor(1)
    assert (vf.two_exponent, vf.pi_exponent) == (2, 2)
    assert str(volume_factor(2)) == "2^3 * pi^3"


def test_norm2_real_nonnegative():
    p = z(1, 1) * ExactScalar(0, 1) + w(1, 2) * 3
    v = norm2(p)
    assert v.is_real() and v.re > 0


# -- the product-free pairing --------------------------------------------------------

def paired_polys():
    """(p, q) at n = 1..3 with q = s p + z_j zbar_j p + r: q shares p's
    exponent shifts a - b, on the same and on different monomials, so
    the pairing sums cross terms with a != b."""
    def build(n):
        return st.tuples(polys(n), polys(n), scalars(),
                         st.integers(1, n + 1)).map(
            lambda t: (t[0], t[0] * t[2] + t[0] * z(n, t[3]) * w(n, t[3])
                       + t[1]))
    return st.integers(1, 3).flatmap(build)


@given(paired_polys())
def test_inner_matches_product_route(pq):
    p, q = pq
    assert inner(p, q) == (p * q.conjugate()).integral()
    assert inner(q, p) == inner(p, q).conjugate()
    assert inner(p, p) == (p * p.conjugate()).integral() == norm2(p)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inner_edge_cases(n):
    zero = SpherePoly.zero(n)
    c = SpherePoly.constant(n, ExactScalar(Fraction(2, 3), -1))
    f = z(n, 1) * w(n, n + 1) * ExactScalar(1, 2) + z(n, n + 1) * w(n, 1) \
        + Fraction(1, 2)
    for p, q in ((zero, zero), (zero, f), (f, zero), (c, c), (c, f), (f, c),
                 (f, f), (f, f * w(n, 1) * z(n, n + 1))):
        assert inner(p, q) == (p * q.conjugate()).integral()
        assert inner(q, p) == inner(p, q).conjugate()
    assert inner(zero, f) == ExactScalar.zero()
    assert inner(c, c) == ExactScalar(c.constant_term().abs2())


def test_inner_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(z(1, 1), z(2, 1))


def test_inner_multiplies_and_reduces_nothing(monkeypatch):
    n = 2
    p = (z(n, 1) + w(n, 2) * ExactScalar(0, 3)) ** 2 + z(n, 3) * w(n, 1)
    q = p * z(n, 2) * w(n, 2) + p * Fraction(1, 3) + w(n, 3)
    calls = []
    for owner, name in ((SpherePoly, "__mul__"), (SpherePoly, "__rmul__"),
                        (ring, "reduce_nums")):
        original = getattr(owner, name)

        def wrapper(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(owner, name, wrapper)
    inner(p, q)
    inner(q, p)
    norm2(p)
    assert calls == []


# -- the one-reduction sum of products -----------------------------------------------

@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(polys(n), polys(n)), max_size=3))))
def test_sum_of_products_matches_summed_products(case):
    n, pairs = case
    got = sum_of_products(n, [(x, y, 1) for x, y in pairs])
    want = sum((x * y for x, y in pairs), SpherePoly.zero(n))
    assert (got.nums, got.den) == (want.nums, want.den)


def test_sum_of_products_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        sum_of_products(2, [(z(1, 1), z(2, 1), 1)])


# -- argument checks and exact edge cases -----------------------------------------

@pytest.mark.parametrize("side, a", [(0, 2), (0, -1), (1, 2), (1, -1),
                                     (2, 0), (-1, 1)])
def test_partial_rejects_coordinate_or_side_out_of_range(side, a):
    # at n = 1 a coordinate 2 or -1 would read a neighbouring key field
    nums = (z(1, 1) * w(1, 2) ** 2 + z(1, 2) * w(1, 2)).nums
    with pytest.raises(ValueError):
        ring.partial(1, nums, side, a)


def test_scalar_division_by_zero_raises():
    for zero in (0, Fraction(0), ExactScalar.zero()):
        with pytest.raises(ZeroDivisionError):
            ExactScalar(Fraction(1, 3), -2) / zero


@given(scalars())
def test_scalar_division_by_units_is_exact(c):
    i = ExactScalar(0, 1)
    assert c / 1 == c and c / -1 == -c
    assert c / i == c * -i and c / -i == c * i
    assert (c / i) * i == c


@given(polys(n=2))
def test_zeroth_power_is_one(p):
    assert p ** 0 == SpherePoly.one(p.n)


def test_zero_conjugate_and_negation_are_the_operand(monkeypatch):
    """A zero operand is its own conjugate and negation; a nonzero one
    keeps lowest terms, so neither runs a normalization (0 calls), and an
    empty order's coefficient view is the shared zero polynomial."""
    zero = SpherePoly.zero(2)
    assert zero.conjugate() is zero and -zero is zero
    szero = TSeries2.zero(2)
    assert szero.conjugate() is szero and -szero is szero
    p = z(2, 1) * Fraction(2, 3) + w(2, 3) * ExactScalar(0, Fraction(1, 6))
    s = TSeries2(p, None, p * z(2, 2))
    normalized = []
    for cls in (SpherePoly, TSeries2):
        original = cls.from_nums
        monkeypatch.setattr(cls, "from_nums", lambda *a, _f=original: (
            normalized.append(a) or _f(*a)))
    got = [p.conjugate(), -p, s.conjugate(), -s]
    assert normalized == []
    monkeypatch.undo()
    pbar = SpherePoly(2, {(b, a): c.conjugate()
                          for (a, b), c in p.terms.items()})
    assert got[0] == pbar and got[1] + p == zero
    assert got[2] == TSeries2(pbar, None, pbar * w(2, 2))
    assert got[3] + s == szero
    assert got[2].c1 is zero and got[3].c1 is zero and s.c1 is zero


# -- the text table ------------------------------------------------------------------

def reference_terms(p: SpherePoly) -> list:
    """Every decoded term, sorted by (|a| + |b|, a, b)."""
    def order(item):
        (a, b), _ = item
        return sum(a) + sum(b), a, b
    return sorted(p.terms.items(), key=order)


def reference_grammar(p: SpherePoly) -> str:
    """Format the terms of :func:`reference_terms` one by one."""
    parts = []
    for (a, b), c in reference_terms(p):
        text = (f"({c.re.numerator}/{c.re.denominator},"
                f"{c.im.numerator}/{c.im.denominator})")
        for var, exps in (("z", a), ("w", b)):
            for j, e in enumerate(exps, 1):
                if e:
                    text += f" {var}{j}" + (f"^{e}" if e != 1 else "")
        parts.append(text)
    return " ".join(parts) or "(0/1,0/1)"


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_to_grammar_matches_decode_and_sort_cold_and_warm(n, data):
    p = data.draw(polys(n, max_terms=6))
    want = reference_grammar(p)
    ring._texts(n).clear()
    assert p.to_grammar() == want
    assert p.to_grammar() == want
    assert p.sorted_terms() == reference_terms(p)


def test_to_grammar_orders_and_formats_the_widest_keys():
    # a degree-254 monomial fills the rank's first byte
    big = SpherePoly.monomial(1, (0, 127), (127, 0), ExactScalar(-2, 1))
    p = big + SpherePoly.monomial(1, (3, 0), (0, 1)) + z(1, 2) - 1
    for _ in range(2):
        assert p.to_grammar() == reference_grammar(p)
    assert p.to_grammar().endswith("(-2/1,1/1) z2^127 w1^127")
