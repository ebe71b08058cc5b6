"""The S^3 structure-equation solver against frozen values and closed forms."""

import functools
import sys
from fractions import Fraction

import pytest

from dataclasses import replace

from crsphere import frames, oracle3, ring, variation
from crsphere.frames import (contact_form, form_eval, reeb, theta_form,
                             thetabar_form, z_field, zbar_field)
from crsphere.ring import ExactScalar, SpherePoly, TSeries2
from crsphere.oracle3 import (FRAME_WEBSTER_CONSTANT, LEVI_CONSTANT,
                              SECOND_VARIATION_COEFF, T1, T1B, TH,
                              check_connection_variation,
                              check_first_variation, check_torsion_variation,
                              deform_frame, mode_weighted_norm,
                              second_derivative_check, solve_structure)
from crsphere.variation import DeformationTensor, j_hessian, j_hessian_via_T
from crsphere.verify import monomial_pool

import ambient_frame
from test_ring import z, w


def series_of(e: SpherePoly):
    return solve_structure(deform_frame(e))


def hessian_routes(e: SpherePoly):
    """Both Hessian routes of E, as second_derivative_check takes them."""
    d = DeformationTensor.from_coefficient(e)
    return j_hessian(d).total, j_hessian_via_T(d)


def test_round_base_point():
    ps = series_of(SpherePoly.zero(1))
    assert ps.torsion == TSeries2.zero(1)
    assert ps.webster == TSeries2.constant(1, ExactScalar(FRAME_WEBSTER_CONSTANT))
    # w(0) = -i theta
    assert ps.omega[TH] == TSeries2.constant(1, ExactScalar(0, -1))
    assert ps.omega[T1] == TSeries2.zero(1)
    assert ps.omega[T1B] == TSeries2.zero(1)


def test_constant_deformation_frozen_series():
    ps = series_of(SpherePoly.one(1))
    # W(t) = 1 + 2 t^2
    assert ps.webster.c0 == SpherePoly.one(1)
    assert ps.webster.c1.is_zero()
    assert ps.webster.c2 == SpherePoly.constant(1, 2)
    # A(t) = -2 t
    assert ps.torsion.c0.is_zero()
    assert ps.torsion.c1 == SpherePoly.constant(1, -2)
    assert ps.torsion.c2.is_zero()
    # w(t) = -i (1 + 2 t^2) theta
    assert ps.omega[TH].c1.is_zero()
    assert ps.omega[TH].c2 == SpherePoly.constant(1, ExactScalar(0, -2))
    assert ps.omega[T1] == TSeries2.zero(1)


def test_renormalizer_is_half_norm():
    e = w(1, 1) ** 2 * z(1, 2)
    cf = deform_frame(e)
    assert cf.z1[T1].c2 == e * e.conjugate() * Fraction(1, 2)


def test_levi_constant():
    assert LEVI_CONSTANT == 2


def test_first_variation_samples():
    for e in (SpherePoly.one(1), w(1, 1) * w(1, 2) ** 3, z(1, 1) * w(1, 2) ** 2,
              z(1, 1) ** 2, w(1, 2) ** 4):
        verdict = check_first_variation(e, series_of(e))
        assert verdict.ok, verdict.to_text()


def test_first_variation_constant_is_flat():
    ps = series_of(SpherePoly.one(1))
    assert ps.webster.c1.is_zero()


def test_torsion_law_samples():
    # dA/dt = -(m/2 + 2) conj(E) on a pure mode-m coefficient
    cases = [(SpherePoly.one(1), 0), (z(1, 1), 1), (w(1, 1) * w(1, 2) ** 3, -4),
             (w(1, 2) ** 5, -5), (z(1, 1) * z(1, 2) ** 2, 3)]
    for e, m in cases:
        ps = series_of(e)
        verdict = check_torsion_variation(e, ps)
        assert verdict.ok, verdict.to_text()
        want = e.conjugate() * ExactScalar(-(Fraction(m, 2) + 2))
        assert ps.torsion.c1 == want


def test_connection_law_samples():
    for e in (SpherePoly.one(1), z(1, 1) * w(1, 2), w(1, 1) ** 3):
        verdict = check_connection_variation(e, series_of(e))
        assert verdict.ok, verdict.to_text()


def test_second_derivative_frozen_values():
    cases = [(SpherePoly.one(1), ExactScalar(4)),
             (w(1, 1) * w(1, 2) ** 3, ExactScalar.zero()),
             (w(1, 1) ** 5, ExactScalar(Fraction(-1, 6))),
             (SpherePoly.one(1) + w(1, 1) ** 5, ExactScalar(Fraction(23, 6)))]
    for e, want in cases:
        verdict, d2 = second_derivative_check(e, series_of(e),
                                              *hessian_routes(e))
        assert verdict.ok, verdict.to_text()
        assert d2 == want


def test_second_derivative_matches_mode_report():
    for e in (z(1, 1) * w(1, 2), w(1, 1) ** 4, z(1, 2) ** 3 * w(1, 1)):
        _, d2 = second_derivative_check(e, series_of(e), *hessian_routes(e))
        assert d2 == j_hessian(DeformationTensor.from_coefficient(e)).total
        assert d2 == mode_weighted_norm(e)


def test_series_coefficient_constant():
    # order-t^2 of int W is exactly C * mode sum with C = 1/2
    e = SpherePoly.one(1) + w(1, 2) ** 4 * z(1, 1)
    ps = series_of(e)
    assert ps.webster.c2.integral() == \
        mode_weighted_norm(e) * ExactScalar(SECOND_VARIATION_COEFF)


def test_gauge_invariance():
    phase = ExactScalar(Fraction(3, 5), Fraction(4, 5))
    for e in (SpherePoly.one(1), w(1, 1) ** 2 * z(1, 2)):
        base = series_of(e).webster
        turned = solve_structure(deform_frame(e, phase=phase)).webster
        assert base == turned


def test_path_completion_independence():
    e = w(1, 1) ** 3
    tweaks = (z(1, 1), w(1, 2) ** 2, z(1, 1) * w(1, 1))
    base = series_of(e).webster.c2.integral()
    for g in tweaks:
        moved = solve_structure(deform_frame(e, second_order_tweak=g))
        assert moved.webster.c2.integral() == base
        # the order-t slice cannot move either
        assert moved.webster.c1 == series_of(e).webster.c1


def test_criticality_small_pool():
    for e in (z(1, 1), w(1, 1) * w(1, 2), z(1, 1) * z(1, 2) * w(1, 1),
              w(1, 2) ** 3):
        ps = series_of(e)
        assert ps.webster.c1.integral().is_zero()


def test_webster_is_real():
    ps = series_of(z(1, 1) * w(1, 2) ** 2)
    assert ps.webster == ps.webster.conjugate()


def test_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        deform_frame(SpherePoly.one(2))


def test_rejects_non_unit_phase():
    with pytest.raises(ValueError):
        deform_frame(SpherePoly.one(1), phase=ExactScalar(2))


# -- the closed-form solve ---------------------------------------------------

# Frame variants: no change, a unit phase, a second-order tweak.
VARIANTS = pytest.mark.parametrize("kw", [
    {}, {"phase": ExactScalar(Fraction(3, 5), Fraction(4, 5))},
    {"second_order_tweak": z(1, 1) + w(1, 2) ** 2}],
    ids=["None", "phase1", "tweak2"])


@VARIANTS
def test_coframe_gram_and_determinant(kw):
    """D = |a|^2 - |b|^2 of theta^1(t) = a theta^1 + b theta^1bar, the
    determinant of every Cramer solve, is 1 as a whole series."""
    for name, e in monomial_pool(1, 3):
        _, a, b = deform_frame(e, **kw).theta1
        assert a * a.conjugate() - b * b.conjugate() == \
            TSeries2.constant(1, 1), name


@VARIANTS
def test_slot_frame_matches_ambient_route(kw):
    """The base coframe evaluated on Z_1(t), built from ambient
    coefficients, gives the slot triple of ``deform_frame``, on Z_1(t) and
    on its conjugate; the ambient Levi norm is the slot one, and 1."""
    for name, e in monomial_pool(1, 3):
        cf = deform_frame(e, **kw)
        x = ambient_frame.deformed_frame(
            e, kw.get("second_order_tweak"), kw.get("phase"))
        assert ambient_frame.eval_base(x) == cf.z1, name
        assert ambient_frame.eval_base(ambient_frame.conjugate(x)) == \
            frames.conjugate(cf.z1), name
        assert ambient_frame.levi_norm(x) == oracle3._levi_norm(cf.z1) == \
            TSeries2.constant(1, 1), name


def test_base_coframe_is_dual_to_frame():
    """(theta, theta^1, theta^1bar) paired with frames' n = 1 frame (T,
    Z_1, Zbar_1), Z_1 = Z_12, is the identity, both through ambient
    coordinates and through frames' slot pairing: the oracle's slot
    triples and its structure constants rest on it."""
    frame = (reeb(1), z_field(1, 1, 2), zbar_field(1, 1, 2))
    coframe = (contact_form(1), theta_form(1, 1, 2), thetabar_form(1, 1, 2))
    eye = [[SpherePoly.one(1) if i == j else SpherePoly.zero(1)
            for j in range(3)] for i in range(3)]
    assert [[form_eval(a, x) for x in frame] for a in coframe] == eye
    columns = [ambient_frame.eval_base(tuple(
        tuple(TSeries2(c) for c in part) for part in x.ambient()))
        for x in frame]
    assert [[col[i] for col in columns] for i in range(3)] == \
        [[TSeries2(c) for c in row] for row in eye]


def test_levi_renormalization_check_can_fail(monkeypatch):
    """A renormalizer m0 = (1 + |m1|^2)^{1/3} in place of the square root
    leaves the Levi norm D of Z_1(t) at 1 - t^2 |E|^2 / 3 + O(t^3), and
    deform_frame says so."""
    power = TSeries2.fractional_power
    monkeypatch.setattr(TSeries2, "fractional_power",
                        lambda self, exponent: power(self, Fraction(1, 3)))
    with pytest.raises(AssertionError, match="Levi norm D of Z_1"):
        deform_frame(z(1, 1) * w(1, 2))


def test_unit_determinant_check_can_fail(monkeypatch):
    """A non-unit phase that slips past the phase guard scales Z_1(t)
    after its renormalization; the one Levi-norm check catches it."""
    monkeypatch.setattr(ExactScalar, "abs2", lambda self: Fraction(1))
    with pytest.raises(AssertionError, match="Levi norm D of Z_1"):
        deform_frame(z(1, 1) * w(1, 2), phase=ExactScalar(2))


@VARIANTS
def test_coframe_is_dual_to_deformed_frame(kw):
    """theta^1(t)(Z_1(t)) = 1 and theta^1(t)(Zbar_1(t)) = 0, paired by
    frames' general slot pairing: deform_frame asserts only D = 1, which
    at n = 1 (Gram H = 1) is the first of these."""
    for name, e in monomial_pool(1, 3):
        cf = deform_frame(e, **kw)
        form, z1 = frames.FrameForm(1, cf.theta1), frames.FrameVector(1, cf.z1)
        assert form_eval(form, z1) == TSeries2.constant(1, 1), name
        assert form_eval(form, z1.conjugate()) == TSeries2.zero(1), name


def _low_orders(ps) -> list:
    """Coefficients 0-2 of W, A and every slot of the connection form."""
    return [x.coefficients()[:3]
            for x in (ps.webster, ps.torsion, *ps.omega)]


def _conformal_directions(n: int):
    """The real, zero-average directions Re p and Im p of the degree-2
    monomials p, as ``verify.conformal_checks`` makes them."""
    for _, p in monomial_pool(n, 2):
        for v in (p + p.conjugate(), (p - p.conjugate()) * ExactScalar(0, 1)):
            v = v - SpherePoly.constant(n, v.integral())
            if not v.is_zero():
                yield v


def test_series_are_generic_in_the_order(monkeypatch):
    """Only ``ring.ORDER`` states the truncation order.  At ORDER 3 and 4
    the oracle keeps coefficients 0-2 of W, A and w on the degree-4 pool,
    plain, with a phase and with a t^2 tweak, and on the Rossi spheres
    E = c it gives W = 1 + 2|c|^2 t^2 and A = -2t conj(c)(1 + |c|^2
    t^2)^{1/2} through t^4; the conformal energy series keeps c0-c2 at
    ORDER 3."""
    kws = [{}, {"phase": ExactScalar(Fraction(3, 5), Fraction(4, 5))},
           {"second_order_tweak": z(1, 1) + w(1, 2) ** 2}]
    pool = [e for _, e in monomial_pool(1, 4)]
    want = [[_low_orders(solve_structure(deform_frame(e, **kw)))
             for e in pool] for kw in kws]
    directions = [v for n in (1, 2) for v in _conformal_directions(n)]
    energies = [variation.yamabe_energy_series(v).coefficients()
                for v in directions]
    monkeypatch.setattr(ring, "ORDER", 3)
    assert [variation.yamabe_energy_series(v).coefficients()[:3]
            for v in directions] == energies
    for k in (3, 4):
        monkeypatch.setattr(ring, "ORDER", k)
        assert [[_low_orders(solve_structure(deform_frame(e, **kw)))
                 for e in pool] for kw in kws] == want, k
    const = functools.partial(SpherePoly.constant, 1)
    for c in (ExactScalar(1), ExactScalar(2, 1)):      # at ORDER 4
        ps = series_of(const(c))
        c2, cbar = c.abs2(), c.conjugate()
        assert ps.webster == TSeries2(const(1), None, const(2 * c2))
        assert ps.torsion == TSeries2(const(0), const(cbar * -2), None,
                                      const(cbar * -c2))


@pytest.mark.parametrize("c", [ExactScalar(2),
                               ExactScalar(Fraction(6, 5), Fraction(8, 5)),
                               ExactScalar(Fraction(1, 3))])
def test_solve_structure_rejects_non_unit_determinant(c):
    """solve_structure divides by no determinant, so a coframe scaled by c
    (determinant |c|^2) must fail its residual check."""
    for _, e in monomial_pool(1, 3):
        cf = deform_frame(e)
        scaled = replace(cf, theta1=tuple(x * c for x in cf.theta1))
        with pytest.raises(AssertionError,
                           match="structure-equation residual is nonzero"):
            solve_structure(scaled)


def test_solve_structure_takes_no_power(monkeypatch):
    """The deformed frame takes one series power, the square root of its
    renormalizer, and the solve takes none: the determinant is 1, so
    nothing is inverted."""
    calls = []
    power = TSeries2.fractional_power

    def counting(self, exponent):
        calls.append(exponent)
        return power(self, exponent)

    monkeypatch.setattr(TSeries2, "fractional_power", counting)
    cf = deform_frame(w(1, 1) ** 2 * z(1, 2) + SpherePoly.one(1))
    assert calls == [Fraction(1, 2)]
    solve_structure(cf)
    assert calls == [Fraction(1, 2)]


def test_rejects_coframe_with_theta_part():
    cf = deform_frame(z(1, 1))
    theta1 = (TSeries2(SpherePoly.zero(1), z(1, 1)),) + cf.theta1[T1:]
    with pytest.raises(AssertionError, match="no theta component"):
        solve_structure(replace(cf, theta1=theta1))


# -- exterior calculus and the residual checks -------------------------------

def test_exterior_derivative_squares_to_zero():
    """d(ds) = 0 for s = f + t conj(f) + t^2 f^2, with ds = (T s) theta +
    (Z_1 s) theta^1 + (Zbar_1 s) theta^1bar: the base structure constants
    pass d^2 = 0.  At n = 1 the frame is a basis, so slots decide."""
    for name, f in monomial_pool(1, 3):
        s = TSeries2(f, f.conjugate(), f * f)
        assert frames.d(frames.df(s)) == (TSeries2.zero(1),) * 3, name


@pytest.mark.parametrize("slot", [0, 1], ids=["d_theta", "d_theta12"])
def test_base_table_fault_fires_round_curvature_check(monkeypatch, slot):
    """Doubling d theta or d theta_12 in the n = 1 table of d of the base
    forms moves the round Webster curvature, and the solve says so."""
    table = frames._d_base(1)
    spoiled = tuple(tuple(c * 2 for c in dk) if k == slot else dk
                    for k, dk in enumerate(table))
    assert spoiled != table
    monkeypatch.setattr(frames, "_d_base", lambda n: spoiled)
    with pytest.raises(AssertionError,
                       match="round Webster curvature drifted"):
        series_of(z(1, 1) * w(1, 2))


@pytest.mark.parametrize("call, message", [
    (1, "structure-equation residual is nonzero")])
def test_residual_checks_can_fail(monkeypatch, call, message):
    """A wrong Cramer solution (t z_2 added to its first output) is caught
    by the residual check that follows the solve."""
    solve2 = oracle3._solve2
    calls = []

    def spoiled(*args):
        u0, u1 = solve2(*args)
        calls.append(args)
        if len(calls) == call:
            u0 = u0 + TSeries2(SpherePoly.zero(1), z(1, 2))
        return u0, u1

    monkeypatch.setattr(oracle3, "_solve2", spoiled)
    with pytest.raises(AssertionError, match=message):
        series_of(z(1, 1) * w(1, 2) + SpherePoly.one(1))
    assert len(calls) == call


def test_webster_is_read_off_d_omega(monkeypatch):
    """solve_structure runs its one Cramer solve, for (A, x); the Webster
    series is d w_(t1,t1b) / h, with no solve and no wedge of its own;
    ``frames.wedge`` is counted wherever a crsphere module binds it."""
    calls = {"_solve2": [], "wedge": []}
    owners = {"_solve2": [oracle3],
              "wedge": [m for key, m in sys.modules.items()
                        if key.startswith("crsphere.")
                        and getattr(m, "wedge", None) is frames.wedge]}
    for name, log in calls.items():
        original = getattr(owners[name][0], name)

        def counting(*args, log=log, original=original):
            log.append(args)
            return original(*args)

        for owner in owners[name]:
            monkeypatch.setattr(owner, name, counting)
    ps = series_of(z(1, 1) * w(1, 2) + SpherePoly.one(1))
    assert len(calls["_solve2"]) == 1
    for log in calls.values():
        log.clear()
    assert oracle3.webster_series(ps.omega) == ps.webster == \
        frames.d(ps.omega)[2] * Fraction(1, LEVI_CONSTANT)
    assert calls == {"_solve2": [], "wedge": []}


def test_verdict_keeps_both_sides_and_renders_them_in_its_text():
    e = z(1, 2) * w(1, 1)
    wrong = series_of(e * 2)
    v = check_torsion_variation(e, wrong)
    (label, want, got, ok), = v.comparisons
    assert not (v.ok or ok) and want != got
    assert v.to_text() == (f"torsion-variation[{e.to_grammar()}]: FAIL\n"
                           f"  dA/dt: expected {want.to_grammar()} "
                           f"actual {got.to_grammar()} [MISMATCH]")
    modes = mode_weighted_norm(e)
    v, _ = second_derivative_check(e, wrong, modes, modes)
    assert [c[1] for c in v.comparisons][:2] == [modes, modes]
    assert f"expected {modes.serialize()} actual" in v.to_text()
