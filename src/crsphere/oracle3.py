"""Brute-force structure-equation verifier on S^3.

Given a polynomial deformation coefficient E, the holomorphic frame field
is deformed along the closed form Z_1(t) = m0 Z_1 + m1 Zbar_1 with
m1 = -i t E and m0 = (1 + |m1|^2)^{1/2}; nothing is solved for.  Its Levi
norm |m0|^2 - |m1|^2 is 1 by construction, at every order, and that one
series, asserted to be 1 as a whole, is also the determinant of the
duality system.  So the dual coframe needs no division, and neither do
the Cramer solves over the truncated series ring that give the
connection form w(t) and torsion A(t) from the Cartan structure equation

    d theta^1(t) = theta^1(t) ^ w(t) + A(t) theta ^ theta^1bar(t)

with the reality constraint w + conj(w) = 0.  Everything is an exact
series truncated after t^``ring.ORDER`` (``ring.TSeries2``), so every
claimed variation identity is checked as exact polynomial equality.  Each
bilinear formula (the Levi norm, the Cramer solves, z and the
structure-equation residual) sums all its products before one reduction
(``ring.sum_of_products``).

Fixed base structure, over ``frames``' n = 1 frame (T, Z_1, Zbar_1) with
Z_1 = Z_12 and its dual coframe (theta, theta^1, theta^1bar):

    Z_1 = zbar_1 d_2 - zbar_2 d_1          theta^1 = z_1 dz_2 - z_2 dz_1
    d theta   = 2i theta^1 ^ theta^1bar    (Levi constant h = 2)
    d theta^1 = i theta ^ theta^1
    w(0) = -i theta,  A(0) = 0,  W(0) = 1

The Webster scalar W(t) is the theta^1(t) ^ theta^1bar(t) coefficient
of the curvature form d w(t) contracted with 1/h.  That wedge is D times
the base theta^1 ^ theta^1bar, so with D = 1, the one assertion it rests
on, W is read straight off d w(t) over the base wedge; nothing is solved
for it.  Series vectors and 1-forms are ``frames`` slot triples,
indexed by TH, T1 and T1B, and d, conjugation and pairing are
``frames``' own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import ne

from .ring import ExactScalar, SpherePoly, TSeries2, sum_of_products
from .frames import (_d_wedge, conjugate, d, field_apply, reeb, z_field,
                     zbar_field)
from .variation import DeformationTensor, j_hessian

__all__ = [
    "DeformedCoframe",
    "PseudohermitianSeries",
    "OracleVerdict",
    "render",
    "deform_frame",
    "solve_structure",
    "webster_series",
    "check_first_variation",
    "check_torsion_variation",
    "check_connection_variation",
    "second_derivative_check",
    "FRAME_WEBSTER_CONSTANT",
    "SECOND_VARIATION_COEFF",
    "LEVI_CONSTANT",
]

# Levi constant of the global frame: d theta = i * h * theta^1 ^ theta^1bar.
LEVI_CONSTANT = 2

# Round-sphere Webster curvature produced by the frame computation (n = 1).
FRAME_WEBSTER_CONSTANT = Fraction(1)

# Order-t^2 coefficient of int W(t) equals this constant times
# sum_m (m + 4) ||E^(m)||^2; fixed once by the constant deformation.
SECOND_VARIATION_COEFF = Fraction(1, 2)

_N = 1

# Slots of a series 1-form and of the dual frame (T, Z_1, Zbar_1).
TH, T1, T1B = 0, 1, 2

_T, _Z1, _ZB1 = reeb(_N), z_field(_N, 1, 2), zbar_field(_N, 1, 2)

# The series 0 and 1 (series are immutable, so these are shared).
_S_ZERO = TSeries2.zero(_N)
_S_ONE = TSeries2.constant(_N, 1)


def _levi_norm(x) -> TSeries2:
    """|x^1|^2 - |x^1bar|^2 of a slot triple, in one fused sum.

    For a contact vector this is its Levi norm; for a 1-form a theta^1 +
    b theta^1bar it is the determinant |a|^2 - |b|^2 of the Cramer solves.
    """
    return sum_of_products(_N, ((x[T1], x[T1].conjugate(), 1),
                                (x[T1B], x[T1B].conjugate(), -1)))


# -- the deformation ---------------------------------------------------------

@dataclass(frozen=True)
class DeformedCoframe:
    """Deformed frame/coframe pair on S^3, exact through t^ORDER.

    ``z1`` is Z_1(t) and ``theta1`` is theta^1(t), both as slot triples
    over the base frame and coframe, with Levi norm 1 by construction.
    """

    z1: tuple[TSeries2, TSeries2, TSeries2]
    theta1: tuple[TSeries2, TSeries2, TSeries2]


def deform_frame(e: SpherePoly, second_order_tweak: SpherePoly | None = None,
                 phase: ExactScalar | None = None) -> DeformedCoframe:
    """Deform the frame along E and state the dual coframe.

    Over the base frame Z_1(t) has slots (0, m0, m1) with m1 = -i(t E +
    t^2 G), G an optional second-order tweak that changes the path but not
    its first-order data, and m0 = (1 + |m1|^2)^{1/2}, the real
    renormalizer, with t^2 coefficient |E|^2 / 2; an optional unit phase
    u multiplies the frame.  The base coframe's Gram on (Z_1(t),
    Zbar_1(t)) is [[m0, m1], [conj m1, conj m0]], and its determinant, the
    Levi norm D = |m0|^2 - |m1|^2, is 1 by construction.  So the dual form
    is theta^1(t) = conj(m0) theta^1 - conj(m1) theta^1bar, and
    D = theta^1(t)(Z_1(t)) is the one series asserted to be 1.
    """
    if e.n != _N:
        raise ValueError("the structure-equation verifier runs on S^3")
    zero = SpherePoly.zero(_N)
    quad = (zero if second_order_tweak is None
            else second_order_tweak * ExactScalar(0, -1))
    m1 = TSeries2(zero, e * ExactScalar(0, -1), quad)
    m0 = (_S_ONE + m1 * m1.conjugate()).fractional_power(Fraction(1, 2))
    z1t = (_S_ZERO, m0, m1)
    if phase is not None:
        if phase.abs2() != 1:
            raise ValueError("frame phase must be a unit scalar")
        z1t = tuple(x * phase for x in z1t)
    if _levi_norm(z1t) != _S_ONE:
        raise AssertionError("Levi norm D of Z_1(t) must be 1")
    theta1 = (_S_ZERO, z1t[T1].conjugate(), -z1t[T1B].conjugate())
    return DeformedCoframe(z1=z1t, theta1=theta1)


# -- structure equation -------------------------------------------------------

@dataclass(frozen=True)
class PseudohermitianSeries:
    """Connection form, torsion coefficient and Webster curvature series."""

    omega: tuple[TSeries2, TSeries2, TSeries2]
    torsion: TSeries2
    webster: TSeries2


def _solve2(m00, m01, m10, m11, r0, r1):
    """Cramer's rule for [[m00, m01], [m10, m11]] (u0, u1) = (r0, r1) with
    determinant 1, one fused sum per unknown."""
    return (sum_of_products(_N, ((m11, r0, 1), (m01, r1, -1))),
            sum_of_products(_N, ((m00, r1, 1), (m10, r0, -1))))


def solve_structure(cf: DeformedCoframe) -> PseudohermitianSeries:
    """Unique (w(t), A(t)) for the deformed coframe, by Cramer's rule.

    With theta^1(t) = a theta^1 + b theta^1bar and w = x theta + y theta^1
    + z theta^1bar, the reality constraint gives y = -conj(z), and the
    structure equation over the base wedges reads

        -a x + conj(b) A = L_(th,t1),   -b x + conj(a) A = L_(th,t1b),
        a z + b conj(z) = L_(t1,t1b),

    with L = d theta^1(t).  Both systems have determinant
    D = |a|^2 - |b|^2, which the Levi renormalization in ``deform_frame``
    makes 1, so nothing is divided.  The theta component must come out
    imaginary and the full residual must vanish, both asserted; a coframe
    with D != 1 fails the residual.
    """
    theta1 = cf.theta1
    if theta1[TH] != _S_ZERO:
        raise AssertionError("deformed coframe must have no theta component")
    _, a, b = theta1
    _, bbar, abar = conjugate(theta1)
    lhs = d(theta1)
    torsion, x = _solve2(bbar, -a, abar, -b, lhs[0], lhs[1])
    if x.conjugate() != -x:
        raise AssertionError("theta component of the connection form "
                             "must be imaginary")
    l3 = lhs[2]
    z = sum_of_products(_N, ((abar, l3, 1), (b, l3.conjugate(), -1)))
    omega = (x, -z.conjugate(), z)

    # theta^1(t) ^ w + A theta ^ theta^1bar(t), one fused sum per wedge;
    # theta ^ theta^1bar(t) is (bbar, abar, 0) over the base wedges
    pairs = itertools.combinations(range(3), 2)
    rhs = (sum_of_products(_N, ((theta1[i], omega[j], 1),
                                (theta1[j], omega[i], -1),
                                (torsion, v, 1)))
           for (i, j), v in zip(pairs, (bbar, abar, _S_ZERO)))
    if any(map(ne, lhs, rhs)):
        raise AssertionError("structure-equation residual is nonzero")
    if not torsion.c0.is_zero():
        raise AssertionError("round sphere must be torsion-free")
    return PseudohermitianSeries(omega=omega, torsion=torsion,
                                 webster=webster_series(omega))


def webster_series(omega: tuple[TSeries2, TSeries2, TSeries2]) -> TSeries2:
    """Webster curvature, read off the curvature form of the connection.

    The single connection form wedges to zero against itself, so the
    curvature form is d w(t), and W is its theta^1(t) ^ theta^1bar(t)
    coefficient contracted with 1/h.  Over the base wedges theta^1(t) ^
    theta^1bar(t) = D theta^1 ^ theta^1bar, so W = d w_(t1,t1b) / (h D),
    and D = 1 is asserted as a whole series by ``deform_frame``.  Only
    that one wedge of d w(t) is formed.
    """
    w = _d_wedge(omega, T1, T1B) * Fraction(1, LEVI_CONSTANT)
    if w != w.conjugate():
        raise AssertionError("Webster curvature must be real")
    if w.c0 != SpherePoly.constant(_N, ExactScalar(FRAME_WEBSTER_CONSTANT)):
        raise AssertionError("round Webster curvature drifted")
    return w


# -- verdicts ------------------------------------------------------------------

def render(x) -> str:
    """A checked value as report text: a polynomial in the term grammar,
    anything else (an exact scalar serializes) as ``str``."""
    return x.to_grammar() if isinstance(x, SpherePoly) else str(x)


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one exact identity check, with both sides recorded.

    Each comparison keeps its two sides as values; they are rendered
    (:func:`render`) only when the verdict's text is read.
    """

    name: str
    ok: bool
    comparisons: tuple[tuple[str, object, object, bool], ...]

    def to_text(self) -> str:
        lines = [f"{self.name}: {'PASS' if self.ok else 'FAIL'}"]
        for label, want, got, ok in self.comparisons:
            mark = "ok" if ok else "MISMATCH"
            lines.append(f"  {label}: expected {render(want)} "
                         f"actual {render(got)} [{mark}]")
        return "\n".join(lines)


def _verdict(name: str, pairs) -> OracleVerdict:
    comps = tuple((label, want, got, want == got) for label, want, got in pairs)
    return OracleVerdict(name=name, ok=all(c[3] for c in comps),
                         comparisons=comps)


def check_first_variation(e: SpherePoly,
                          ps: PseudohermitianSeries) -> OracleVerdict:
    """Order-t Webster slice of ps = solve_structure(deform_frame(e))
    against the covariant closed form.

    Pointwise the slice must equal (i/2)(Zbar_1^2 E - Z_1^2 conj(E)); the
    1/2 is the inverse Levi constant of the frame.  Its integral vanishes
    for every E: the round structure is critical.
    """
    ebar = e.conjugate()
    closed = (field_apply(_ZB1, field_apply(_ZB1, e))
              - field_apply(_Z1, field_apply(_Z1, ebar))) \
        * ExactScalar(0, Fraction(1, 2))
    return _verdict(
        f"first-variation[{e.to_grammar()}]",
        [("pointwise dW/dt", closed, ps.webster.c1),
         ("criticality int dW/dt", ExactScalar.zero(),
          ps.webster.c1.integral())])


def check_torsion_variation(e: SpherePoly,
                            ps: PseudohermitianSeries) -> OracleVerdict:
    """Order-t torsion of ps = solve_structure(deform_frame(e)) against
    -i (T - 2i) conj(E).

    The closed form is the transverse covariant derivative of the
    conjugate tensor component (frame weight -2i), scaled by -i.
    """
    ebar = e.conjugate()
    closed = (field_apply(_T, ebar) - ebar * ExactScalar(0, 2)) \
        * ExactScalar(0, -1)
    return _verdict(
        f"torsion-variation[{e.to_grammar()}]",
        [("dA/dt", closed, ps.torsion.c1)])


def check_connection_variation(e: SpherePoly,
                               ps: PseudohermitianSeries) -> OracleVerdict:
    """Order-t connection form of ps = solve_structure(deform_frame(e))
    against its covariant closed form.

    With zero base torsion the slice is
    -i (Zbar_1 E) theta^1 - i (Z_1 conj(E)) theta^1bar, with no theta part.
    """
    ebar = e.conjugate()
    want_t1 = field_apply(_ZB1, e) * ExactScalar(0, -1)
    want_t1b = field_apply(_Z1, ebar) * ExactScalar(0, -1)
    return _verdict(
        f"connection-variation[{e.to_grammar()}]",
        [("theta component", SpherePoly.zero(_N), ps.omega[TH].c1),
         ("theta^1 component", want_t1, ps.omega[T1].c1),
         ("theta^1bar component", want_t1b, ps.omega[T1B].c1)])


def mode_weighted_norm(e: SpherePoly) -> ExactScalar:
    """sum_m (m + 4) ||E^(m)||^2: the mode-diagonal Hessian at n = 1."""
    return j_hessian(DeformationTensor.from_coefficient(e)).total


def second_derivative_check(
        e: SpherePoly, ps: PseudohermitianSeries, modes: ExactScalar,
        via_t: ExactScalar) -> tuple[OracleVerdict, ExactScalar]:
    """Second derivative of the total Webster curvature, three ways.

    Compares d^2/dt^2 of int W(t) from ps = solve_structure(deform_frame(e))
    against the caller's two Hessian routes for the same E: ``modes``,
    the mode-weighted norm sum (m+4)||E^(m)||^2 (``j_hessian(...).total``),
    and ``via_t``, the transverse covariant-derivative closed form
    (``j_hessian_via_T``).  The order-t^2 coefficient carries the uniform
    constant 1/2.
    """
    coeff = ps.webster.c2.integral()
    d2 = coeff * 2
    coeff_target = modes * ExactScalar(SECOND_VARIATION_COEFF)
    verdict = _verdict(f"second-variation[{e.to_grammar()}]", [
        ("mode-formula", modes, d2),
        ("covariant-route", via_t, d2),
        ("series-coefficient", coeff_target, coeff),
    ])
    return verdict, d2
