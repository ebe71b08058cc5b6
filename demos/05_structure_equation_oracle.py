"""Deform the sphere's CR structure and watch the curvature respond.

The verifier deforms the frame along a polynomial E, solves the Cartan
structure equation by Cramer's rule over series in the deformation
parameter, and extracts connection, torsion and Webster curvature as
exact series.  No variation formula is assumed: each one is recovered
from the solver and matched against its closed form.
"""

from fractions import Fraction

from crsphere import ExactScalar, SpherePoly
from crsphere.oracle3 import (check_first_variation, check_torsion_variation,
                              deform_frame, second_derivative_check,
                              solve_structure)
from crsphere.variation import DeformationTensor, j_hessian, j_hessian_via_T

z1, z2 = SpherePoly.z(1, 1), SpherePoly.z(1, 2)
w1, w2 = SpherePoly.w(1, 1), SpherePoly.w(1, 2)


def second_derivative(e):
    """The oracle's d^2/dt^2 checked against both Hessian routes."""
    d = DeformationTensor.from_coefficient(e)
    return second_derivative_check(e, solve_structure(deform_frame(e)),
                                   j_hessian(d).total, j_hessian_via_T(d))


def show_series(label, s):
    print(f"   {label}: {s.c0.to_grammar()}  +  t ({s.c1.to_grammar()})"
          f"  +  t^2 ({s.c2.to_grammar()})")


print("Round base point (E = 0):")
ps = solve_structure(deform_frame(SpherePoly.zero(1)))
show_series("W(t)", ps.webster)
show_series("A(t)", ps.torsion)

print("\nConstant deformation E = 1:")
ps = solve_structure(deform_frame(SpherePoly.one(1)))
show_series("W(t)", ps.webster)
show_series("A(t)", ps.torsion)
print("   d^2/dt^2 of the total curvature:",
      (ps.webster.c2.integral() * 2).serialize())

print("\nA mode -4 deformation is exactly neutral:")
e = w1 * w2 ** 3
verdict, d2 = second_derivative(e)
print("   E = w1 w2^3: second derivative =", d2.serialize(),
      "| all routes agree:", verdict.ok)

print("\nA lower mode turns the functional downward:")
e = w1 ** 5
verdict, d2 = second_derivative(e)
print("   E = w1^5: second derivative =", d2.serialize(),
      "| all routes agree:", verdict.ok)

print("\nCriticality and the first-variation laws on a sample direction:")
e = z1 * w2 ** 2
ps = solve_structure(deform_frame(e))
fv = check_first_variation(e, ps)
tv = check_torsion_variation(e, ps)
print("   pointwise curvature slice + vanishing integral:", fv.ok)
print("   torsion slice matches -i (T - 2i) conj(E):    ", tv.ok)

print("\nGauge and path robustness (the second variation only sees")
print("first-order data):")
phase = ExactScalar(Fraction(3, 5), Fraction(4, 5))
e = w1 ** 3
base = solve_structure(deform_frame(e)).webster
turned = solve_structure(deform_frame(e, phase=phase)).webster
moved = solve_structure(deform_frame(e, second_order_tweak=z1)).webster
print("   unit phase leaves W(t) unchanged:         ", base == turned)
print("   order-t^2 path tweak leaves d^2 unchanged:",
      moved.c2.integral() == base.c2.integral())
