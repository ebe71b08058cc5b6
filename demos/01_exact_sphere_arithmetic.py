"""A tour of exact polynomial arithmetic on the 3-sphere.

Functions on S^3 are polynomials in z_1, z_2 and their conjugates, kept in
a canonical normal form modulo |z_1|^2 + |z_2|^2 = 1.  Coefficients are
Gaussian rationals, so every equality below is exact, never approximate.
"""

from crsphere import SpherePoly, parse_poly, volume_factor

z1, z2 = SpherePoly.z(1, 1), SpherePoly.z(1, 2)
w1, w2 = SpherePoly.w(1, 1), SpherePoly.w(1, 2)   # w_k denotes conj(z_k)

print("The defining relation collapses to 1:")
print("   |z1|^2 + |z2|^2  ->", (z1 * w1 + z2 * w2).to_grammar())

print("\nA single division step against the relation:")
print("   |z1|^2           ->", (z1 * w1).to_grammar())

print("\nEquality of functions on the sphere is decidable:")
lhs = (z1 * w1) ** 2 + (z2 * w2) ** 2
rhs = SpherePoly.one(1) - 2 * z1 * w1 * z2 * w2
print("   (|z1|^4 + |z2|^4) == 1 - 2|z1 z2|^2 :", lhs == rhs)

print("\nExact moments in the rotation-invariant probability measure:")
for p, label in [(z1 * w1, "|z1|^2"), ((z1 * w1) ** 2, "|z1|^4"),
                 ((z1 * w1) ** 5, "|z1|^10"), (z1 * w2, "z1 conj(z2)")]:
    print(f"   int {label:12s} = {p.integral().serialize()}")

print("\nThe circle action z -> e^{it} z grades monomials by m = |a| - |b|:")
p = z1 ** 2 * w2 + w1 ** 5 + z1 * w2
for m in p.modes():
    print(f"   weight {m:+d} part: {p.fourier_project(m).to_grammar()}")

print("\nEverything round-trips through the term grammar:")
text = "(1/2,0/1) z1^2 w2 (0/1,-1/1) z2"
q = parse_poly(text, 1)
print("   parsed  :", text)
print("   rendered:", q.to_grammar())
print("   equal   :", parse_poly(q.to_grammar(), 1) == q)

print("\nIntegrals are reported in the probability measure; the")
print("pseudohermitian volume stays a symbolic factor:", volume_factor(1))
