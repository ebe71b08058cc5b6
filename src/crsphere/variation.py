"""Deformations of the CR structure and both Hessians of the normalized
total Webster curvature at the round sphere.

Two families of directions are analyzed:

* conformal directions (contact form rescaled by (1 + t v)^{4/(Q-2)} with
  the structure fixed), where the second variation is diagonal over the
  harmonic bidegree spaces and vanishes exactly on the ambient-linear
  functions; and
* structure directions, encoded by a deformation tensor E, stored at
  every n as one TensorField with canonical coefficients, where the
  second variation diagonalizes over circle-action modes m with weight
  (m + 4) and couples to embeddability of the perturbed structure: on S^3
  every nonzero mode below -3 must vanish for the perturbation to remain
  embeddable, and those are exactly the directions whose weights are
  negative or zero.

All functional values are reported in the rotation-invariant probability
measure; the symbolic volume factor relating them to the pseudohermitian
volume normalization is 2 pi per homogeneous-dimension unit and is
carried by the conventions ledger, never as a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ring import (ExactScalar, SpherePoly, TSeries2, inner, mode_norms,
                   norm2)
from .spectral import sublaplacian, sublaplacian_energy
from .frames import TensorField, covariant_T, index_pairs, tight_expand

__all__ = [
    "DeformationTensor",
    "HessianReport",
    "validate_symmetry",
    "obstructing_modes",
    "is_embeddable",
    "j_hessian",
    "j_hessian_via_T",
    "conformal_hessian",
    "yamabe_energy_series",
    "round_webster_curvature",
    "conformal_exponent",
    "EMBEDDABILITY_MODE_CUTOFF",
]

# Nonzero modes at or below this cutoff obstruct embeddability on S^3.
EMBEDDABILITY_MODE_CUTOFF = -4


def round_webster_curvature(n: int) -> Fraction:
    """Webster scalar curvature of the round S^{2n+1} in these conventions.

    Equals n(n+1)/2; derived independently by the S^3 structure-equation
    solver and pinned for general n by the requirement that the second
    conformal variation vanish on ambient-linear functions.
    """
    return Fraction(n * (n + 1), 2)


def conformal_exponent(n: int) -> Fraction:
    """The constant b_n = 2 + 2/n of the conformal sub-Laplacian."""
    return 2 + Fraction(2, n)


# A frame-field pair (Z_jk, Z_lm) whose lowered form is not symmetric:
# ((j, k), (l, m), B(Z_jk, Z_lm), B(Z_lm, Z_jk)).
Asymmetry = tuple[tuple[int, int], tuple[int, int], SpherePoly, SpherePoly]


def validate_symmetry(t: TensorField) -> tuple[Asymmetry, ...]:
    """Scan the lowered bilinear form on all pairs of frame fields.

    The form B(X, Y) = sum c theta_jk(X) theta_lm(Y) must satisfy
    B(X, Y) = B(Y, X) for every pair of frame fields.  ``t`` must be
    :func:`tight_expand` output, as ``DeformationTensor.tensor`` always
    is: canonical coefficients satisfy c = conj(H) c H for the Hermitian,
    idempotent frame Gram H, so B(Z_a, Z_b) is exactly c_ab.  Returns
    every pair that fails, with both sides, in frame-pair order; the form
    is symmetric exactly when none does.  Vacuous on S^3 (a single index).
    """
    pairs = index_pairs(t.n)
    zero = SpherePoly.zero(t.n)
    bad = []
    for i, a in enumerate(pairs):
        for b in pairs[i + 1:]:
            lhs = t.coeffs.get((a, b), zero)
            rhs = t.coeffs.get((b, a), zero)
            if lhs != rhs:
                bad.append((a, b, lhs, rhs))
    return tuple(bad)


# The one frame pair on S^3: a deformation there is c Zbar_12 (x) theta_12.
_S3_KEY = ((1, 2), (1, 2))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class DeformationTensor:
    """Infinitesimal deformation of the complex rotation on S^{2n+1}.

    Stored at every n as one TensorField with canonical coefficients
    (:func:`tight_expand` output).  On S^3 the frame Gram is 1, so the one
    coefficient at ((1, 2), (1, 2)) is already canonical; ``coefficient``
    reads it there and is None at n >= 2.  Frozen; ``asymmetries`` holds
    the lowered-form scan, made once when the tensor is built.
    """

    tensor: TensorField
    asymmetries: tuple[Asymmetry, ...]

    @staticmethod
    def from_coefficient(e: SpherePoly) -> "DeformationTensor":
        if e.n != 1:
            raise ValueError("scalar deformation coefficients live on S^3")
        return DeformationTensor(TensorField(1, {_S3_KEY: e}), ())

    @staticmethod
    def from_tensor(t: TensorField) -> "DeformationTensor":
        canonical = tight_expand(t)
        return DeformationTensor(canonical, validate_symmetry(canonical))

    @property
    def n(self) -> int:
        return self.tensor.n

    @property
    def coefficient(self) -> SpherePoly | None:
        """The one coefficient on S^3, zero included; None at n >= 2."""
        if self.n != 1:
            return None
        c = self.tensor.coeffs.get(_S3_KEY)
        return SpherePoly.zero(1) if c is None else c

    def coefficients(self) -> dict:
        """Map from ((j,k),(l,m)) to SpherePoly: the canonical nonzero
        coefficients, and on S^3 always the one coefficient."""
        if self.n == 1:
            return {_S3_KEY: self.coefficient}
        return dict(self.tensor.coeffs)

    def is_zero(self) -> bool:
        return self.tensor.is_zero()

    def coefficient_modes(self) -> list[int]:
        ms: set[int] = set()
        for c in self.tensor.coeffs.values():
            ms.update(c.modes())
        return sorted(ms)

    def admissible(self) -> bool:
        """No negative circle modes (meaningful for n > 1 deformations)."""
        return all(m >= 0 for m in self.coefficient_modes())

    def __eq__(self, other):
        if not isinstance(other, DeformationTensor):
            return NotImplemented
        return self.n == other.n and self.tensor.coeffs == other.tensor.coeffs

    def __repr__(self):
        body = "; ".join(f"{k}: {c.to_grammar()}"
                         for k, c in sorted(self.coefficients().items()))
        return f"DeformationTensor(n={self.n}, {body})"


def obstructing_modes(e: DeformationTensor) -> list[int]:
    """The circle modes of a deformation on S^3 that obstruct embeddability.

    These are the modes m <= -4 of its nonzero Fourier components, in
    increasing order.  In dimension five and higher perturbed structures
    are always embeddable, so the classifier refuses to run there.
    """
    if e.n != 1:
        raise ValueError("mode classifier applies to S^3 only; higher "
                         "dimensions are always embeddable")
    return [m for m in e.coefficient_modes()
            if m <= EMBEDDABILITY_MODE_CUTOFF]


def is_embeddable(e: DeformationTensor) -> bool:
    """Embeddability of the infinitesimally perturbed structure on S^3:
    true exactly when no mode obstructs (:func:`obstructing_modes`)."""
    return not obstructing_modes(e)


@dataclass(frozen=True)
class HessianReport:
    """Per-mode second-variation contributions of a deformation tensor:
    rows (m, ||E^(m)||^2, (m+4) ||E^(m)||^2) and their total times n.
    The dimension is the deformation's ``n``, and embeddability is
    :func:`is_embeddable`'s verdict on the deformation."""

    modes: tuple[tuple[int, ExactScalar, ExactScalar], ...]
    total: ExactScalar

    def norm2(self) -> ExactScalar:
        acc = ExactScalar.zero()
        for _, nrm, _ in self.modes:
            acc = acc + nrm
        return acc


def j_hessian(e: DeformationTensor) -> HessianReport:
    """Mode-diagonal second variation: total = n sum_m (m+4) ||E^(m)||^2,
    the mode norms of all of E's coefficients from one ``mode_norms``."""
    if e.asymmetries:
        raise ValueError("deformation tensor has asymmetric lowered form")
    rows = []
    total = ExactScalar.zero()
    for m, nrm in sorted(mode_norms(*e.tensor.coeffs.values()).items()):
        if nrm.is_zero():
            continue
        weighted = nrm * (m + 4)
        rows.append((m, nrm, weighted))
        total = total + weighted
    return HessianReport(modes=tuple(rows), total=total * e.n)


def j_hessian_via_T(e: DeformationTensor) -> ExactScalar:
    """Second variation through the transverse covariant derivative.

    Computes -i n int <nabla_T E, E> + conj with the genuine derivation
    (no mode splitting), nabla_T E from ``covariant_T``; a coefficient it
    drops as zero pairs to 0.  Must equal j_hessian(e).total for every
    input.
    """
    if e.asymmetries:
        raise ValueError("deformation tensor has asymmetric lowered form")
    coeffs = e.tensor.coeffs
    acc = ExactScalar.zero()
    for k, dc in covariant_T(e.tensor).coeffs.items():
        acc = acc + inner(dc, coeffs[k])
    half = ExactScalar(0, -e.n) * acc
    return half + half.conjugate()


# ---------------------------------------------------------------------------
# Conformal direction
# ---------------------------------------------------------------------------

def yamabe_energy_series(v: SpherePoly) -> TSeries2:
    """Normalized conformal energy along 1 + t v, through t^ring.ORDER.

    Expands int u(-b_n Lap_b u + W0 u) divided by
    (int u^{2Q/(Q-2)})^{(Q-2)/Q} with exact binomial truncation of the
    fractional powers; all integrals in the probability measure.  The
    order-0 coefficient is the round value W0 (times the symbolic volume
    factor carried separately).
    """
    if not v.is_real():
        raise ValueError("conformal directions must be real-valued")
    n = v.n
    q_hom = 2 * n + 2
    b_n = conformal_exponent(n)
    w0 = round_webster_curvature(n)

    u = TSeries2(SpherePoly.one(n), v)
    lap_u = TSeries2(SpherePoly.zero(n), sublaplacian(v))
    integrand = u * (lap_u * ExactScalar(-b_n) + u * ExactScalar(w0))
    volume = u.fractional_power(Fraction(2 * q_hom, q_hom - 2))
    numerator, denominator = (
        TSeries2(*(SpherePoly.constant(n, c) for c in x.integral()))
        for x in (integrand, volume))
    dpow = denominator.fractional_power(Fraction(-(q_hom - 2), q_hom))
    return numerator * dpow


def conformal_hessian(v: SpherePoly) -> ExactScalar:
    """Second variation in the conformal direction v (real, zero average).

    Spectral route, independent of the series expansion:

        2 * [ b_n * sum lambda_{p,q} ||v_pq||^2
              - (4/(Q-2)) * W0 * ||v||^2 ]

    Nonnegative, and zero exactly when v is spanned by Re z_j, Im z_j.
    """
    if not v.is_real():
        raise ValueError("conformal directions must be real-valued")
    if not v.integral().is_zero():
        raise ValueError("conformal Hessian requires zero average")
    n = v.n
    b_n = conformal_exponent(n)
    w0 = round_webster_curvature(n)
    coupling = Fraction(4, 2 * n) * w0      # (4/(Q-2)) * W0 = n + 1
    val = (ExactScalar(b_n) * sublaplacian_energy(v)
           - ExactScalar(coupling) * norm2(v))
    return val * 2
