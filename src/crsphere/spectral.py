"""Harmonic bidegree decomposition and the spectral sub-Laplacian.

Restrictions to S^{2n+1} of ambient harmonic polynomials of bidegree (p, q)
are eigenfunctions of the sub-Laplacian with eigenvalue

    lambda_{p,q,n} = p*q + n*(p+q)/2,

and every SpherePoly splits uniquely into such pieces.  The splitting is
computed by lifting each bihomogeneous part of the normal form to the
ambient space and peeling |z|^2-multiples against the ambient operator
box = sum_a d^2/dz_a dzbar_a.

The sub-Laplacian needs no splitting.  On a bidegree-(P, Q) part
A = sum_k |z|^{2k} H_k of the normal form (H_k harmonic, s = P + Q - 2k),
box(|z|^{2k} H_k) = k(n + s + k) |z|^{2k-2} H_k, so box - lambda_{P,Q,n}
sends each layer to -lambda_{P-k,Q-k,n} times itself on the sphere, where
|z|^2 = 1.  :func:`sublaplacian` applies it term by term, and
:func:`harmonic_decompose` runs only when components are asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ring import ExactScalar, SpherePoly, TermKey, add_term

__all__ = [
    "HarmonicDecomposition",
    "harmonic_decompose",
    "eigenvalue",
    "sublaplacian",
    "sublaplacian_energy",
    "dirichlet_energy",
    "GRADIENT_CALIBRATION",
]

# Calibration of the squared sub-gradient against the spectral table: the
# energy 2 * sum lambda ||f_pq||^2 - n(||f||^2 - (int f)^2) is nonnegative
# with null space exactly the constants plus linear functions, which pins
# the factor at 2.
GRADIENT_CALIBRATION = 2

Ambient = dict[TermKey, ExactScalar]


def _amb_box(p: Ambient) -> Ambient:
    """Ambient operator sum_a d/dz_a d/dzbar_a, exact power rule."""
    out: Ambient = {}
    for (a, b), c in p.items():
        for j in range(len(a)):
            if a[j] and b[j]:
                aj = a[:j] + (a[j] - 1,) + a[j + 1:]
                bj = b[:j] + (b[j] - 1,) + b[j + 1:]
                add_term(out, (aj, bj), c * (a[j] * b[j]))
    return out


def _amb_mul_r2(p: Ambient, n: int) -> Ambient:
    """Multiply by |z|^2 = sum_a z_a zbar_a in the ambient ring."""
    out: Ambient = {}
    for (a, b), c in p.items():
        for j in range(n + 1):
            aj = a[:j] + (a[j] + 1,) + a[j + 1:]
            bj = b[:j] + (b[j] + 1,) + b[j + 1:]
            add_term(out, (aj, bj), c)
    return out


def _peel_layers(p: Ambient, deg_p: int, deg_q: int, n: int) -> dict[int, Ambient]:
    """Write a bihomogeneous ambient polynomial as sum_k |z|^{2k} H_k.

    H_k is harmonic of bidegree (deg_p - k, deg_q - k).  Uses the exact
    identity box^k(|z|^{2k} H) = [prod_{j=1..k} j (n + s + j)] H for
    harmonic H of total degree s.
    """
    layers: dict[int, Ambient] = {}
    remaining = dict(p)
    for k in range(min(deg_p, deg_q), -1, -1):
        bk = dict(remaining)
        for _ in range(k):
            bk = _amb_box(bk)
        if not bk:
            continue
        s = (deg_p - k) + (deg_q - k)
        factor = 1
        for j in range(1, k + 1):
            factor *= j * (n + s + j)
        h = {t: c * Fraction(1, factor) for t, c in bk.items()} if k else bk
        layers[k] = h
        lifted = h
        for _ in range(k):
            lifted = _amb_mul_r2(lifted, n)
        for t, c in lifted.items():
            add_term(remaining, t, -c)
    if remaining:
        raise AssertionError("harmonic peeling left a residue")
    return layers


@dataclass(frozen=True)
class HarmonicDecomposition:
    """Bidegree components of a SpherePoly, with their ambient lifts.

    ``components[(p, q)]`` is the restriction (in normal form) of the
    harmonic ambient representative ``lifts[(p, q)]``.
    """

    n: int
    components: dict[tuple[int, int], SpherePoly]
    lifts: dict[tuple[int, int], Ambient]

    def reconstruct(self) -> SpherePoly:
        total = SpherePoly.zero(self.n)
        for comp in self.components.values():
            total = total + comp
        return total

    def bidegrees(self) -> list[tuple[int, int]]:
        return sorted(self.components)


def harmonic_decompose(f: SpherePoly) -> HarmonicDecomposition:
    """Split f into restrictions of ambient harmonic bihomogeneous pieces."""
    n = f.n
    by_bidegree: dict[tuple[int, int], Ambient] = {}
    for (a, b), c in f.terms.items():
        by_bidegree.setdefault((sum(a), sum(b)), {})[(a, b)] = c

    lifts: dict[tuple[int, int], Ambient] = {}
    for (p, q), amb in sorted(by_bidegree.items()):
        for k, h in _peel_layers(amb, p, q, n).items():
            key = (p - k, q - k)
            acc = lifts.setdefault(key, {})
            for term, c in h.items():
                add_term(acc, term, c)

    # a nonzero harmonic polynomial restricts to a nonzero function
    lifts = {key: amb for key, amb in lifts.items() if amb}
    components = {key: SpherePoly(n, amb) for key, amb in lifts.items()}
    return HarmonicDecomposition(n=n, components=components, lifts=lifts)


def eigenvalue(p: int, q: int, n: int) -> Fraction:
    """Sub-Laplacian eigenvalue on the (p, q) harmonic space."""
    return Fraction(p * q) + Fraction(n * (p + q), 2)


def sublaplacian(f: SpherePoly) -> SpherePoly:
    """Sub-Laplacian, term by term: box - lambda_{|a|,|b|,n} on c z^a zbar^b.

    box never touches z_1 zbar_1, which no normal-form term holds, so the
    result is already reduced.
    """
    out = _amb_box(f.terms)
    for (a, b), c in f.terms.items():
        add_term(out, (a, b), -c * eigenvalue(sum(a), sum(b), f.n))
    return SpherePoly(f.n, out, _normalized=True)


def sublaplacian_energy(f: SpherePoly) -> ExactScalar:
    """Quadratic form -int conj(f) * sublaplacian(f).

    By orthogonality of the harmonic components this is the spectral
    Dirichlet sum sum lambda_{p,q,n} ||f_pq||^2.
    """
    return -(f.conjugate() * sublaplacian(f)).integral()


def dirichlet_energy(f: SpherePoly) -> ExactScalar:
    """Squared sub-gradient integral of a real function.

    Returns GRADIENT_CALIBRATION * sum lambda_{p,q} ||f_pq||^2 in the
    probability measure; zero exactly when f is constant.
    """
    if not f.is_real():
        raise ValueError("dirichlet_energy requires a real-valued function")
    return ExactScalar(GRADIENT_CALIBRATION) * sublaplacian_energy(f)
