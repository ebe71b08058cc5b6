"""Harmonic bidegree decomposition and the spectral sub-Laplacian.

Restrictions to S^{2n+1} of ambient harmonic polynomials of bidegree (p, q)
are eigenfunctions of the sub-Laplacian with eigenvalue

    lambda_{p,q,n} = p*q + n*(p+q)/2,

and every SpherePoly splits uniquely into such pieces.  A bidegree-(P, Q)
part of the normal form is A = sum_k |z|^{2k} H_k, H_k harmonic of degree
s = P + Q - 2k, and the ambient operator box = sum_a d^2/dz_a dzbar_a acts
on each layer by box(|z|^{2k} H_k) = k(n + s + k) |z|^{2k-2} H_k.  Both
operations below rest on that identity, with |z|^2 = 1 on the sphere.

* :func:`harmonic_decompose` solves the restricted layers from the box
  powers of A by a triangular system inverted once per (P, Q, n).  box
  never creates z_1 zbar_1, so the powers stay in normal form: no |z|^2
  multiple is formed and no reduction runs.
* :func:`sublaplacian` needs no splitting: box - lambda_{P,Q,n} sends each
  layer to -lambda_{P-k,Q-k,n} times itself, so it acts term by term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .ring import ExactScalar, SpherePoly, Terms, accumulate, inner

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

# Ambient polynomials are Gaussian-integer numerator maps, as SpherePoly.nums;
# each caller tracks its denominator.
Ambient = Terms


def _amb_box(p: Ambient) -> Ambient:
    """Ambient operator sum_a d/dz_a d/dzbar_a, exact power rule."""
    out: Ambient = {}
    accumulate(out, (((a[:j] + (a[j] - 1,) + a[j + 1:],
                       b[:j] + (b[j] - 1,) + b[j + 1:]),
                      (re * a[j] * b[j], im * a[j] * b[j]))
                     for (a, b), (re, im) in p.items()
                     for j in range(len(a)) if a[j] and b[j]))
    return out


def _box_factor(k: int, s: int, n: int) -> int:
    """box(|z|^{2k} H) / |z|^{2k-2} H for H harmonic of degree s."""
    return k * (n + s + k)


@functools.cache
def _layer_rows(deg_p: int, deg_q: int,
                n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Layers of a bidegree-(deg_p, deg_q) part A from its box powers.

    With h_k the restriction of H_k, B_j = box^j A = sum_{k>=j} c(k, j) h_k
    on the sphere, c(k, j) = box^j(|z|^{2k} H_k) / |z|^{2k-2j} H_k.  Entry
    (k, d, row), for k from min(deg_p, deg_q) down to 0, inverts this
    upper triangular system: h_k = sum_i row[i] B_{k+i} / d.
    """
    def c(k: int, j: int) -> int:
        s = deg_p + deg_q - 2 * k
        return math.prod(_box_factor(k - i, s, n) for i in range(j))

    top = min(deg_p, deg_q)
    rows: dict[int, list[Fraction]] = {}
    out = []
    for k in range(top, -1, -1):
        # B_k = c(k, k) h_k + sum_{m>k} c(m, k) h_m, solved for h_k
        row = [Fraction(int(j == k)) for j in range(top + 1)]
        for m in range(k + 1, top + 1):
            row = [x - c(m, k) * y for x, y in zip(row, rows[m])]
        rows[k] = row = [x / c(k, k) for x in row]
        d = math.lcm(*(x.denominator for x in row))
        out.append((k, d, tuple(int(x * d) for x in row[k:])))
    return tuple(out)


@dataclass(frozen=True)
class HarmonicDecomposition:
    """Bidegree components of a SpherePoly.

    ``components[(p, q)]`` is the restriction, in normal form, of a
    harmonic ambient polynomial of bidegree (p, q).
    """

    n: int
    components: dict[tuple[int, int], SpherePoly]

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
    for (a, b), c in f.nums.items():
        by_bidegree.setdefault((sum(a), sum(b)), {})[(a, b)] = c

    layers = []
    for (p, q), part in sorted(by_bidegree.items()):
        powers = [part]
        for _ in range(min(p, q)):
            powers.append(_amb_box(powers[-1]))
        for k, d, row in _layer_rows(p, q, n):
            h: Ambient = {}
            for power, a in zip(powers[k:], row):
                accumulate(h, power.items(), a)
            if h:
                layers.append(((p - k, q - k), h, d))
    den = math.lcm(*(d for _, _, d in layers))
    sums: dict[tuple[int, int], Ambient] = {}
    for key, h, d in layers:
        accumulate(sums.setdefault(key, {}), h.items(), den // d)
    components = {key: SpherePoly.from_nums(n, nums, den * f.den)
                  for key, nums in sums.items() if nums}
    return HarmonicDecomposition(n=n, components=components)


def _double_eigenvalue(p: int, q: int, n: int) -> int:
    """Twice the sub-Laplacian eigenvalue on the (p, q) harmonic space."""
    return 2 * p * q + n * (p + q)


def eigenvalue(p: int, q: int, n: int) -> Fraction:
    """Sub-Laplacian eigenvalue on the (p, q) harmonic space."""
    return Fraction(_double_eigenvalue(p, q, n), 2)


def sublaplacian(f: SpherePoly) -> SpherePoly:
    """Sub-Laplacian, term by term: box - lambda_{|a|,|b|,n} on c z^a zbar^b.

    box never touches z_1 zbar_1, which no normal-form term holds, so the
    result is already reduced.  It is summed as (2 box - 2 lambda) / 2, so
    every coefficient stays integral.
    """
    n = f.n
    by_bidegree: dict[tuple[int, int], list] = {}
    for key, c in f.nums.items():
        by_bidegree.setdefault((sum(key[0]), sum(key[1])), []).append((key, c))
    out: Ambient = {}
    accumulate(out, _amb_box(f.nums).items(), 2)
    for (p, q), items in by_bidegree.items():
        accumulate(out, items, -_double_eigenvalue(p, q, n))
    return SpherePoly.from_nums(n, out, 2 * f.den)


def sublaplacian_energy(f: SpherePoly) -> ExactScalar:
    """Quadratic form -int sublaplacian(f) * conj(f), one :func:`inner`.

    By orthogonality of the harmonic components this is the spectral
    Dirichlet sum sum lambda_{p,q,n} ||f_pq||^2.
    """
    return -inner(sublaplacian(f), f)


def dirichlet_energy(f: SpherePoly) -> ExactScalar:
    """Squared sub-gradient integral of a real function.

    Returns GRADIENT_CALIBRATION * sum lambda_{p,q} ||f_pq||^2 in the
    probability measure; zero exactly when f is constant.
    """
    if not f.is_real():
        raise ValueError("dirichlet_energy requires a real-valued function")
    return ExactScalar(GRADIENT_CALIBRATION) * sublaplacian_energy(f)
