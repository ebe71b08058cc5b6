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

from .ring import (_F, _M, ExactScalar, SpherePoly, Terms, _half, accumulate,
                   inner)

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

# Ambient polynomials are Gaussian-integer numerator maps over packed
# monomial keys, as SpherePoly.nums; each caller tracks its denominator.
Ambient = Terms


def _amb_box(n: int, p: Ambient) -> Ambient:
    """Ambient operator sum_a d/dz_a d/dzbar_a on normal-form terms.

    On a key, d/dz_a d/dzbar_a subtracts the key of z_a zbar_a.  No
    normal-form term holds z_1 zbar_1, so the sum starts at a = 2.
    """
    h = _half(n)
    units = [(s, (1 | 1 << s) * (1 | 1 << h))
             for s in range(2 * _F, h, _F)]
    out: Ambient = {}
    accumulate(out, ((key - u, (re * e, im * e))
                     for key, (re, im) in p.items()
                     for s, u in units
                     if (e := (key >> s & _M) * (key >> h + s & _M))))
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
    """Split f into restrictions of ambient harmonic bihomogeneous pieces.

    box lowers a bidegree (P, Q) to (P - 1, Q - 1), so box^j f holds
    box^j of every part of f at once, each part at its own bidegree: a
    term of bidegree (p, q) in box^j f belongs to the part (p + j, q + j).
    """
    n = f.n
    h = _half(n)
    # parts[(P, Q)][j] is box^j of f's bidegree-(P, Q) part
    parts: dict[tuple[int, int], list[Ambient]] = {}
    power, j = f.nums, 0
    while power:
        for key, c in power.items():
            part = parts.setdefault(((key & _M) + j, (key >> h & _M) + j), [])
            if len(part) == j:
                part.append({})
            part[j][key] = c
        power, j = _amb_box(n, power), j + 1
    parts = sorted(parts.items())
    # every layer over one denominator; from_nums divides out what is common
    den = math.lcm(*(d for (p, q), _ in parts
                     for _, d, _ in _layer_rows(p, q, n)))
    sums: dict[tuple[int, int], Ambient] = {}
    for (p, q), powers in parts:
        for k, d, row in _layer_rows(p, q, n):
            if k < len(powers):
                dst = sums.setdefault((p - k, q - k), {})
                for power, a in zip(powers[k:], row):
                    accumulate(dst, power.items(), a * (den // d))
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
    h = _half(n)
    out: Ambient = {}
    for key, (re, im) in f.nums.items():
        lam = _double_eigenvalue(key & _M, key >> h & _M, n)
        if lam:
            out[key] = (-re * lam, -im * lam)
    accumulate(out, _amb_box(n, f.nums).items(), 2)
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
