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

Both operators are linear and fixed, so each applies through a per-n
``ring.LazyTable`` keyed by normal-form monomial (:func:`_tables`), and
``ring.apply_table`` sums c times the image of each term c z^a zbar^b
over integer weights.  This module says what each does to one monomial:

* its decomposition image is its nonzero layers h_k, from its box
  powers and :func:`_layer_rows`: layer k of a bidegree-(P, Q) monomial
  lies in the component (P - k, Q - k), which is its destination, with
  (key, integer weight) pairs over that component's denominator;
* its sub-Laplacian image is (key, -2 lambda) and (key', 2 box weight)
  over the denominator 2, from :func:`_double_eigenvalue` and
  ``ring.box``.  Keys are read only by ``ring`` (box, ``bidegree``).

The decomposition table has a depth K: it serves the monomials with
min(|a|, |b|) <= K.  Component (p, q) is fed by layer j of the parts
(p + j, q + j), j <= K - min(p, q), so its weights are over D_pq(K), the
lcm of those layers' row denominators, and its destination is the
triple (p, q, D_pq(K)), one tuple per component held by a table of the
build.  A monomial deeper than K rebuilds the table at the depth of the
polynomial that holds it, so the depth never shrinks and one table per
n is held.  Components come in ascending (p, q).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .ring import (ExactScalar, Key, LazyTable, SpherePoly, Terms, accumulate,
                   apply_table, bidegree, box, inner)

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


# An image: ((destination, ((key, weight), ...)), ...)
Image = tuple[tuple[object, tuple[tuple[Key, int], ...]], ...]


class _TooDeep(Exception):
    """A monomial past the decomposition table's depth."""


@functools.cache
def _tables(n: int) -> tuple[LazyTable, LazyTable]:
    """The decomposition and sub-Laplacian image tables of dimension n,
    keyed by normal-form monomial; the first starts at depth 0."""
    images = LazyTable(None)
    _build(images, n, 0)
    return images, LazyTable(functools.partial(_sublaplacian_image, n))


def _build(images: LazyTable, n: int, depth: int) -> None:
    """Empty the decomposition table ``images`` of dimension n, to be
    filled at ``depth`` from now on, with a table of the destination of
    each component at that depth."""
    images.clear()
    images.fill = functools.partial(_layers, n, depth, LazyTable(
        functools.partial(_destination, n, depth)))


def _destination(n: int, depth: int,
                 pq: tuple[int, int]) -> tuple[int, int, int]:
    """The destination (p, q, D_pq(depth)) of the component (p, q); layer
    j of the part (p + j, q + j) is row min(p, q) of its layer rows."""
    p, q = pq
    m = min(p, q)
    return p, q, math.lcm(*(_layer_rows(p + j, q + j, n)[m][1]
                            for j in range(depth - m + 1)))


def _layers(n: int, depth: int, dests: LazyTable, key: Key) -> Image:
    """The decomposition image of the monomial ``key`` at ``depth``: its
    nonzero layers h_k, deepest first, each (``dests[P - k, Q - k]``,
    pairs) with h_k = sum w z^a' zbar^b' / D over the pairs (key of
    z^a' zbar^b', w), D the destination's denominator.  Raises
    :class:`_TooDeep` past ``depth``."""
    p, q = bidegree(n, key)
    if min(p, q) > depth:
        raise _TooDeep
    powers = [{key: (1, 0)}]
    while powers[-1]:
        powers.append(box(n, powers[-1]))
    image = []
    for k, d, row in _layer_rows(p, q, n):
        dest = dests[p - k, q - k]
        layer: Terms = {}
        for power, a in zip(powers[k:-1], row):
            accumulate(layer, power.items(), a * (dest[2] // d))
        if layer:
            image.append((dest, tuple((k2, re) for k2, (re, _)
                                      in layer.items())))
    return tuple(image)


def _sublaplacian_image(n: int, key: Key) -> Image:
    """The sub-Laplacian image of the monomial ``key``: the numerators
    over 2 of (2 box - 2 lambda_{|a|,|b|,n}) z^a zbar^b.

    box never touches z_1 zbar_1, which no normal-form term holds, so the
    image is already reduced.
    """
    lam = _double_eigenvalue(*bidegree(n, key), n)
    image = [(key, -lam)] if lam else []
    image += [(k, 2 * re) for k, (re, _) in box(n, {key: (1, 0)}).items()]
    return ((0, tuple(image)),) if image else ()


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

    The sum of c times the table image of each term c z^a zbar^b: each
    destination (p, q, D) sums the component (p, q) over D, and the
    nonzero ones, in ascending (p, q), are the components.  A term past
    the table's depth first rebuilds the table at f's depth.
    """
    n = f.n
    images = _tables(n)[0]
    parts: dict[tuple[int, int, int], Terms] = {}
    try:
        apply_table(parts, f.nums, images)
    except _TooDeep:
        _build(images, n, max(min(bidegree(n, key)) for key in f.nums))
        parts.clear()
        apply_table(parts, f.nums, images)
    return HarmonicDecomposition(n, {
        (p, q): SpherePoly.from_nums(n, nums, den * f.den)
        for (p, q, den), nums in sorted(parts.items()) if nums})


def _double_eigenvalue(p: int, q: int, n: int) -> int:
    """Twice the sub-Laplacian eigenvalue on the (p, q) harmonic space."""
    return 2 * p * q + n * (p + q)


def eigenvalue(p: int, q: int, n: int) -> Fraction:
    """Sub-Laplacian eigenvalue on the (p, q) harmonic space."""
    return Fraction(_double_eigenvalue(p, q, n), 2)


def sublaplacian(f: SpherePoly) -> SpherePoly:
    """Sub-Laplacian, term by term: box - lambda_{|a|,|b|,n} on c z^a zbar^b.

    The sum of c times the table image of each term c z^a zbar^b, over
    the table's denominator 2.
    """
    out: dict[int, Terms] = {}
    apply_table(out, f.nums, _tables(f.n)[1])
    return SpherePoly.from_nums(f.n, out.get(0, {}), 2 * f.den)


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
