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
  powers and :func:`_layer_rows`, each a slot (P, Q, k) packed into one
  int, its destination, and (key, integer weight) pairs over the row's
  denominator, which a third table holds by slot with its component;
* its sub-Laplacian image is (key, -2 lambda) and (key', 2 box weight)
  over the denominator 2, from :func:`_double_eigenvalue` and
  ``ring.box``.  Keys are read only by ``ring`` (box, ``bidegree``).

Component order: parts by ascending (P, Q), each from its deepest
nonzero layer up to k = 0, in the order the box-power solve meets them.
A part A's layer k is nonzero exactly when box^k A is: box^k A holds no
z_1 zbar_1, so when nonzero it is no |z|^2 multiple and has a nonzero
harmonic layer.  So the nonzero slots, sorted, give that order, though
layers of several monomials may cancel.
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
Image = tuple[tuple[int, tuple[tuple[Key, int], ...]], ...]

# A slot (P, Q, k) is the int (P W + Q) W + W - 1 - k with W = _SLOT, so
# slots sort as (P, Q, -k); every degree is below 128 (see ``ring``).
_SLOT = 256


@functools.cache
def _slot(p: int, q: int, k: int) -> int:
    """The slot (p, q, k), one int object per slot for every table entry
    that names it."""
    return (p * _SLOT + q) * _SLOT + _SLOT - 1 - k


@functools.cache
def _tables(n: int) -> tuple[LazyTable, LazyTable, LazyTable]:
    """The decomposition and sub-Laplacian image tables of dimension n,
    keyed by normal-form monomial, and each slot's component and row
    denominator, keyed by slot."""
    return (LazyTable(functools.partial(_layers, n)),
            LazyTable(functools.partial(_sublaplacian_image, n)),
            LazyTable(functools.partial(_slot_row, n)))


def _slot_row(n: int, slot: int) -> tuple[tuple[int, int], int]:
    """The component (P - k, Q - k) of the slot (P, Q, k) and the
    denominator of its layer row."""
    pq, r = divmod(slot, _SLOT)
    p, q = divmod(pq, _SLOT)
    k = _SLOT - 1 - r
    return (p - k, q - k), _layer_rows(p, q, n)[min(p, q) - k][1]


def _layers(n: int, key: Key) -> Image:
    """The decomposition image of the monomial ``key``.

    Its nonzero layers h_k, from its box powers and :func:`_layer_rows`,
    deepest first: each is (slot, pairs), h_k = sum w z^a' zbar^b' / d
    over the pairs (key of z^a' zbar^b', w), integer w over the row's
    denominator d, and slot = :func:`_slot` (P, Q, k), packed so that
    slots sort as (P, Q, -k).
    """
    p, q = bidegree(n, key)
    powers = [{key: (1, 0)}]
    while powers[-1]:
        powers.append(box(n, powers[-1]))
    image = []
    for k, _, row in _layer_rows(p, q, n):
        layer: Terms = {}
        for power, a in zip(powers[k:-1], row):
            accumulate(layer, power.items(), a)
        if layer:
            image.append((_slot(p, q, k), tuple((k2, re) for k2, (re, _)
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
    slot (P, Q, k) sums layer k of f's bidegree-(P, Q) part over its
    row's denominator, and the nonzero slots, in slot order, add up to
    the components in the module docstring's order.
    """
    n = f.n
    images, _, rows = _tables(n)
    slots: dict[int, Terms] = {}
    apply_table(slots, f.nums, images)
    groups: dict[tuple[int, int], list[tuple[int, Terms]]] = {}
    for s in sorted([slot for slot, layer in slots.items() if layer]):
        pq, d = rows[s]
        groups.setdefault(pq, []).append((d, slots[s]))
    components = {}
    for pq, group in groups.items():
        if len(group) == 1:
            [(den, dst)] = group
        else:
            den = math.lcm(*(d for d, _ in group))
            dst = {}
            for d, layer in group:
                accumulate(dst, layer.items(), den // d)
            if not dst:
                continue
        components[pq] = SpherePoly.from_nums(n, dst, den * f.den)
    return HarmonicDecomposition(n=n, components=components)


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
