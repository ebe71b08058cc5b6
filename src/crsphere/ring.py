"""Exact scalar and polynomial arithmetic on odd-dimensional spheres.

Everything in this module is exact.  Polynomials live on the unit sphere
S^{2n+1} in C^{n+1} and are kept in a canonical normal form modulo the
sphere relation z_1 zbar_1 + ... + z_{n+1} zbar_{n+1} = 1.  A polynomial,
and a truncated series in t with polynomial coefficients, stores
Gaussian-integer numerators, pairs of Python ints, over one positive int
denominator; so does the public scalar :class:`ExactScalar`, a Gaussian
rational whose ``re`` and ``im`` read as ``fractions.Fraction``.  No
floats appear anywhere here.

The scalar (:mod:`crsphere.scalar`) and the term-grammar tokenizer
(:mod:`crsphere.grammar`) are modules of their own, which read no key and
whose public names this module re-exports: every process compiles the
package from source, and the largest module's compile sets its memory
peak, so the kernel here keeps only what reads a key.

Conventions:

* A monomial is ``z^a zbar^b`` for exponent tuples a, b of length n+1.
* Normal form: no stored monomial is divisible by z_1*zbar_1, the leading
  monomial of the sphere relation under graded lex order.  Reduction
  rewrites z_1^k zbar_1^k as (1 - sum_{j>=2} z_j zbar_j)^k, expanded once
  per (n, k), so each term reduces by one lookup.
* Integration is against the rotation-invariant probability measure;
  the pseudohermitian volume 2^{n+1} pi^{n+1} is carried separately as a
  symbolic factor (see :func:`volume_factor`) and never as a float.
  The moment int |z^a|^2 = n! prod(a_j!) / (n + |a|)! of a diagonal
  monomial is read as (|a|, n! prod(a_j!)) from a per-n table keyed by
  the key's half, filled as halves are met (:func:`_moments`).
* The circle action z -> e^{i t} z grades monomials by m = |a| - |b|.

Monomial keys: inside the kernel a monomial is one packed ``int``.  For
dimension n it has 2(n+2) fields of ``_F`` bits: field 0 holds |a| and
fields 1..n+1 hold a_1..a_{n+1} (the low half, ``(n+2) * _F`` bits);
the high half holds |b| and b_1..b_{n+1} the same way.  So the product
of two monomials is the sum of their keys, conjugation swaps the halves,
the exponent shift a - b is the low half minus the high half (equal
shifts give equal differences), the bidegree and the mode are read from
the two degree fields, and a monomial integrates to nonzero exactly when
its halves are equal.  The top bit of every field is a guard bit: a
value must stay below ``2^(_F-1)``, so one key addition never carries
out of a field.  :func:`_encode` rejects exponents that do not fit, and
every product is reduced by :func:`reduce_nums`, which raises
``OverflowError`` when a key has a guard bit set; no key ever wraps.
Tuples ``(a, b)`` appear only at the edges: the :class:`SpherePoly`
constructor and its ``terms`` view (so ``monomial``, ``z``, ``w`` and
:func:`parse_poly`, which builds a polynomial from the tuples that
``grammar.parse_terms`` reads), ``to_grammar`` and ``sorted_terms``,
through the one encoder :func:`_encode` and the one decoder
:func:`_decode`.  Only this module reads a key: other modules take a
term map's :func:`bidegree`, its derivatives (:func:`partial`, the one
ambient-derivative route, and :func:`box`, built from it) and its
:func:`mode_norms` from here.

Series keys: a :class:`TSeries2` key is a monomial key with the term's
power of t in one more field above the two halves, so a product adds
orders as it adds monomials, and reduction, which reads only the
monomial fields, leaves the order alone.  A polynomial's key is the
order-0 series key of its monomial, so both types share one stored form
and its rules (:class:`_TermMap`), one fused sum (:func:`sum_of_products`)
and one pairing rule (:func:`_add_term_products`); a result with a
series operand is a series.  Only the series code here reads the order
field or states the truncation order (:data:`ORDER`); it hands other
modules each order's terms without the field (:meth:`TSeries2.orders`),
so no image table is ever keyed by an order.

Image tables: every per-n table of a fixed map on monomials is a
:class:`LazyTable`, which fills an entry the first time its key is read
(the moments and texts here, the frame fields, the tight-frame
projection, the harmonic decomposition and the sub-Laplacian elsewhere).
:func:`apply_table` is the one loop that applies a linear map's table,
so other modules only say what the map does to one monomial.

Value types: :class:`ExactScalar` and the term maps, made without a
constructor by ``scalar._scalar`` and :func:`_make`, refuse assignment
and deletion of their own slots and copy and pickle through
``__reduce__``; :class:`VolumeFactor` is frozen.  A term map holds only
``n``, ``nums`` and ``den``, nothing that depends on :data:`ORDER`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping

from .grammar import MAX_TERM_DEGREE, PolyParseError, parse_terms
from .scalar import (_SCALAR_TYPES, ExactScalar, _RationalLike, _scalar,
                     _split, parse_scalar)

__all__ = [
    "ExactScalar",
    "SpherePoly",
    "TSeries2",
    "ORDER",
    "VolumeFactor",
    "volume_factor",
    "parse_scalar",
    "parse_poly",
    "PolyParseError",
    "MAX_TERM_DEGREE",
    "accumulate",
    "LazyTable",
    "apply_table",
    "reduce_nums",
    "sum_of_products",
    "bidegree",
    "partial",
    "box",
    "multi_indices",
    "inner",
    "mode_norms",
    "norm2",
]

Exponents = tuple[int, ...]
TermKey = tuple[Exponents, Exponents]
Key = int
Gaussian = tuple[int, int]
Terms = dict[Key, Gaussian]

# Bits per field of a packed monomial key: one byte, so ``int.to_bytes``
# reads every field at once.  The top bit is the guard bit, so every
# exponent and degree stays below _CAP.
_F = 8
_M = (1 << _F) - 1
_CAP = 1 << (_F - 1)


def _half(n: int) -> int:
    """Bits in one half, (|a|, a_1..a_{n+1}), of a dimension-n key."""
    return (n + 2) * _F


@functools.cache
def _guard(n: int) -> int:
    """The guard bits of all 2(n+2) fields of a dimension-n key."""
    return ((1 << 2 * _half(n)) - 1) // _M * _CAP


def _encode(n: int, a: Exponents, b: Exponents) -> Key:
    """The packed key of z^a zbar^b (layout in the module docstring)."""
    if len(a) != n + 1 or len(b) != n + 1:
        raise ValueError("exponent tuple length must be n+1")
    if min(a) < 0 or min(b) < 0:
        raise ValueError(f"negative exponent in {(a, b)!r}")
    if max(sum(a), sum(b)) >= _CAP:
        raise ValueError(f"monomial degree {max(sum(a), sum(b))} does not "
                         f"fit a key field (at most {_CAP - 1})")
    return int.from_bytes(bytes((sum(a), *a, sum(b), *b)), "little")


def _decode(n: int, key: Key) -> TermKey:
    """The exponent tuples (a, b) of a packed key."""
    fields = key.to_bytes(2 * n + 4, "little")
    return tuple(fields[1:n + 2]), tuple(fields[n + 3:])


def bidegree(n: int, key: Key) -> tuple[int, int]:
    """(|a|, |b|) of the monomial z^a zbar^b with key ``key``."""
    return key & _M, key >> _half(n) & _M


def accumulate(dst: Terms, items: Iterable[tuple[Key, Gaussian]],
               scale: int = 1) -> None:
    """``dst[key] += scale * (re, im)`` for each item, keeping no zero term."""
    get = dst.get
    for key, (re, im) in items:
        re *= scale
        im *= scale
        prev = get(key)
        if prev is not None:
            re += prev[0]
            im += prev[1]
        if re or im:
            dst[key] = (re, im)
        elif prev is not None:
            del dst[key]


class LazyTable(dict):
    """A per-n image table: ``table[key]`` is ``fill(key)``, computed the
    first time ``key`` is read and stored."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        self[key] = entry = self.fill(key)
        return entry


def apply_table(outs: dict, nums: Mapping[Key, Gaussian],
                table: LazyTable) -> None:
    """``outs[dest] += c * image`` over the terms c z^a zbar^b of ``nums``,
    each image a tuple of ``(dest, ((key, int weight), ...))``; a term map
    in ``outs`` keeps no zero term but may be left empty.  The loop is
    :func:`accumulate`'s, written out."""
    get = table.get
    last = None
    for key, (re, im) in nums.items():
        image = get(key)
        if image is None:
            image = table[key]
        for dest, pairs in image:
            if dest is not last:    # the same destination object as before
                last, dst = dest, outs.get(dest)
                if dst is None:
                    dst = outs[dest] = {}
                put = dst.get
            for k, w in pairs:
                prev = put(k)
                if prev is None:
                    dst[k] = (re * w, im * w)
                else:
                    r, i = prev[0] + re * w, prev[1] + im * w
                    if r or i:
                        dst[k] = (r, i)
                    else:
                        del dst[k]


def _add_products(dst: Terms, xs: Mapping[Key, Gaussian],
                  ys: Mapping[Key, Gaussian], scale: int = 1) -> None:
    """``dst += scale * xs * ys``, unreduced, keeping no zero term: the
    product of two monomials is the sum of their keys.

    The terms are summed in one loop, as in :func:`accumulate`; xs and
    ys hold no zero term and ``scale`` is nonzero, so no product is zero.
    """
    get = dst.get
    ys = ys.items()
    for k1, (r1, i1) in xs.items():
        r1, i1 = r1 * scale, i1 * scale
        for k2, (r2, i2) in ys:
            key = k1 + k2
            re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
            prev = get(key)
            if prev is None:
                dst[key] = (re, im)
            else:
                re += prev[0]
                im += prev[1]
                if re or im:
                    dst[key] = (re, im)
                else:
                    del dst[key]


def _lowest(nums: Terms, den: int) -> int:
    """Divide the common factor of ``den`` and every numerator out of
    ``nums`` in place (values only: no resize); return the denominator
    left."""
    g = den
    for re, im in nums.values():
        g = math.gcd(g, re, im)
        if g == 1:
            return den
    for key, (re, im) in nums.items():
        nums[key] = (re // g, im // g)
    return den // g


def _scale(nums: Terms, cr: int, ci: int) -> Terms:
    """Each term times the Gaussian integer cr + ci i."""
    return {key: (re * cr - im * ci, re * ci + im * cr)
            for key, (re, im) in nums.items()} if cr or ci else {}


def _constant(nums: Terms) -> Gaussian | None:
    """The numerator of a constant term map (0 included), else None."""
    if len(nums) > 1:
        return None
    return nums.get(0, None if nums else (0, 0))


def partial(n: int, nums: Terms, side: int, a: int) -> Terms:
    """d/dz_a (side 0) or d/dzbar_a (side 1) of the term map ``nums``,
    ``a`` the 0-based coordinate index: it subtracts the key of z_a (or
    zbar_a) from each term's.  Lowering one exponent keeps a term in
    normal form and distinct terms distinct, so nothing is reduced."""
    if side not in (0, 1) or not 0 <= a <= n:
        raise ValueError(f"no derivative on side {side!r} in coordinate "
                         f"{a!r} for n={n}")
    base = side * _half(n)
    s = base + (a + 1) * _F
    unit = (1 | 1 << (a + 1) * _F) << base
    out = {}
    for key, (re, im) in nums.items():
        e = key >> s & _M
        if e:
            out[key - unit] = (re * e, im * e)
    return out


def box(n: int, nums: Terms) -> Terms:
    """sum_a d/dz_a d/dzbar_a of the normal-form term map ``nums``; no
    normal-form term holds z_1 zbar_1, so the sum starts at z_2."""
    out: Terms = {}
    for a in range(1, n + 1):
        accumulate(out, partial(n, partial(n, nums, 1, a), 0, a).items())
    return out


def multi_indices(width: int, total: int) -> Iterable[Exponents]:
    """Exponent tuples of length ``width`` with entries summing to <= total."""
    if width == 0:
        yield ()
        return
    for e in range(total + 1):
        for rest in multi_indices(width - 1, total - e):
            yield (e,) + rest


@functools.cache
def _sphere_power(n: int, k: int) -> tuple[tuple[Key, int], ...]:
    """Normal form of z_1^k zbar_1^k, i.e. (1 - sum_{j>=2} z_j zbar_j)^k.

    Each entry ``(key, c)`` is the term c z^m zbar^m; m[0] == 0 and c is
    the signed multinomial coefficient k! / ((k - |m|)! prod m_j!).
    """
    out = []
    for m in multi_indices(n, k):
        s = sum(m)
        c = math.factorial(k) // math.factorial(k - s)
        for e in m:
            c //= math.factorial(e)
        out.append((_encode(n, (0,) + m, (0,) + m), -c if s & 1 else c))
    return tuple(out)


def reduce_nums(n: int, raw: Terms) -> Terms:
    """Division remainder modulo the sphere relation.

    Reduction is linear, so a term z^a zbar^b with k = min(a_1, b_1) maps
    to z^a' zbar^b' times the normal form of z_1^k zbar_1^k, where a' and
    b' drop k from the first exponent: one lookup per term.  Every
    product passes here, so this is where a key with a guard bit set, a
    product whose degree does not fit a field, raises ``OverflowError``.
    """
    if functools.reduce(or_, raw, 0) & _guard(n):
        raise OverflowError(f"a product reached degree {_CAP}, which does "
                            f"not fit a monomial key field")
    a1 = _M << _F
    b1 = a1 << _half(n)
    out: Terms = {}
    reducible = []
    for key, c in raw.items():
        if key & a1 and key & b1:
            reducible.append((key, c))
        else:
            out[key] = c
    accumulate(out, _expanded(n, reducible))
    return out


def _expanded(n: int, items: list[tuple[Key, Gaussian]]):
    """The terms of each item z^a zbar^b with z_1^k zbar_1^k replaced."""
    h = _half(n)
    z1w1 = (1 | 1 << _F) * (1 | 1 << h)     # with its two degree fields
    for key, (re, im) in items:
        k = min(key >> _F & _M, key >> h + _F & _M)
        base = key - k * z1w1
        for m, c in _sphere_power(n, k):
            yield base + m, (re * c, im * c)


class _TermMap:
    """The stored form shared by :class:`SpherePoly` and :class:`TSeries2`.

    ``nums`` is a ``{key: (re, im)}`` map from packed keys (see the module
    docstring) to Gaussian-integer numerators, over one positive integer
    ``den``; the gcd of every numerator and ``den`` is 1 and no zero term
    is kept.  Instances are immutable, and copies and pickles rebuild
    them through :func:`_make` (``__reduce__``); every constructor and
    operation returns this canonical form, so ``==`` decides equality.  Only
    :meth:`conjugate` reads a key, through its halves, and it keeps an
    order field above them, so the rules hold for polynomials and series
    alike; a sum with a series operand is a series.
    """

    __slots__ = ("n", "nums", "den")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _make, (type(self), self.n, self.nums, self.den)

    # -- constructors -------------------------------------------------
    @classmethod
    def from_nums(cls, n: int, nums: Terms, den: int):
        """The sum nums[key] / den over normal-form keys.

        Takes ownership of ``nums``, which must hold no zero term and no
        monomial divisible by z_1 zbar_1; ``den`` must be positive.  Common
        factors are divided out here; an instance already in lowest terms,
        such as a negation, conjugate or constant, is made by
        :func:`_make`.
        """
        return _make(cls, n, nums, _lowest(nums, den) if den != 1 else 1)

    @classmethod
    def constant(cls, n: int, c: "ExactScalar | _RationalLike"):
        re, im, d = _split(c)       # in lowest terms already
        return _make(cls, n, {0: (re, im)} if re or im else {}, d)

    # -- ring operations -----------------------------------------------
    def _check(self, other: "_TermMap"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: n={self.n} vs n={other.n}")

    def is_zero(self) -> bool:
        return not self.nums

    def _combine(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators, a
        series when either operand is.

        A zero operand returns the other one as it is (instances are
        immutable), negated for ``0 - x``, when that has the sum's type.
        """
        cls = type(self)
        if not isinstance(other, _TermMap):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            other = cls.constant(self.n, other)
        elif type(other) is TSeries2:
            cls = TSeries2
        if other.n != self.n:
            self._check(other)
        if not other.nums and type(self) is cls:
            return self
        if not self.nums and type(other) is cls:
            return other if sign > 0 else -other
        den = math.lcm(self.den, other.den)
        f = den // self.den
        nums = (dict(self.nums) if f == 1 else
                {key: (re * f, im * f) for key, (re, im) in self.nums.items()})
        accumulate(nums, other.nums.items(), sign * (den // other.den))
        return cls.from_nums(self.n, nums, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, c: "ExactScalar | _RationalLike"):
        """self times the exact scalar c, term by term: no constant is
        made and no term pair formed."""
        cr, ci, cd = _split(c)
        return type(self).from_nums(self.n, _scale(self.nums, cr, ci),
                                    self.den * cd)

    def __neg__(self):
        """-self; lowest terms are kept, so no common factor is sought."""
        if not self.nums:
            return self
        return _make(type(self), self.n, {key: (-re, -im) for key, (re, im)
                                          in self.nums.items()}, self.den)

    def conjugate(self):
        """Each coefficient's conjugate: the halves swap, an order field
        above them stays, and lowest terms are kept."""
        if not self.nums:
            return self
        h = _half(self.n)
        low = (1 << h) - 1
        return _make(type(self), self.n,
                     {key >> 2 * h << 2 * h | key >> h & low
                      | (key & low) << h: (re, -im)
                      for key, (re, im) in self.nums.items()}, self.den)

    def __eq__(self, other) -> bool:
        """An exact scalar equals the constant; a polynomial equals the
        series with its terms at order 0."""
        if not isinstance(other, _TermMap):
            if not isinstance(other, _SCALAR_TYPES) or isinstance(other, bool):
                return NotImplemented
            other = self.constant(self.n, other)
        # lowest terms over a positive denominator are unique
        return (self.n == other.n and self.den == other.den
                and self.nums == other.nums)


# The slot setters, past _TermMap.__setattr__, which refuses assignment
_set_n, _set_nums, _set_den = (_TermMap.__dict__[name].__set__
                               for name in _TermMap.__slots__)


def _make(cls: type[_TermMap], n: int, nums: Terms, den: int):
    """The one unnormalized constructor: the ``cls`` instance nums / den,
    taken as given: in lowest terms, with no zero term, normal-form
    monomials and no order above ORDER (:meth:`TSeries2.from_orders`).  A
    function, not a classmethod, so that making an instance binds no
    method."""
    p = object.__new__(cls)
    _set_n(p, n)
    _set_nums(p, nums)
    _set_den(p, den)
    return p


class SpherePoly(_TermMap):
    """Polynomial function on S^{2n+1}, canonical modulo the sphere relation.

    A :class:`_TermMap` whose keys are packed normal-form monomials (see
    the module docstring), so ``==`` decides equality of functions on the
    sphere.
    """

    __slots__ = ()

    def __new__(cls, n: int, terms: Mapping[TermKey, ExactScalar]):
        if n < 1:
            raise ValueError("dimension n must be >= 1")
        split = {_encode(n, a, b): _split(c) for (a, b), c in terms.items()}
        den = math.lcm(*(d for _, _, d in split.values()))
        nums = {key: (re * (den // d), im * (den // d))
                for key, (re, im, d) in split.items() if re or im}
        return SpherePoly.from_nums(n, reduce_nums(n, nums), den)

    # -- constructors -------------------------------------------------
    @staticmethod
    @functools.cache
    def zero(n: int) -> "SpherePoly":
        """The zero polynomial: one shared instance per n."""
        return _make(SpherePoly, n, {}, 1)

    @staticmethod
    @functools.cache
    def one(n: int) -> "SpherePoly":
        """The polynomial 1: one shared instance per n."""
        return SpherePoly.constant(n, 1)

    @staticmethod
    def monomial(n: int, a: Iterable[int], b: Iterable[int],
                 c: "ExactScalar | _RationalLike" = 1) -> "SpherePoly":
        return SpherePoly(n, {(tuple(a), tuple(b)): ExactScalar.coerce(c)})

    @staticmethod
    def z(n: int, j: int) -> "SpherePoly":
        """Coordinate z_j, 1-based."""
        if not 1 <= j <= n + 1:
            raise ValueError(f"coordinate index {j} out of range 1..{n + 1}")
        a = tuple(1 if k == j - 1 else 0 for k in range(n + 1))
        return SpherePoly.monomial(n, a, (0,) * (n + 1))

    @staticmethod
    def w(n: int, j: int) -> "SpherePoly":
        """Conjugate coordinate zbar_j, 1-based."""
        return SpherePoly.z(n, j).conjugate()

    @property
    def terms(self) -> Mapping[TermKey, ExactScalar]:
        """Read-only ``{(a, b): ExactScalar}`` view of the coefficients."""
        n, d = self.n, self.den
        return MappingProxyType({_decode(n, key): _scalar(re, im, d)
                                 for key, (re, im) in self.nums.items()})

    # -- ring operations -----------------------------------------------
    # __add__, __mul__ and conjugate are SpherePoly's own functions, not
    # the base's, so that a tracer wrapping them by name sees polynomial
    # calls only.
    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __mul__(self, other):
        """A series factor gets NotImplemented: ``TSeries2.__mul__`` is
        the one product with a series."""
        if not isinstance(other, SpherePoly):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            return self._scaled(other)
        return _product(SpherePoly, self, other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of SpherePoly")
        out = SpherePoly.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:       # no square beyond the last bit
                base = base * base
        return out

    def conjugate(self) -> "SpherePoly":
        """The conjugate, by the base's one rule."""
        return _TermMap.conjugate(self)

    # -- structure -------------------------------------------------------
    def is_real(self) -> bool:
        return self == self.conjugate()

    def __hash__(self):     # a constant hashes as the scalar it equals
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.n, self.den, frozenset(self.nums.items())))

    def constant_term(self) -> ExactScalar:
        re, im = self.nums.get(0, (0, 0))
        return _scalar(re, im, self.den)

    def is_constant(self) -> bool:
        return not any(self.nums)       # the constant monomial's key is 0

    # -- circle grading ---------------------------------------------------
    def fourier_project(self, m: int) -> "SpherePoly":
        """Sum of terms with holomorphic minus antiholomorphic degree m."""
        h = _half(self.n)
        return SpherePoly.from_nums(
            self.n, {key: c for key, c in self.nums.items()
                     if (key & _M) - (key >> h & _M) == m}, self.den)

    def modes(self) -> list[int]:
        """Sorted list of circle-action weights present."""
        h = _half(self.n)
        return sorted({(key & _M) - (key >> h & _M) for key in self.nums})

    def phase_substitute(self, u: ExactScalar) -> "SpherePoly":
        """Substitute z -> u z, zbar -> conj(u) zbar for a unit scalar u.

        As u conj(u) = 1, a term's factor u^|a| conj(u)^|b| is u^m for its
        mode m = |a| - |b|, read off the key's degree fields (conj(u)^-m
        for m < 0); no key changes, so nothing is reduced."""
        if u.abs2() != 1:
            raise ValueError("phase must have |u| = 1")
        ur, ui, ud = _split(u)
        top = max(map(abs, self.modes()), default=0)
        powers = [(ud ** top, 0)]       # u^k over ud^top, k = 0..top
        for _ in range(top):
            r, i = powers[-1]
            powers.append(((r * ur - i * ui) // ud, (r * ui + i * ur) // ud))
        h = _half(self.n)
        nums = {}
        for key, (re, im) in self.nums.items():
            m = (key & _M) - (key >> h & _M)
            pr, pi = powers[abs(m)]
            pi = pi if m >= 0 else -pi
            nums[key] = (re * pr - im * pi, re * pi + im * pr)
        return SpherePoly.from_nums(self.n, nums, self.den * ud ** top)

    # -- integration -------------------------------------------------------
    def integral(self) -> ExactScalar:
        """Integral over the sphere in the probability measure.

        Monomial rule: int z^a zbar^b = 0 unless a == b, that is unless
        the key's halves are equal, in which case it is
        n! * prod(a_j!) / (n + |a|)!.
        """
        h = _half(self.n)
        low = (1 << h) - 1
        return _moments(self.n, [(key >> h, c)
                                 for key, c in self.nums.items()
                                 if key & low == key >> h], self.den)

    # -- textual form -------------------------------------------------------
    def sorted_terms(self) -> list[tuple[TermKey, ExactScalar]]:
        """The terms in :meth:`to_grammar`'s order (:func:`_texts` ranks)."""
        n, d, table = self.n, self.den, _texts(self.n)
        return [(_decode(n, key), _scalar(re, im, d)) for key, (re, im)
                in sorted(self.nums.items(), key=lambda kc: table[kc[0]])]

    def to_grammar(self) -> str:
        """Render in the textual term grammar; ``(re,im) z1^a ... w1^b ...``.

        Terms go in (|a| + |b|, a, b) order; each monomial's rank in that
        order and its text are read from a per-n table (:func:`_texts`).
        """
        if not self.nums:
            return "(0/1,0/1)"
        n, d = self.n, self.den
        table = _texts(n)
        parts = []
        for (_, text), (re, im) in sorted((table[key], c)
                                          for key, c in self.nums.items()):
            gr, gi = math.gcd(re, d), math.gcd(im, d)
            parts.append(f"({re // gr}/{d // gr},{im // gi}/{d // gi}){text}")
        return " ".join(parts)

    def __repr__(self):
        return f"SpherePoly(n={self.n}, {self.to_grammar()})"


@functools.cache
def _texts(n: int) -> LazyTable:
    """(rank, text) by monomial key, filled as monomials are met."""
    return LazyTable(functools.partial(_text, n))


def _text(n: int, key: Key) -> tuple[int, str]:
    """The text table's entry for ``key``: the int whose bytes are
    |a| + |b|, a and b, which sorts as (|a| + |b|, a, b), and the
    monomial's factors, each after a space."""
    a, b = _decode(n, key)
    return (int.from_bytes(bytes((sum(a) + sum(b), *a, *b)), "big"),
            "".join(f" {v}{j}" + (f"^{e}" if e != 1 else "")
                    for v, exps in (("z", a), ("w", b))
                    for j, e in enumerate(exps, 1) if e))


@functools.cache
def _moment_table(n: int) -> LazyTable:
    """(|a|, n! prod(a_j!)) by half key a, filled as halves are met."""
    return LazyTable(functools.partial(_moment, n))


def _moment(n: int, a: Key) -> tuple[int, int]:
    """The moment table's entry for the half key ``a``."""
    fields = a.to_bytes(n + 2, "little")    # |a|, a_1, ..., a_{n+1}
    return fields[0], math.factorial(n) * math.prod(
        map(math.factorial, fields[1:]))


@functools.cache
def _factorial_ratios(n: int, top: int) -> tuple[int, tuple[int, ...]]:
    """(n + top)! and the ratios (n + top)! / (n + d)! for d = 0 .. top."""
    fact = math.factorial(n + top)
    return fact, tuple(fact // math.factorial(n + d) for d in range(top + 1))


def _moments(n: int, diag: list[tuple[Key, Gaussian]],
             den: int) -> ExactScalar:
    """sum (re + i im) int |z^a|^2 / den over the items (a, (re, im)).

    Each a is one half of a key.  Its fields may hold values up to
    2 (_CAP - 1), the sum of two halves, which still fits a field.
    int |z^a|^2 = n! prod(a_j!) / (n + |a|)!, with (|a|, n! prod(a_j!))
    read from a per-n table; the sum runs over the common denominator
    (n + top)!, top the largest |a| present.
    """
    if not diag:
        return ExactScalar.zero()
    table = _moment_table(n)
    moments = [table[a] for a, _ in diag]
    top, ratios = _factorial_ratios(n, max(moments)[0])
    re_sum = im_sum = 0
    for (deg, w), (_, (re, im)) in zip(moments, diag):
        w *= ratios[deg]
        re_sum += re * w
        im_sum += im * w
    return _scalar(re_sum, im_sum, top * den)


def _shift_groups(p: SpherePoly) -> dict[int, list]:
    """p's terms (A, B, (re, im)), A and B the two halves of the key,
    grouped by A - B, which identifies the exponent shift a - b."""
    h = _half(p.n)
    low = (1 << h) - 1
    groups: dict[int, list] = {}
    for key, c in p.nums.items():
        a, b = key & low, key >> h
        groups.setdefault(a - b, []).append((a, b, c))
    return groups


def inner(p: SpherePoly, q: SpherePoly) -> ExactScalar:
    """The L^2 pairing int p * conj(q) in the probability measure.

    The product of c z^a zbar^b and conj(c') z^b' zbar^a' is the ambient
    monomial z^(a+b') zbar^(b+a'), which integrates to nonzero only when
    a - b == a' - b'; the moment rule holds for unreduced ambient
    monomials, so only those pairs are summed, with no product and no
    reduction.
    """
    p._check(q)
    right = _shift_groups(q)
    left = right if p is q else _shift_groups(p)
    return _moments(p.n, _shift_pairs(left, right), p.den * q.den)


def _shift_pairs(left: dict[int, list], right: dict[int, list]) -> list:
    """The ambient monomials of int p * conj(q) from shift groupings of p
    and q.

    Each term c z^a zbar^b of a ``left`` group with each c' z^a' zbar^b'
    of the ``right`` group of the same shift gives (a + b', c conj(c')),
    the low half of the product's diagonal monomial and its numerator.
    """
    return [(a1 + b2, (r1 * r2 + i1 * i2, i1 * r2 - r1 * i2))
            for shift, group in left.items() if shift in right
            for a1, _, (r1, i1) in group
            for _, b2, (r2, i2) in right[shift]]


def mode_norms(*ps: SpherePoly) -> dict[int, ExactScalar]:
    """sum over the ps of ||p^(m)||^2 for each circle mode m present, the
    mode norms of their direct sum (a tensor's coefficients, say), in one
    moment sum per mode over the ps' common denominator: only terms of
    one p with equal shift a - b pair to a nonzero integral (see
    :func:`inner`), and a mode's norm sums the same-shift pairs of the
    shifts whose entries add up to m."""
    den = math.lcm(*(p.den for p in ps))
    by_mode: dict[int, dict[tuple[int, int], list]] = {}
    for i, p in enumerate(ps):
        ps[0]._check(p)
        f = den // p.den
        for shift, group in _shift_groups(p).items():
            if f != 1:
                group = [(a, b, (re * f, im * f)) for a, b, (re, im) in group]
            a, b, _ = group[0]  # key halves: the degree fields give the mode
            by_mode.setdefault((a & _M) - (b & _M), {})[i, shift] = group
    out = {}
    for m, groups in by_mode.items():
        out[m] = nrm = _moments(ps[0].n, _shift_pairs(groups, groups),
                                den * den)
        if nrm.im != 0:
            raise AssertionError("norm squared must be real")
    return out


def norm2(p: SpherePoly) -> ExactScalar:
    """L^2 norm squared in the probability measure, :func:`inner` (p, p)."""
    v = inner(p, p)
    if not v.is_real():
        raise AssertionError("norm squared must be real")
    return v


# ---------------------------------------------------------------------------
# Truncated power series in the deformation parameter
# ---------------------------------------------------------------------------

# The truncation order of TSeries2: no term of a higher order is formed.
ORDER = 2


def _order_shift(n: int) -> int:
    """The offset of a series key's order field, above both halves."""
    return (n + 2) * 2 * _F


class TSeries2(_TermMap):
    """Truncated series c0 + c1 t + ... + c_ORDER t^ORDER with polynomial
    coefficients.

    A :class:`_TermMap` like a polynomial, each key a monomial's with the
    term's power of t in an order field above the two halves.  So a sum is
    one pass over one map, and a product adds orders as it adds keys,
    pairs only orders i + j <= ORDER (:func:`_add_term_products`) and
    reduces once.  A polynomial is an order-0 series as it stands, so it
    enters as it is, never lifted, and a constant operand scales.  It takes
    1 to ORDER + 1 coefficients, None for zero after c0.  It holds only its
    terms, so every read of a coefficient splits them by :meth:`orders` at
    the :data:`ORDER` in force, which raises on a term past it; an empty
    order reads as the shared :meth:`SpherePoly.zero`.
    """

    __slots__ = ()

    def __new__(cls, *coeffs: SpherePoly | None):
        if not (coeffs and isinstance(coeffs[0], SpherePoly) and all(
                c is None or isinstance(c, SpherePoly) for c in coeffs)):
            raise TypeError("series coefficients must be SpherePoly")
        n = coeffs[0].n
        if any(c is not None and c.n != n for c in coeffs):
            raise ValueError("series coefficients must share a dimension")
        den = math.lcm(*(c.den for c in coeffs if c is not None))
        return TSeries2.from_orders(n, [{} if c is None else _scale(
            c.nums, den // c.den, 0) for c in coeffs], den)

    @staticmethod
    @functools.cache
    def zero(n: int) -> "TSeries2":
        """The zero series: one shared instance per n."""
        return _make(TSeries2, n, {}, 1)

    @staticmethod
    def from_orders(n: int, parts: list[Terms], den: int) -> "TSeries2":
        """The series sum_k t^k parts[k] / den, of 1 to ORDER + 1 parts,
        each a term map without the order field, put in lowest terms."""
        if not 1 <= len(parts) <= ORDER + 1:
            raise ValueError(f"a series has 1 to {ORDER + 1} orders")
        s = _order_shift(n)
        return TSeries2.from_nums(n, {key | k << s: c for k, part
                                      in enumerate(parts)
                                      for key, c in part.items()}, den)

    def orders(self) -> list[Terms]:
        """Each order's terms over ``den``, keys without the order field;
        a term past the ORDER in force raises ValueError."""
        s = _order_shift(self.n)
        parts = [{} for _ in range(ORDER + 1)]
        try:
            for key, c in self.nums.items():
                parts[key >> s][key & (1 << s) - 1] = c
        except IndexError:
            raise ValueError(f"a series term of order {max(self.nums) >> s}"
                             f" is past ORDER = {ORDER}") from None
        return parts

    def coefficients(self) -> tuple[SpherePoly, ...]:
        """(c0, c1, ..., c_ORDER) at the ORDER in force, from
        :meth:`orders`."""
        return tuple(map(self._polynomial, self.orders()))

    def _polynomial(self, part: Terms) -> SpherePoly:
        """The polynomial part / den, the shared zero when part is empty."""
        return (SpherePoly.from_nums(self.n, part, self.den) if part
                else SpherePoly.zero(self.n))

    c0, c1, c2 = (property(lambda self, k=k: self._polynomial(
        self.orders()[k])) for k in range(3))     # as read by the verdicts

    def __mul__(self, other):
        """The one product with a series operand, either side."""
        if not isinstance(other, _TermMap):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            return self._scaled(other)
        return _product(TSeries2, self, other)

    __rmul__ = __mul__

    def integral(self) -> tuple[ExactScalar, ...]:
        return tuple(c.integral() for c in self.coefficients())

    def fractional_power(self, exponent: Fraction) -> "TSeries2":
        """(1 + e)^s = 1 + sum_k binom(s, k) e^k by the recursion
        binom(s, k) e^k = binom(s, k-1) e^(k-1) e (s-k+1)/k from s e, for
        the k with k * low <= ORDER, low the lowest order in e; requires
        the stored order-0 part to be 1, so e has no order-0 term."""
        shift = _order_shift(self.n)
        if self.nums.get(0) != (self.den, 0) or any(
                0 < key < 1 << shift for key in self.nums):
            raise ValueError("fractional_power needs constant term 1")
        # self - 1, in lowest terms as gcd(den, den, rest) = 1
        e = _make(TSeries2, self.n, {k: c for k, c in self.nums.items() if k},
                  self.den)
        if not e.nums:
            return self
        s = Fraction(exponent)
        out = term = e * s
        for k in range(2, ORDER // (min(e.nums) >> shift) + 1):
            term = term * e * ((s - k + 1) / k)
            out = out + term
        # out has no order-0 term: out + 1 keeps its lowest terms
        return _make(TSeries2, self.n, {0: (out.den, 0)} | out.nums, out.den)

    def __repr__(self):
        return "TSeries2(" + " | ".join(c.to_grammar()
                                        for c in self.coefficients()) + ")"


def _add_term_products(raw: Terms, x: _TermMap, y: _TermMap,
                       scale: int) -> None:
    """``raw += scale * x * y``, unreduced, for polynomials or series x and
    y: keys add, so orders add.  A polynomial has only order 0, so with a
    polynomial factor every term pair is kept; of two series, x's order-i
    terms meet only y's terms of order at most ORDER - i."""
    if type(x) is SpherePoly or type(y) is SpherePoly:
        _add_products(raw, x.nums, y.nums, scale)
        return
    s = _order_shift(x.n)
    for i in range(min(x.nums) >> s, (max(x.nums) >> s) + 1):
        xs = {key: c for key, c in x.nums.items() if key >> s == i}
        if xs:
            below = (ORDER + 1 - i) << s
            ys = {key: c for key, c in y.nums.items() if key < below}
            if ys:
                _add_products(raw, xs, ys, scale)


def _product(cls: type[_TermMap], x: _TermMap, y: _TermMap):
    """x * y as a ``cls`` instance.  A constant factor scales the other
    one's terms: no term pairs, no reduction."""
    x._check(y)
    den = x.den * y.den
    c = _constant(y.nums)
    if c is not None:
        return cls.from_nums(x.n, _scale(x.nums, *c), den)
    c = _constant(x.nums)
    if c is not None:
        return cls.from_nums(x.n, _scale(y.nums, *c), den)
    raw: Terms = {}
    _add_term_products(raw, x, y, 1)
    return cls.from_nums(x.n, reduce_nums(x.n, raw), den)


def sum_of_products(n: int, items: Iterable[tuple[_TermMap, _TermMap, int]]
                    ) -> SpherePoly | TSeries2:
    """sum k x y over the items (x, y, k), reduced once: x and y
    polynomials or series of dimension n, k an int.  The sum is a series
    when any factor is one.

    Every term-pair product goes into one raw term map over the lcm of the
    products' denominators, which is reduced once; normal forms are
    unique, so this equals the sum of the reduced products.
    """
    cls = SpherePoly
    used = []
    for x, y, k in items:
        if x.n != n or y.n != n:
            raise ValueError(f"dimension mismatch: not n={n}")
        if type(x) is TSeries2 or type(y) is TSeries2:
            cls = TSeries2
        if k and x.nums and y.nums:
            used.append((x, y, k, x.den * y.den))
    if not used:
        return cls.zero(n)
    den = math.lcm(*[d for *_, d in used])
    raw: Terms = {}
    for x, y, k, d in used:
        _add_term_products(raw, x, y, k * (den // d))
    return cls.from_nums(n, reduce_nums(n, raw), den)


# ---------------------------------------------------------------------------
# Symbolic volume factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, repr=False)
class VolumeFactor:
    """The total pseudohermitian volume of S^{2n+1}, kept symbolic.

    Equals 2^{n+1} pi^{n+1}; pi never enters the exact ring, so results are
    reported in the probability measure with this factor carried alongside.
    """

    two_exponent: int
    pi_exponent: int

    def __str__(self):
        return f"2^{self.two_exponent} * pi^{self.pi_exponent}"

    __repr__ = __str__


def volume_factor(n: int) -> VolumeFactor:
    return VolumeFactor(n + 1, n + 1)


# ---------------------------------------------------------------------------
# Term grammar
# ---------------------------------------------------------------------------

def parse_poly(text: str, n: int) -> SpherePoly:
    """The polynomial written ``(re,im) z1^a ... w1^b ...`` in the term
    grammar, read by :func:`grammar.parse_terms`, which states its rules."""
    return SpherePoly(n, parse_terms(text, n))
