"""Exact scalar and polynomial arithmetic on odd-dimensional spheres.

Everything in this module is exact.  Polynomials live on the unit sphere
S^{2n+1} in C^{n+1} and are kept in a canonical normal form modulo the
sphere relation z_1 zbar_1 + ... + z_{n+1} zbar_{n+1} = 1.  A polynomial
stores Gaussian-integer numerators, pairs of Python ints, over one positive
int denominator; the public scalar is :class:`ExactScalar`, a Gaussian
rational with ``fractions.Fraction`` parts.  No floats appear anywhere here.

Conventions:

* A monomial is ``z^a zbar^b`` for exponent tuples a, b of length n+1.
* Normal form: no stored monomial is divisible by z_1*zbar_1, the leading
  monomial of the sphere relation under graded lex order.  Reduction
  rewrites z_1^k zbar_1^k as (1 - sum_{j>=2} z_j zbar_j)^k, expanded once
  per (n, k), so each term reduces by one lookup.
* Integration is against the rotation-invariant probability measure;
  the pseudohermitian volume 2^{n+1} pi^{n+1} is carried separately as a
  symbolic factor (see :func:`volume_factor`) and never as a float.
* The circle action z -> e^{i t} z grades monomials by m = |a| - |b|.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from operator import add, sub
from types import MappingProxyType
from typing import Iterable, Mapping

__all__ = [
    "ExactScalar",
    "SpherePoly",
    "TSeries2",
    "VolumeFactor",
    "volume_factor",
    "parse_scalar",
    "parse_poly",
    "PolyParseError",
    "MAX_TERM_DEGREE",
    "accumulate",
    "reduce_nums",
    "sum_of_products",
    "inner",
    "norm2",
]

_RationalLike = int | Fraction


def _frac(x: _RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class ExactScalar:
    """A Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: _RationalLike = 0, im: _RationalLike = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("ExactScalar is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "ExactScalar":
        return ExactScalar(0, 0)

    @staticmethod
    def one() -> "ExactScalar":
        return ExactScalar(1, 0)

    @staticmethod
    def coerce(x: "ExactScalar | _RationalLike") -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        return ExactScalar(_frac(x), 0)

    # -- arithmetic ----------------------------------------------------
    # An operand of another type gets NotImplemented, so that a type that
    # knows scalars (a polynomial or series) can answer from its side.
    def __add__(self, other):
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        o = ExactScalar.coerce(other)
        return ExactScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        o = ExactScalar.coerce(other)
        return ExactScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return ExactScalar.coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        o = ExactScalar.coerce(other)
        return ExactScalar(self.re * o.re - self.im * o.im,
                           self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = ExactScalar.coerce(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero ExactScalar")
        return ExactScalar((self.re * o.re + self.im * o.im) / d,
                           (self.im * o.re - self.re * o.im) / d)

    def __neg__(self):
        return ExactScalar(-self.re, -self.im)

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # -- predicates -----------------------------------------------------
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactScalar(other, 0)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- serialization ----------------------------------------------------
    def serialize(self) -> str:
        """Canonical ``p/q+r/s*i`` string, lowest terms, round-trip exact."""
        sign = "+" if self.im >= 0 else "-"
        a = abs(self.im)
        return (f"{self.re.numerator}/{self.re.denominator}"
                f"{sign}{a.numerator}/{a.denominator}*i")

    def __repr__(self):
        return self.serialize()

    def __float__(self):
        if self.im != 0:
            raise ValueError("non-real ExactScalar has no float value")
        return float(self.re)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


# The exact scalar operand types; a bool is an int but is rejected by _frac.
_SCALAR_TYPES = (ExactScalar, int, Fraction)

_SCALAR_RE = re.compile(
    r"^\s*(-?\d+)/(\d+)\s*([+-])\s*(\d+)/(\d+)\*i\s*$")


def parse_scalar(text: str) -> ExactScalar:
    """Inverse of :meth:`ExactScalar.serialize`."""
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ValueError(f"bad ExactScalar literal: {text!r}")
    re_part = Fraction(int(m.group(1)), int(m.group(2)))
    im_part = Fraction(int(m.group(4)), int(m.group(5)))
    if m.group(3) == "-":
        im_part = -im_part
    return ExactScalar(re_part, im_part)


Exponents = tuple[int, ...]
TermKey = tuple[Exponents, Exponents]
Gaussian = tuple[int, int]
Terms = dict[TermKey, Gaussian]


def accumulate(dst: Terms, items: Iterable[tuple[TermKey, Gaussian]],
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


def _term_products(xs: Mapping[TermKey, Gaussian],
                   ys: Mapping[TermKey, Gaussian]):
    """The unreduced ambient product of each term of xs with each of ys."""
    return (((tuple(map(add, a1, a2)), tuple(map(add, b1, b2))),
             (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2))
            for (a1, b1), (r1, i1) in xs.items()
            for (a2, b2), (r2, i2) in ys.items())


def _multi_indices(width: int, total: int) -> Iterable[Exponents]:
    """Exponent tuples of length ``width`` with entries summing to <= total."""
    if width == 0:
        yield ()
        return
    for e in range(total + 1):
        for rest in _multi_indices(width - 1, total - e):
            yield (e,) + rest


@functools.cache
def _sphere_power(n: int, k: int) -> tuple[tuple[Exponents, int], ...]:
    """Normal form of z_1^k zbar_1^k, i.e. (1 - sum_{j>=2} z_j zbar_j)^k.

    Each entry ``(m, c)`` is the term c z^m zbar^m; m[0] == 0 and c is the
    signed multinomial coefficient k! / ((k - |m|)! prod m_j!).
    """
    out = []
    for m in _multi_indices(n, k):
        s = sum(m)
        c = math.factorial(k) // math.factorial(k - s)
        for e in m:
            c //= math.factorial(e)
        out.append(((0,) + m, -c if s & 1 else c))
    return tuple(out)


def reduce_nums(n: int, raw: Terms) -> Terms:
    """Division remainder modulo the sphere relation.

    Reduction is linear, so a term z^a zbar^b with k = min(a_1, b_1) maps
    to z^a' zbar^b' times the normal form of z_1^k zbar_1^k, where a' and
    b' drop k from the first exponent: one lookup per term.
    """
    out: Terms = {}
    reducible = []
    for key, c in raw.items():
        if key[0][0] and key[1][0]:
            reducible.append((key, c))
        else:
            out[key] = c
    accumulate(out, _expanded(n, reducible))
    return out


def _expanded(n: int, items: list[tuple[TermKey, Gaussian]]):
    """The terms of each item z^a zbar^b with z_1^k zbar_1^k replaced."""
    for (a, b), (re, im) in items:
        k = min(a[0], b[0])
        a0 = (a[0] - k,) + a[1:]
        b0 = (b[0] - k,) + b[1:]
        for m, c in _sphere_power(n, k):
            yield ((tuple(map(add, a0, m)), tuple(map(add, b0, m))),
                   (re * c, im * c))


def _split(c: ExactScalar) -> tuple[int, int, int]:
    """c as Gaussian-integer numerators over one positive denominator."""
    re, im = c.re, c.im
    d = math.lcm(re.denominator, im.denominator)
    return (re.numerator * (d // re.denominator),
            im.numerator * (d // im.denominator), d)


def _term_order(item):
    (a, b), _ = item
    return (sum(a) + sum(b), a, b)


class SpherePoly:
    """Polynomial function on S^{2n+1}, canonical modulo the sphere relation.

    The stored form is ``nums``, a ``{(a, b): (re, im)}`` map of
    Gaussian-integer numerators of normal-form monomials, over one positive
    integer ``den``; the gcd of every numerator and ``den`` is 1 and no
    zero term is kept.  Instances are immutable; every constructor and
    operation returns this canonical form, so ``==`` decides equality of
    functions on the sphere.
    """

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, terms: Mapping[TermKey, ExactScalar], *,
                 _normalized: bool = False):
        if n < 1:
            raise ValueError("dimension n must be >= 1")
        split = {}
        for (a, b), c in terms.items():
            if len(a) != n + 1 or len(b) != n + 1:
                raise ValueError("exponent tuple length must be n+1")
            split[(a, b)] = _split(c)
        den = math.lcm(*(d for _, _, d in split.values()))
        nums = {key: (re * (den // d), im * (den // d))
                for key, (re, im, d) in split.items() if re or im}
        if not _normalized:
            nums = reduce_nums(n, nums)
        _init(self, n, nums, den)

    def __setattr__(self, name, value):
        raise AttributeError("SpherePoly is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_nums(n: int, nums: Terms, den: int) -> "SpherePoly":
        """The polynomial sum nums[key] / den over normal-form keys.

        Takes ownership of ``nums``, which must hold no zero term and no
        monomial divisible by z_1 zbar_1; ``den`` must be positive.
        """
        p = object.__new__(SpherePoly)
        _init(p, n, nums, den)
        return p

    @staticmethod
    @functools.cache
    def zero(n: int) -> "SpherePoly":
        """The zero polynomial: one shared instance per n."""
        return SpherePoly.from_nums(n, {}, 1)

    @staticmethod
    def constant(n: int, c: "ExactScalar | _RationalLike") -> "SpherePoly":
        re, im, d = _split(ExactScalar.coerce(c))
        z = (0,) * (n + 1)
        return SpherePoly.from_nums(n, {(z, z): (re, im)} if re or im else {},
                                    d)

    @staticmethod
    def one(n: int) -> "SpherePoly":
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
        if not 1 <= j <= n + 1:
            raise ValueError(f"coordinate index {j} out of range 1..{n + 1}")
        b = tuple(1 if k == j - 1 else 0 for k in range(n + 1))
        return SpherePoly.monomial(n, (0,) * (n + 1), b)

    @property
    def terms(self) -> Mapping[TermKey, ExactScalar]:
        """Read-only ``{(a, b): ExactScalar}`` view of the coefficients."""
        d = self.den
        return MappingProxyType({
            key: ExactScalar(Fraction(re, d), Fraction(im, d))
            for key, (re, im) in self.nums.items()})

    # -- ring operations -----------------------------------------------
    def _check(self, other: "SpherePoly"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: n={self.n} vs n={other.n}")

    def _combine(self, other, sign: int) -> "SpherePoly":
        """self + sign * other over the lcm of the two denominators.

        A zero operand returns the other one as it is (instances are
        immutable), negated for ``0 - x``.
        """
        if not isinstance(other, SpherePoly):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            other = SpherePoly.constant(self.n, other)
        self._check(other)
        if not other.nums:
            return self
        if not self.nums:
            return other if sign > 0 else -other
        den = math.lcm(self.den, other.den)
        f = den // self.den
        nums = (dict(self.nums) if f == 1 else
                {key: (re * f, im * f) for key, (re, im) in self.nums.items()})
        accumulate(nums, other.nums.items(), sign * (den // other.den))
        return SpherePoly.from_nums(self.n, nums, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return SpherePoly.from_nums(
            self.n, {key: (-re, -im) for key, (re, im) in self.nums.items()},
            self.den)

    def _scaled(self, cr: int, ci: int, cd: int) -> "SpherePoly":
        """self times the Gaussian rational (cr + ci i) / cd, term by term."""
        return SpherePoly.from_nums(
            self.n, {key: (re * cr - im * ci, re * ci + im * cr)
                     for key, (re, im) in self.nums.items()}
            if cr or ci else {}, self.den * cd)

    def __mul__(self, other):
        if not isinstance(other, SpherePoly):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            return self._scaled(*_split(ExactScalar.coerce(other)))
        self._check(other)
        # a constant factor scales the other one's terms: no term pairs,
        # no reduction
        c = _constant_nums(other)
        if c is not None:
            return self._scaled(*c, other.den)
        c = _constant_nums(self)
        if c is not None:
            return other._scaled(*c, self.den)
        raw: Terms = {}
        accumulate(raw, _term_products(self.nums, other.nums))
        return SpherePoly.from_nums(self.n, reduce_nums(self.n, raw),
                                    self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of SpherePoly")
        out = SpherePoly.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "SpherePoly":
        return SpherePoly.from_nums(
            self.n,
            {(b, a): (re, -im) for (a, b), (re, im) in self.nums.items()},
            self.den)

    # -- structure -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.nums

    def is_real(self) -> bool:
        return self == self.conjugate()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpherePoly):
            if not isinstance(other, (int, Fraction, ExactScalar)):
                return NotImplemented
            other = SpherePoly.constant(self.n, other)
        return (self.n == other.n and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.n, self.den, frozenset(self.nums.items())))

    def constant_term(self) -> ExactScalar:
        z = (0,) * (self.n + 1)
        re, im = self.nums.get((z, z), (0, 0))
        return ExactScalar(Fraction(re, self.den), Fraction(im, self.den))

    def is_constant(self) -> bool:
        return all(sum(a) + sum(b) == 0 for a, b in self.nums)

    # -- circle grading ---------------------------------------------------
    def fourier_project(self, m: int) -> "SpherePoly":
        """Sum of terms with holomorphic minus antiholomorphic degree m."""
        return SpherePoly.from_nums(
            self.n, {key: c for key, c in self.nums.items()
                     if sum(key[0]) - sum(key[1]) == m}, self.den)

    def modes(self) -> list[int]:
        """Sorted list of circle-action weights present."""
        return sorted({sum(a) - sum(b) for a, b in self.nums})

    def phase_substitute(self, u: ExactScalar) -> "SpherePoly":
        """Substitute z -> u z, zbar -> conj(u) zbar for a unit scalar u."""
        if u.abs2() != 1:
            raise ValueError("phase must have |u| = 1")
        ub = u.conjugate()
        out: dict[TermKey, ExactScalar] = {}
        for (a, b), c in self.terms.items():
            f = ExactScalar.one()
            for _ in range(sum(a)):
                f = f * u
            for _ in range(sum(b)):
                f = f * ub
            out[(a, b)] = c * f
        return SpherePoly(self.n, out, _normalized=True)

    # -- integration -------------------------------------------------------
    def integral(self) -> ExactScalar:
        """Integral over the sphere in the probability measure.

        Monomial rule: int z^a zbar^b = 0 unless a == b, in which case it is
        n! * prod(a_j!) / (n + |a|)!.
        """
        return _moments(self.n, [(a, c) for (a, b), c in self.nums.items()
                                 if a == b], self.den)

    # -- textual form -------------------------------------------------------
    def sorted_terms(self) -> list[tuple[TermKey, ExactScalar]]:
        return sorted(self.terms.items(), key=_term_order)

    def to_grammar(self) -> str:
        """Render in the textual term grammar; ``(re,im) z1^a ... w1^b ...``."""
        if not self.nums:
            return "(0/1,0/1)"
        d = self.den
        parts = []
        for (a, b), (re, im) in sorted(self.nums.items(), key=_term_order):
            gr, gi = math.gcd(re, d), math.gcd(im, d)
            factors = [f"({re // gr}/{d // gr},{im // gi}/{d // gi})"]
            for j, e in enumerate(a):
                if e:
                    factors.append(f"z{j + 1}" + (f"^{e}" if e != 1 else ""))
            for j, e in enumerate(b):
                if e:
                    factors.append(f"w{j + 1}" + (f"^{e}" if e != 1 else ""))
            parts.append(" ".join(factors))
        return " ".join(parts)

    def __repr__(self):
        return f"SpherePoly(n={self.n}, {self.to_grammar()})"


def sum_of_products(n: int, items: Iterable[tuple[SpherePoly, Terms, int]]
                    ) -> SpherePoly:
    """sum x * (ys / d) over the items (x, ys, d), reduced once.

    Each second factor is a numerator map ys over a positive denominator
    d.  Every term-pair product goes into one raw term map over the lcm
    of the items' denominators, which is reduced once; normal forms are
    unique, so this equals the sum of the reduced products.
    """
    used = []
    for x, ys, d in items:
        if x.n != n:
            raise ValueError(f"dimension mismatch: n={x.n} vs n={n}")
        if x.nums and ys:
            used.append((x, ys, x.den * d))
    den = math.lcm(*(d for _, _, d in used))
    raw: Terms = {}
    for x, ys, d in used:
        accumulate(raw, _term_products(x.nums, ys), den // d)
    return SpherePoly.from_nums(n, reduce_nums(n, raw), den)


def _constant_nums(p: SpherePoly) -> Gaussian | None:
    """The numerator of a constant polynomial p (0 included), else None."""
    if len(p.nums) > 1:
        return None
    z = (0,) * (p.n + 1)
    return p.nums.get((z, z), None if p.nums else (0, 0))


def _init(p: SpherePoly, n: int, nums: Terms, den: int) -> None:
    """Set p's slots to nums / den with common factors divided out."""
    if den != 1:
        g = den
        for re, im in nums.values():
            g = math.gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            nums = {key: (re // g, im // g) for key, (re, im) in nums.items()}
            den //= g
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "nums", nums)
    object.__setattr__(p, "den", den)


def _moments(n: int, diag: list[tuple[Exponents, Gaussian]],
             den: int) -> ExactScalar:
    """sum (re + i im) int |z^a|^2 / den over the items (a, (re, im)).

    int |z^a|^2 = n! prod(a_j!) / (n + |a|)!; the sum runs over the common
    denominator (n + top)!, top the largest |a| present.
    """
    if not diag:
        return ExactScalar.zero()
    top = math.factorial(n + max(sum(a) for a, _ in diag))
    re_sum = im_sum = 0
    for a, (re, im) in diag:
        w = math.factorial(n) * top // math.factorial(n + sum(a))
        for e in a:
            w *= math.factorial(e)
        re_sum += re * w
        im_sum += im * w
    d = top * den
    return ExactScalar(Fraction(re_sum, d), Fraction(im_sum, d))


def _shift_groups(p: SpherePoly) -> dict[Exponents, list]:
    """p's terms (a, b, (re, im)), grouped by the exponent shift a - b."""
    groups: dict[Exponents, list] = {}
    for (a, b), c in p.nums.items():
        groups.setdefault(tuple(map(sub, a, b)), []).append((a, b, c))
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
    diag = [item for shift, group in left.items()
            for item in _shift_pairs(group, right.get(shift, ()))]
    return _moments(p.n, diag, p.den * q.den)


def _shift_pairs(left: list, right: list) -> list:
    """The ambient monomials of int p * conj(q) from one shift group each.

    Each term c z^a zbar^b of ``left`` with each c' z^a' zbar^b' of
    ``right`` gives (a + b', c conj(c')), the exponents and numerator of
    the product's diagonal monomial.
    """
    return [(tuple(map(add, a1, b2)), (r1 * r2 + i1 * i2, i1 * r2 - r1 * i2))
            for a1, _, (r1, i1) in left
            for _, b2, (r2, i2) in right]


def norm2(p: SpherePoly) -> ExactScalar:
    """L^2 norm squared in the probability measure, :func:`inner` (p, p)."""
    v = inner(p, p)
    if v.im != 0:
        raise AssertionError("norm squared must be real")
    return v


# ---------------------------------------------------------------------------
# Truncated power series in the deformation parameter
# ---------------------------------------------------------------------------

class TSeries2:
    """Degree-2 truncated series c0 + c1 t + c2 t^2 with SpherePoly entries.

    All ring operations truncate at order 2 exactly; nothing of order t^3
    is ever retained.  Most coefficients met in practice are zero, so a
    product of two series multiplies only the pairs of nonzero
    coefficients, and a polynomial or scalar operand multiplies (or, for
    ``+`` and ``-``, enters) the coefficients directly, never lifted to a
    series first.
    """

    __slots__ = ("n", "c0", "c1", "c2")

    def __init__(self, c0: SpherePoly, c1: SpherePoly | None = None,
                 c2: SpherePoly | None = None):
        n = c0.n
        c1 = SpherePoly.zero(n) if c1 is None else c1
        c2 = SpherePoly.zero(n) if c2 is None else c2
        if c1.n != n or c2.n != n:
            raise ValueError("series coefficients must share a dimension")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    def __setattr__(self, name, value):
        raise AttributeError("TSeries2 is immutable")

    @staticmethod
    def constant(n: int, c: "ExactScalar | _RationalLike") -> "TSeries2":
        return TSeries2(SpherePoly.constant(n, c))

    @staticmethod
    def zero(n: int) -> "TSeries2":
        return TSeries2(SpherePoly.zero(n))

    def _coeffs(self) -> tuple[SpherePoly, SpherePoly, SpherePoly]:
        return (self.c0, self.c1, self.c2)

    def is_zero(self) -> bool:
        return not (self.c0.nums or self.c1.nums or self.c2.nums)

    def __add__(self, other):
        if isinstance(other, TSeries2):
            return TSeries2(self.c0 + other.c0, self.c1 + other.c1,
                            self.c2 + other.c2)
        return TSeries2(self.c0 + other, self.c1, self.c2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TSeries2):
            return TSeries2(self.c0 - other.c0, self.c1 - other.c1,
                            self.c2 - other.c2)
        return TSeries2(self.c0 - other, self.c1, self.c2)

    def __rsub__(self, other):
        return TSeries2(other - self.c0, -self.c1, -self.c2)

    def __neg__(self):
        return TSeries2(-self.c0, -self.c1, -self.c2)

    def __mul__(self, other):
        if not isinstance(other, TSeries2):
            if isinstance(other, SpherePoly):
                self.c0._check(other)
            elif not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            return TSeries2(*(c if c.is_zero() else c * other
                              for c in self._coeffs()))
        self.c0._check(other.c0)
        # c_k = sum_{i+j=k} a_i b_j over the pairs with both factors
        # nonzero; adding to a zero polynomial costs nothing
        zero = SpherePoly.zero(self.n)
        out = [zero, zero, zero]
        b = other._coeffs()
        for i, x in enumerate(self._coeffs()):
            if x.is_zero():
                continue
            for j, y in enumerate(b[:3 - i]):
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y
        return TSeries2(*out)

    __rmul__ = __mul__

    def conjugate(self) -> "TSeries2":
        return TSeries2(self.c0.conjugate(), self.c1.conjugate(),
                        self.c2.conjugate())

    def integral(self) -> tuple[ExactScalar, ExactScalar, ExactScalar]:
        return (self.c0.integral(), self.c1.integral(), self.c2.integral())

    def fractional_power(self, exponent: Fraction) -> "TSeries2":
        """(1 + e)^s by exact binomial truncation; requires c0 == 1."""
        if self.c0 != SpherePoly.one(self.n):
            raise ValueError("fractional_power needs constant term 1")
        s = Fraction(exponent)
        e1, e2 = self.c1, self.c2
        lin = e1 * ExactScalar(s)
        quad = e2 * ExactScalar(s) + (e1 * e1) * ExactScalar(s * (s - 1) / 2)
        return TSeries2(SpherePoly.one(self.n), lin, quad)

    def __eq__(self, other):
        if not isinstance(other, TSeries2):
            return NotImplemented
        return (self.c0, self.c1, self.c2) == (other.c0, other.c1, other.c2)

    def __repr__(self):
        return (f"TSeries2({self.c0.to_grammar()} | {self.c1.to_grammar()} |"
                f" {self.c2.to_grammar()})")


# ---------------------------------------------------------------------------
# Symbolic volume factor
# ---------------------------------------------------------------------------

class VolumeFactor:
    """The total pseudohermitian volume of S^{2n+1}, kept symbolic.

    Equals 2^{n+1} pi^{n+1}; pi never enters the exact ring, so results are
    reported in the probability measure with this factor carried alongside.
    """

    __slots__ = ("two_exponent", "pi_exponent")

    def __init__(self, two_exponent: int, pi_exponent: int):
        object.__setattr__(self, "two_exponent", two_exponent)
        object.__setattr__(self, "pi_exponent", pi_exponent)

    def __setattr__(self, name, value):
        raise AttributeError("VolumeFactor is immutable")

    def __eq__(self, other):
        return (isinstance(other, VolumeFactor)
                and self.two_exponent == other.two_exponent
                and self.pi_exponent == other.pi_exponent)

    def __str__(self):
        return f"2^{self.two_exponent} * pi^{self.pi_exponent}"

    __repr__ = __str__


def volume_factor(n: int) -> VolumeFactor:
    return VolumeFactor(n + 1, n + 1)


# ---------------------------------------------------------------------------
# Term grammar parser
# ---------------------------------------------------------------------------

class PolyParseError(ValueError):
    """Parse failure with 1-based line/column position and bare message."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


# Cap on a parsed term's degree and on the `verify` and `spectrum` degree
# bounds.  It bounds run size only: reduction is one lookup per term.
MAX_TERM_DEGREE = 12

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<coeff>\(\s*(-?\d+)(?:/(\d+))?\s*,\s*(-?\d+)(?:/(\d+))?\s*\))"
    r"|(?P<var>[zw])(?P<idx>\d+)(?:\^(?P<exp>\d+))?"
    r"|(?P<plus>\+)")


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    last = text.rfind("\n", 0, pos)
    return line, pos - last


def parse_poly(text: str, n: int) -> SpherePoly:
    """Parse the term grammar ``(re,im) z1^a ... w1^b ...`` (terms juxtaposed).

    ``wk`` denotes zbar_k; a bare variable means exponent 1; '+' between
    terms is optional.  Rationals may be given as ``p/q`` or plain ``p``.
    The text must hold at least one term.  Each term's total degree,
    before reduction, is at most :data:`MAX_TERM_DEGREE`.
    """
    pos = 0
    terms: list[tuple[TermKey, ExactScalar]] = []
    cur: tuple[list[int], list[int], ExactScalar] | None = None

    def fail(message: str, at: int):
        line, col = _line_col(text, at)
        raise PolyParseError(message, line, col)

    def integer(m: re.Match, group: int | str, default: int = 1) -> int:
        digits = m.group(group)
        if digits is None:
            return default
        try:
            return int(digits)
        except ValueError:      # beyond sys.get_int_max_str_digits()
            fail(f"integer literal of {len(digits)} digits is too long",
                 m.start(group))

    def flush():
        nonlocal cur
        if cur is not None:
            a, b, c = cur
            terms.append((((tuple(a), tuple(b))), c))
            cur = None

    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            fail(f"unexpected character {text[pos]!r}", pos)
        if m.group("ws") or m.group("plus"):
            pos = m.end()
            continue
        if m.group("coeff"):
            flush()
            re_num, re_den = integer(m, 3), integer(m, 4)
            im_num, im_den = integer(m, 5), integer(m, 6)
            if re_den == 0 or im_den == 0:
                fail("zero denominator", pos)
            cur = ([0] * (n + 1), [0] * (n + 1),
                   ExactScalar(Fraction(re_num, re_den),
                               Fraction(im_num, im_den)))
        else:
            if cur is None:
                fail("variable before coefficient", pos)
            j = integer(m, "idx")
            if not 1 <= j <= n + 1:
                fail(f"index {j} out of range 1..{n + 1} for n={n}", pos)
            e = integer(m, "exp")
            if m.group("var") == "z":
                cur[0][j - 1] += e
            else:
                cur[1][j - 1] += e
            degree = sum(cur[0]) + sum(cur[1])
            if degree > MAX_TERM_DEGREE:
                fail(f"term degree {degree} exceeds the cap "
                     f"{MAX_TERM_DEGREE}", pos)
        pos = m.end()
    flush()
    if not terms:
        fail("expected a term", len(text))
    acc: dict[TermKey, ExactScalar] = {}
    for k, c in terms:
        acc[k] = acc[k] + c if k in acc else c
    return SpherePoly(n, acc)
