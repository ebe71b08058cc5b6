"""Exact Gaussian-rational scalars.

:class:`ExactScalar` is a Gaussian rational stored as Gaussian-integer
numerators over one positive int denominator, in lowest terms, the way
a ``ring`` polynomial stores each coefficient; its ``re`` and ``im`` read
as ``fractions.Fraction``.  :func:`parse_scalar` reads the canonical text
of :meth:`ExactScalar.serialize` back.  This module reads no monomial key
and imports nothing from ``crsphere``; ``ring`` re-exports both names.

A scalar is made without a constructor by :func:`_scalar`, refuses
assignment and deletion of its slots, and copies and pickles through
``__reduce__``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = ["ExactScalar", "parse_scalar"]

_RationalLike = int | Fraction


def _frac(x: _RationalLike) -> tuple[int, int]:
    """An exact rational as (numerator, denominator) in lowest terms."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int) and not isinstance(x, bool):
        return x, 1
    raise TypeError(f"not an exact rational: {x!r}")


_set = object.__setattr__


def _scalar(re: int, im: int, den: int) -> "ExactScalar":
    """The ExactScalar (re + im i) / den for den > 0, put in lowest terms."""
    g = math.gcd(re, im, den)
    if g != 1:
        re, im, den = re // g, im // g, den // g
    s = object.__new__(ExactScalar)
    _set(s, "_re", re)
    _set(s, "_im", im)
    _set(s, "_den", den)
    return s


def _split(x: "ExactScalar | _RationalLike") -> tuple[int, int, int]:
    """An exact scalar as (re, im, den): Gaussian-integer numerators over
    one positive denominator, in lowest terms."""
    if isinstance(x, ExactScalar):
        return x._re, x._im, x._den
    num, den = _frac(x)
    return num, 0, den


class ExactScalar:
    """A Gaussian rational re + im*i with exact Fraction parts.

    Stored like one ``ring.SpherePoly`` coefficient: Gaussian-integer
    numerators over one positive denominator, in lowest terms.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re: _RationalLike = 0, im: _RationalLike = 0):
        rn, rd = _frac(re)
        im_n, im_d = _frac(im)
        d = math.lcm(rd, im_d)     # p/q, r/s in lowest terms: so is this
        _set(self, "_re", rn * (d // rd))
        _set(self, "_im", im_n * (d // im_d))
        _set(self, "_den", d)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("ExactScalar is immutable")

    def __delattr__(self, name):
        raise AttributeError("ExactScalar is immutable")

    def __reduce__(self):
        return _scalar, (self._re, self._im, self._den)

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "ExactScalar":
        return _scalar(0, 0, 1)

    @staticmethod
    def one() -> "ExactScalar":
        return _scalar(1, 0, 1)

    @staticmethod
    def coerce(x: "ExactScalar | _RationalLike") -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        return _scalar(*_split(x))

    # -- arithmetic ----------------------------------------------------
    # An operand of another type gets NotImplemented, so that a type that
    # knows scalars (a polynomial or series) can answer from its side.
    def __add__(self, other):
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        r, i, d = _split(other)
        e = self._den
        return _scalar(self._re * d + r * e, self._im * d + i * e, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        r, i, d = _split(other)
        e = self._den
        return _scalar(self._re * d - r * e, self._im * d - i * e, d * e)

    def __rsub__(self, other):
        return ExactScalar.coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        r, i, d = _split(other)
        sr, si = self._re, self._im
        return _scalar(sr * r - si * i, sr * i + si * r, self._den * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        r, i, d = _split(other)
        n2 = r * r + i * i
        if n2 == 0:
            raise ZeroDivisionError("division by zero ExactScalar")
        # (sr + si i) / e * d (r - i i) / (r^2 + i^2)
        sr, si = self._re, self._im
        return _scalar((sr * r + si * i) * d, (si * r - sr * i) * d,
                       self._den * n2)

    def __neg__(self):
        return _scalar(-self._re, -self._im, self._den)

    def conjugate(self) -> "ExactScalar":
        return _scalar(self._re, -self._im, self._den)

    def abs2(self) -> Fraction:
        return Fraction(self._re * self._re + self._im * self._im,
                        self._den * self._den)

    # -- predicates -----------------------------------------------------
    def is_zero(self) -> bool:
        return not (self._re or self._im)

    def is_real(self) -> bool:
        return not self._im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, _SCALAR_TYPES) or isinstance(other, bool):
            return NotImplemented
        # lowest terms over a positive denominator are unique
        return (self._re, self._im, self._den) == _split(other)

    def __hash__(self):     # a real scalar hashes as the rational it equals
        return hash((self.re, self.im) if self._im else self.re)

    # -- serialization ----------------------------------------------------
    def serialize(self) -> str:
        """Canonical ``p/q+r/s*i`` string, lowest terms, round-trip exact."""
        re, im, d = self._re, self._im, self._den
        gr, gi = math.gcd(re, d), math.gcd(im, d)
        return (f"{re // gr}/{d // gr}{'+' if im >= 0 else '-'}"
                f"{abs(im) // gi}/{d // gi}*i")

    def __repr__(self):
        return self.serialize()

    def __float__(self):
        if self._im:
            raise ValueError("non-real ExactScalar has no float value")
        return float(self.re)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


# The exact scalar operand types; a bool is an int but is rejected by _frac.
_SCALAR_TYPES = (ExactScalar, int, Fraction)

_SCALAR_RE = re.compile(
    r"^\s*(-?\d+)/(\d+)\s*([+-])\s*(\d+)/(\d+)\*i\s*$")


def _literal_int(digits: str) -> int:
    """A literal's digits as an int, for scalars and the term grammar."""
    try:
        return int(digits)
    except ValueError:      # beyond sys.get_int_max_str_digits()
        raise ValueError(f"integer literal of {len(digits)} digits is too "
                         "long") from None


def parse_scalar(text: str) -> ExactScalar:
    """Inverse of :meth:`ExactScalar.serialize`."""
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ValueError(f"bad ExactScalar literal: {text!r}")
    try:
        re_num, re_den, im_num, im_den = map(_literal_int, m.group(1, 2, 4, 5))
    except ValueError as exc:
        raise ValueError(f"{exc} in ExactScalar literal: {text!r}") from None
    if re_den == 0 or im_den == 0:
        raise ValueError(f"zero denominator in ExactScalar literal: {text!r}")
    im_part = Fraction(im_num, im_den)
    if m.group(3) == "-":
        im_part = -im_part
    return ExactScalar(Fraction(re_num, re_den), im_part)
