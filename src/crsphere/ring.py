"""Exact scalar and polynomial arithmetic on odd-dimensional spheres.

Everything in this module is exact: coefficients are Gaussian rationals
(pairs of ``fractions.Fraction``), polynomials live on the unit sphere
S^{2n+1} in C^{n+1} and are kept in a canonical normal form modulo the
sphere relation z_1 zbar_1 + ... + z_{n+1} zbar_{n+1} = 1.  No floats
appear anywhere here.

Conventions:

* A monomial is ``z^a zbar^b`` for exponent tuples a, b of length n+1.
* Normal form: no stored monomial is divisible by z_1*zbar_1, the leading
  monomial of the sphere relation under graded lex order.  Reduction
  rewrites z_1 zbar_1 -> 1 - sum_{j>=2} z_j zbar_j and terminates because
  the z_1-exponent strictly drops.
* Integration is against the rotation-invariant probability measure;
  the pseudohermitian volume 2^{n+1} pi^{n+1} is carried separately as a
  symbolic factor (see :func:`volume_factor`) and never as a float.
* The circle action z -> e^{i t} z grades monomials by m = |a| - |b|.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
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
    "add_term",
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
    def i() -> "ExactScalar":
        return ExactScalar(0, 1)

    @staticmethod
    def coerce(x: "ExactScalar | _RationalLike") -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        return ExactScalar(_frac(x), 0)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        o = ExactScalar.coerce(other)
        return ExactScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = ExactScalar.coerce(other)
        return ExactScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return ExactScalar.coerce(other) - self

    def __mul__(self, other):
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


def add_term(dst: dict[TermKey, ExactScalar], key: TermKey,
             c: ExactScalar) -> None:
    """``dst[key] += c`` on a term dict, keeping no zero coefficient."""
    prev = dst.get(key)
    s = c if prev is None else prev + c
    if s:
        dst[key] = s
    elif prev is not None:
        del dst[key]


def _reduced(n: int, items: Iterable[tuple[TermKey, ExactScalar]]) -> dict:
    """Division remainder modulo the sphere relation.

    Rewrites every monomial divisible by z_1*zbar_1 using
    z_1 zbar_1 = 1 - sum_{j>=2} z_j zbar_j until none remains.
    """
    out: dict[TermKey, ExactScalar] = {}
    stack = list(items)
    while stack:
        (a, b), c = stack.pop()
        if not c:
            continue
        if a[0] >= 1 and b[0] >= 1:
            a0 = (a[0] - 1,) + a[1:]
            b0 = (b[0] - 1,) + b[1:]
            stack.append(((a0, b0), c))
            for j in range(1, n + 1):
                aj = a0[:j] + (a0[j] + 1,) + a0[j + 1:]
                bj = b0[:j] + (b0[j] + 1,) + b0[j + 1:]
                stack.append(((aj, bj), -c))
        else:
            add_term(out, (a, b), c)
    return out


class SpherePoly:
    """Polynomial function on S^{2n+1}, canonical modulo the sphere relation.

    Instances are immutable; every constructor and operation returns the
    normal form, so ``==`` decides equality of functions on the sphere.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[TermKey, ExactScalar], *,
                 _normalized: bool = False):
        if n < 1:
            raise ValueError("dimension n must be >= 1")
        for (a, b) in terms:
            if len(a) != n + 1 or len(b) != n + 1:
                raise ValueError("exponent tuple length must be n+1")
        t = dict(terms) if _normalized else _reduced(n, terms.items())
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", t)

    def __setattr__(self, name, value):
        raise AttributeError("SpherePoly is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(n: int) -> "SpherePoly":
        return SpherePoly(n, {}, _normalized=True)

    @staticmethod
    def constant(n: int, c: "ExactScalar | _RationalLike") -> "SpherePoly":
        c = ExactScalar.coerce(c)
        z = (0,) * (n + 1)
        return SpherePoly(n, {(z, z): c} if c else {}, _normalized=True)

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

    # -- ring operations -----------------------------------------------
    def _check(self, other: "SpherePoly"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: n={self.n} vs n={other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            other = SpherePoly.constant(self.n, ExactScalar.coerce(other))
        self._check(other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            add_term(t, k, c)
        return SpherePoly(self.n, t, _normalized=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, SpherePoly)
                       else -ExactScalar.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return SpherePoly(self.n, {k: -c for k, c in self.terms.items()},
                          _normalized=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            c = ExactScalar.coerce(other)
            if not c:
                return SpherePoly.zero(self.n)
            return SpherePoly(self.n,
                              {k: v * c for k, v in self.terms.items()},
                              _normalized=True)
        self._check(other)
        raw: dict[TermKey, ExactScalar] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (tuple(x + y for x, y in zip(a1, a2)),
                     tuple(x + y for x, y in zip(b1, b2)))
                s = raw.get(k)
                p = c1 * c2
                raw[k] = p if s is None else s + p
        return SpherePoly(self.n, raw)

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
        return SpherePoly(self.n,
                          {(b, a): c.conjugate()
                           for (a, b), c in self.terms.items()},
                          _normalized=True)

    # -- structure -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        return self == self.conjugate()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ExactScalar)):
            other = SpherePoly.constant(self.n, ExactScalar.coerce(other))
        if not isinstance(other, SpherePoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def constant_term(self) -> ExactScalar:
        z = ((0,) * (self.n + 1),) * 2
        return self.terms.get(z, ExactScalar.zero())

    def is_constant(self) -> bool:
        return all(sum(a) + sum(b) == 0 for a, b in self.terms)

    # -- circle grading ---------------------------------------------------
    def fourier_project(self, m: int) -> "SpherePoly":
        """Sum of terms with holomorphic minus antiholomorphic degree m."""
        return SpherePoly(self.n,
                          {k: c for k, c in self.terms.items()
                           if sum(k[0]) - sum(k[1]) == m},
                          _normalized=True)

    def modes(self) -> list[int]:
        """Sorted list of circle-action weights present."""
        return sorted({sum(a) - sum(b) for a, b in self.terms})

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
        total = ExactScalar.zero()
        nfact = math.factorial(self.n)
        for (a, b), c in self.terms.items():
            if a != b:
                continue
            num = nfact
            for e in a:
                num *= math.factorial(e)
            val = Fraction(num, math.factorial(self.n + sum(a)))
            total = total + c * val
        return total

    # -- textual form -------------------------------------------------------
    def sorted_terms(self) -> list[tuple[TermKey, ExactScalar]]:
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]),
                                      kv[0][0], kv[0][1]))

    def to_grammar(self) -> str:
        """Render in the textual term grammar; ``(re,im) z1^a ... w1^b ...``."""
        if not self.terms:
            return "(0/1,0/1)"
        parts = []
        for (a, b), c in self.sorted_terms():
            coeff = (f"({c.re.numerator}/{c.re.denominator},"
                     f"{c.im.numerator}/{c.im.denominator})")
            factors = []
            for j, e in enumerate(a):
                if e:
                    factors.append(f"z{j + 1}" + (f"^{e}" if e != 1 else ""))
            for j, e in enumerate(b):
                if e:
                    factors.append(f"w{j + 1}" + (f"^{e}" if e != 1 else ""))
            parts.append(" ".join([coeff] + factors))
        return " ".join(parts)

    def __repr__(self):
        return f"SpherePoly(n={self.n}, {self.to_grammar()})"


def norm2(p: SpherePoly) -> ExactScalar:
    """L^2 norm squared in the probability measure, int p * conj(p)."""
    v = (p * p.conjugate()).integral()
    if v.im != 0:
        raise AssertionError("norm squared must be real")
    return v


# ---------------------------------------------------------------------------
# Truncated power series in the deformation parameter
# ---------------------------------------------------------------------------

class TSeries2:
    """Degree-2 truncated series c0 + c1 t + c2 t^2 with SpherePoly entries.

    All ring operations truncate at order 2 exactly; nothing of order t^3
    is ever retained.  The truncation order is fixed here; raising it would
    mean widening the coefficient tuple and every convolution below.
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

    def __add__(self, other):
        o = self._coerce(other)
        return TSeries2(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return TSeries2(self.c0 - o.c0, self.c1 - o.c1, self.c2 - o.c2)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return TSeries2(-self.c0, -self.c1, -self.c2)

    def _coerce(self, other) -> "TSeries2":
        if isinstance(other, TSeries2):
            return other
        if isinstance(other, SpherePoly):
            return TSeries2(other)
        return TSeries2.constant(self.n, ExactScalar.coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        return TSeries2(self.c0 * o.c0,
                        self.c0 * o.c1 + self.c1 * o.c0,
                        self.c0 * o.c2 + self.c1 * o.c1 + self.c2 * o.c0)

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


# Cap on a parsed term's total degree.  Reduction modulo the sphere
# relation branches on every z_1 zbar_1 factor, so its cost grows
# exponentially in the degree.
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
    Each term's total degree, before reduction, is at most
    :data:`MAX_TERM_DEGREE`.
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
        return SpherePoly.zero(n)
    acc: dict[TermKey, ExactScalar] = {}
    for k, c in terms:
        add_term(acc, k, c)
    return SpherePoly(n, acc)
