"""The textual term grammar ``(re,im) z1^a ... w1^b ...``, read into terms.

:func:`parse_terms` tokenizes a text into ``{(a, b): ExactScalar}``, the
exponent tuples of each monomial z^a zbar^b and its summed coefficient;
``ring.parse_poly`` builds the polynomial from them, and
``SpherePoly.to_grammar`` writes the grammar back.  This module reads no
monomial key and imports only :mod:`crsphere.scalar`; ``ring`` re-exports
:class:`PolyParseError` and :data:`MAX_TERM_DEGREE`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalar import ExactScalar, _literal_int

__all__ = ["parse_terms", "PolyParseError", "MAX_TERM_DEGREE"]


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


def parse_terms(text: str, n: int
                ) -> dict[tuple[tuple[int, ...], tuple[int, ...]],
                          ExactScalar]:
    """The terms of the grammar ``(re,im) z1^a ... w1^b ...`` (terms
    juxtaposed) as ``{(a, b): coefficient}``, equal monomials summed.

    ``wk`` denotes zbar_k; a bare variable means exponent 1; '+' between
    terms is optional.  Rationals may be given as ``p/q`` or plain ``p``.
    The text must hold at least one term.  Each term's total degree,
    before reduction, is at most :data:`MAX_TERM_DEGREE`.
    """
    pos = 0
    terms = []
    cur: tuple[list[int], list[int], ExactScalar] | None = None

    def fail(message: str, at: int):
        line, col = _line_col(text, at)
        raise PolyParseError(message, line, col)

    def integer(m: re.Match, group: int | str, default: int = 1) -> int:
        digits = m.group(group)
        if digits is None:
            return default
        try:
            return _literal_int(digits)
        except ValueError as exc:
            fail(str(exc), m.start(group))

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
    acc = {}
    for k, c in terms:
        acc[k] = acc[k] + c if k in acc else c
    return acc
