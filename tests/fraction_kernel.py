"""Reference kernel for the differential tests in ``test_kernel.py``.

Sphere polynomials here are ``{(a, b): ExactScalar}`` term dicts whose
coefficients are pairs of ``fractions.Fraction``, and every operation works
term by term on those scalars.  Reduction modulo the sphere relation pops
terms from a stack and rewrites one z_1 zbar_1 factor at a time, which
costs about (n+1)^k steps on z_1^k zbar_1^k.  This is the arithmetic
``crsphere.ring`` and ``crsphere.spectral`` used before their integer
kernel; it is slow and kept only as an independent oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from crsphere.ring import ExactScalar

Terms = dict


def add_term(dst: Terms, key, c: ExactScalar) -> None:
    """``dst[key] += c``, keeping no zero coefficient."""
    prev = dst.get(key)
    s = c if prev is None else prev + c
    if s:
        dst[key] = s
    elif prev is not None:
        del dst[key]


def reduced(n: int, items) -> Terms:
    """Rewrite z_1 zbar_1 -> 1 - sum_{j>=2} z_j zbar_j until none is left."""
    out: Terms = {}
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


def mul(n: int, s: Terms, t: Terms) -> Terms:
    raw: Terms = {}
    for (a1, b1), c1 in s.items():
        for (a2, b2), c2 in t.items():
            k = (tuple(x + y for x, y in zip(a1, a2)),
                 tuple(x + y for x, y in zip(b1, b2)))
            add_term(raw, k, c1 * c2)
    return reduced(n, raw.items())


def combine(s: Terms, t: Terms, sign: int) -> Terms:
    out = dict(s)
    for k, c in t.items():
        add_term(out, k, c * sign)
    return out


def scale(s: Terms, c: ExactScalar) -> Terms:
    return {k: v * c for k, v in s.items() if v * c}


def conjugate(s: Terms) -> Terms:
    return {(b, a): c.conjugate() for (a, b), c in s.items()}


def integral(n: int, s: Terms) -> ExactScalar:
    total = ExactScalar.zero()
    for (a, b), c in s.items():
        if a == b:
            num = math.factorial(n)
            for e in a:
                num *= math.factorial(e)
            total = total + c * Fraction(num, math.factorial(n + sum(a)))
    return total


def norm2(n: int, s: Terms) -> ExactScalar:
    return integral(n, mul(n, s, conjugate(s)))


def eigenvalue(p: int, q: int, n: int) -> Fraction:
    return Fraction(p * q) + Fraction(n * (p + q), 2)


def amb_box(p: Terms) -> Terms:
    out: Terms = {}
    for (a, b), c in p.items():
        for j in range(len(a)):
            if a[j] and b[j]:
                aj = a[:j] + (a[j] - 1,) + a[j + 1:]
                bj = b[:j] + (b[j] - 1,) + b[j + 1:]
                add_term(out, (aj, bj), c * (a[j] * b[j]))
    return out


def amb_mul_r2(p: Terms, n: int) -> Terms:
    out: Terms = {}
    for (a, b), c in p.items():
        for j in range(n + 1):
            aj = a[:j] + (a[j] + 1,) + a[j + 1:]
            bj = b[:j] + (b[j] + 1,) + b[j + 1:]
            add_term(out, (aj, bj), c)
    return out


def peel_layers(p: Terms, deg_p: int, deg_q: int, n: int) -> dict:
    """Harmonic H_k with p = sum_k |z|^{2k} H_k, by box^k peeling."""
    layers = {}
    remaining = dict(p)
    for k in range(min(deg_p, deg_q), -1, -1):
        bk = dict(remaining)
        for _ in range(k):
            bk = amb_box(bk)
        if not bk:
            continue
        s = (deg_p - k) + (deg_q - k)
        factor = 1
        for j in range(1, k + 1):
            factor *= j * (n + s + j)
        h = {t: c * Fraction(1, factor) for t, c in bk.items()}
        layers[k] = h
        lifted = h
        for _ in range(k):
            lifted = amb_mul_r2(lifted, n)
        for t, c in lifted.items():
            add_term(remaining, t, -c)
    assert not remaining, "harmonic peeling left a residue"
    return layers


def harmonic_components(n: int, s: Terms) -> dict:
    """{(p, q): normal-form terms of the (p, q) harmonic component}."""
    by_bidegree: dict = {}
    for (a, b), c in s.items():
        by_bidegree.setdefault((sum(a), sum(b)), {})[(a, b)] = c
    lifts: dict = {}
    for (p, q), amb in sorted(by_bidegree.items()):
        for k, h in peel_layers(amb, p, q, n).items():
            acc = lifts.setdefault((p - k, q - k), {})
            for t, c in h.items():
                add_term(acc, t, c)
    return {key: reduced(n, amb.items()) for key, amb in lifts.items() if amb}


def sublaplacian(n: int, s: Terms) -> Terms:
    out = amb_box(s)
    for (a, b), c in s.items():
        add_term(out, (a, b), -c * eigenvalue(sum(a), sum(b), n))
    return out


def to_grammar(s: Terms) -> str:
    if not s:
        return "(0/1,0/1)"
    parts = []
    for (a, b), c in sorted(s.items(), key=lambda kv: (
            sum(kv[0][0]) + sum(kv[0][1]), kv[0][0], kv[0][1])):
        factors = [f"({c.re.numerator}/{c.re.denominator},"
                   f"{c.im.numerator}/{c.im.denominator})"]
        for j, e in enumerate(a):
            if e:
                factors.append(f"z{j + 1}" + (f"^{e}" if e != 1 else ""))
        for j, e in enumerate(b):
            if e:
                factors.append(f"w{j + 1}" + (f"^{e}" if e != 1 else ""))
        parts.append(" ".join(factors))
    return " ".join(parts)


def inner(n: int, s: Terms, t: Terms) -> ExactScalar:
    """int s * conj(t), through the reduced product."""
    return integral(n, mul(n, s, conjugate(t)))
