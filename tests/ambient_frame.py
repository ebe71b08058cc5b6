"""Reference ambient routes for the frame tests.

``ambient`` below builds a vector's ambient coefficients (v_a, w_a) from
the closed forms of the frame fields, combined with the vector's slots,
and ``field_apply`` applies the derivation sum v_a d_a + w_a dbar_a the
way ``crsphere.frames.field_apply`` did before it summed every product
into one reduction and before the frame fields kept image tables: one
normalized product v_a d_a f or w_a dbar_a f per ambient coordinate,
added up one at a time.  Neither reads ``crsphere.frames``'s tables or
ambient coefficients.  ``test_frames.py`` checks against it the table
route that every vector takes, cold (filling the tables from the frame
fields' ambient coefficients) and warm.

The rest of this module is the reference for ``test_oracle3.py``.

``crsphere.oracle3`` holds the deformed frame Z_1(t) as its components
over the base frame (T, Z_1, Zbar_1) of ``crsphere.frames``, Z_1 = Z_12.  Here Z_1(t) is built instead as an
ambient derivation sum v_a d_a + w_a dbar_a with series coefficients, from
the closed-form ambient coefficients of ``ambient``, and the base coframe
(theta, theta^1, theta^1bar) is evaluated on it through the ambient
coordinates.  This is the route the oracle took before it used the slot
form; it is kept only as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction

from crsphere.frames import FrameVector, index_pairs, z_field
from crsphere.ring import ExactScalar, SpherePoly, TSeries2


def partial(p: SpherePoly, side: int, a: int) -> SpherePoly:
    """d/dz_a (side 0) or d/dzbar_a (side 1) of p, ``a`` 0-based."""
    out = {}
    for key, c in p.terms.items():
        e = key[side]
        if e[a]:
            low = e[:a] + (e[a] - 1,) + e[a + 1:]
            out[(low, key[1]) if side == 0 else (key[0], low)] = c * e[a]
    return SpherePoly(p.n, out)


def ambient(x: FrameVector) -> tuple[list, list]:
    """(v_a, w_a) of x = sum_s x_s X_s, from the closed forms
    T = (i/2) sum (z_a d_a - zbar_a dbar_a), Z_jk = zbar_j d_k - zbar_k d_j
    and Zbar_jk = z_j dbar_k - z_k dbar_j."""
    n = x.n
    zs = [SpherePoly.z(n, a) for a in range(1, n + 2)]
    ws = [SpherePoly.w(n, a) for a in range(1, n + 2)]
    half_i = ExactScalar(0, Fraction(1, 2))
    pairs = index_pairs(n)
    p = len(pairs)
    t, zc, zbc = x.slots[0], x.slots[1:p + 1], x.slots[p + 1:]
    v = [t * zs[a] * half_i for a in range(n + 1)]
    w = [t * ws[a] * -half_i for a in range(n + 1)]
    for (j, k), c, cb in zip(pairs, zc, zbc):
        v[k - 1] = v[k - 1] + c * ws[j - 1]
        v[j - 1] = v[j - 1] - c * ws[k - 1]
        w[k - 1] = w[k - 1] + cb * zs[j - 1]
        w[j - 1] = w[j - 1] - cb * zs[k - 1]
    return v, w


def field_apply(x: FrameVector, f: SpherePoly) -> SpherePoly:
    """x(f), one normalized product per ambient coefficient of x."""
    v, w = ambient(x)
    out = SpherePoly.zero(f.n)
    for a in range(f.n + 1):
        if not v[a].is_zero():
            out = out + v[a] * partial(f, 0, a)
        if not w[a].is_zero():
            out = out + w[a] * partial(f, 1, a)
    return out


N = 1
_ZS = (SpherePoly.z(N, 1), SpherePoly.z(N, 2))
_ZBS = (SpherePoly.w(N, 1), SpherePoly.w(N, 2))
_I = ExactScalar(0, 1)

Vector = tuple[tuple[TSeries2, TSeries2], tuple[TSeries2, TSeries2]]


def levi_norm(x: Vector) -> TSeries2:
    """Levi pairing of x = (v, w) with itself: sum v conj(v) - conj(w) w."""
    v, w = x
    out = TSeries2.zero(N)
    for a in range(2):
        out = out + v[a] * v[a].conjugate() - w[a].conjugate() * w[a]
    return out


def conjugate(x: Vector) -> Vector:
    v, w = x
    return (tuple(s.conjugate() for s in w), tuple(s.conjugate() for s in v))


def eval_base(x: Vector) -> tuple[TSeries2, TSeries2, TSeries2]:
    """(theta(x), theta^1(x), theta^1bar(x)) of the base coframe."""
    v, w = x
    th = TSeries2.zero(N)
    for a in range(2):
        th = th + w[a] * _ZS[a] * _I - v[a] * _ZBS[a] * _I
    return (th, _ZS[0] * v[1] - _ZS[1] * v[0],
            _ZBS[0] * w[1] - _ZBS[1] * w[0])


def deformed_frame(e: SpherePoly, tweak: SpherePoly | None = None,
                   phase: ExactScalar | None = None) -> Vector:
    """u (1 + t^2 g)(Z_1 - i (t E + t^2 G) Zbar_1), g its renormalizer.

    g is read off the ambient Levi norm of the unscaled vector, so that
    the scaled one has Levi norm 1 through t^2.
    """
    z1 = z_field(N, 1, 2)
    z1v, _ = ambient(z1)
    _, zb1w = ambient(z1.conjugate())
    zero = SpherePoly.zero(N)
    lin = e * ExactScalar(0, -1)
    quad = zero if tweak is None else tweak * ExactScalar(0, -1)
    raw = (tuple(TSeries2(z1v[a]) for a in range(2)),
           tuple(TSeries2(zero, lin * zb1w[a], quad * zb1w[a])
                 for a in range(2)))
    gamma = levi_norm(raw).c2 * Fraction(-1, 2)
    scale = TSeries2(SpherePoly.one(N), zero, gamma)
    if phase is not None:
        scale = scale * phase
    return tuple(tuple(s * scale for s in part) for part in raw)
