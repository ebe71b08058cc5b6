"""Global frame calculus on S^{2n+1}.

The sphere carries a global overcomplete family of tangential fields and
dual forms built from the ambient coordinates,

    Z_jk = zbar_j d/dz_k - zbar_k d/dz_j,      theta_jk = z_j dz_k - z_k dz_j,

for 1 <= j < k <= n+1, together with the transverse field
T = (i/2) sum (z_a d/dz_a - zbar_a d/dzbar_a) and the contact form theta
normalized so theta(T) = 1.  The family is a tight frame: tangential
(1,0)-vectors satisfy V = sum theta_jk(V) Z_jk exactly on the sphere, with
a Parseval norm identity, which makes coefficient expansions of tensors
canonical and equality decidable.

Slot layout, known only here: a vector is its coefficient tuple over
(T, Z_jk..., Zbar_jk...), a 1-form over (theta, theta_jk..., thetabar_jk...),
pairs in :func:`index_pairs` order, entries in one ring (``SpherePoly`` or
``TSeries2``).  Forms pair with vectors through the Gram [1, H, conj H],
H[(lm),(rs)] = theta_lm(Z_rs), so H = 1 at n = 1.  A 2-form is its tuple
over the wedges e^i ^ e^j, i < j lexicographic.  By tightness df is the
tuple of frame derivatives, and d a = (X_i a_j - X_j a_i) + a_k d e^k with
the d e^k tabled once per n from df and wedge: d theta = 2i sum dz_a ^
dzbar_a, d theta_jk = 2 dz_j ^ dz_k.

Image tables: a frame field X_s is a fixed linear operator, so each slot
s has a ``ring.LazyTable``, one per n, from packed normal-form monomial
(see ``ring``) to its image's integer weights, times i/2 for T, which
``ring.apply_table`` applies.  The field's ambient coefficients times the
monomial's ambient derivatives (``ring.partial``), reduced, fill its entry
the first time it is met; no key is read here.  Every vector applies as
x(f) = sum_s x_s X_s(f), each X_s(f) read from the tables, whether slots
and f are polynomials or series; a shared frame field X_s and the
exterior derivative read X_s(f) straight from slot s's table.  A
series' image is computed per coefficient: the table is applied to each
order's terms without the order field (``TSeries2.orders``) and the
order is added back, so the tables stay keyed by plain
monomials.  The tight-frame projection
c -> conj(H) c H of a tensor's coefficients is fixed and linear too: it
has one table per input pair (:func:`_projections`), whose entry for a
monomial holds its reduced integer images at every output pair, filled
from products with H, so :func:`tight_expand` forms no product once its
entries are in.

Tanaka-Webster covariant data used throughout (round structure):

    nabla_T Z_jk = -i Z_jk,   nabla_T Zbar_jk = +i Zbar_jk,   nabla T = 0,
    nabla_{Z_jk} Z_pq = 0,
    nabla_X Ybar = pi_{0,1}[X, Ybar] for any holomorphic X: the Zbar
    block of the one bracket [X, Y], since the T and Z parts of Y
    bracket with X into T + T^{1,0}.

Sign conventions: the Levi pairing is the positive-definite coefficient
pairing sum v_a conj(w_a); the musical pairing used for the sharp map is
the opposite-sign evaluation sum dz_a(V) dzbar_a(W), so that
i dtheta-pairing (Z_lm, Zbar_jk) = theta_jk(Z_lm) holds on the nose.  Both
choices are reported by the conventions ledger.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Mapping

from .ring import (ExactScalar, Key, LazyTable, SpherePoly, Terms, TSeries2,
                   accumulate, apply_table, partial, sum_of_products)

__all__ = [
    "FrameVector",
    "FrameForm",
    "TensorField",
    "index_pairs",
    "reeb",
    "z_field",
    "zbar_field",
    "contact_form",
    "theta_form",
    "thetabar_form",
    "field_apply",
    "form_eval",
    "conjugate",
    "wedge",
    "df",
    "d",
    "levi_pairing",
    "sharp_pairing",
    "bracket",
    "covariant_T",
    "covariant_Z",
    "tight_expand",
]

Pair = tuple[int, int]
_Weights = tuple[tuple[Key, int], ...]
Ring = SpherePoly | TSeries2
Slots = tuple[Ring, ...]

_I = ExactScalar(0, 1)


def index_pairs(n: int) -> list[Pair]:
    """All frame index pairs j < k over 1..n+1."""
    return [(j, k) for j in range(1, n + 2) for k in range(j + 1, n + 2)]


@functools.cache
def _slot_of(n: int) -> Mapping[Pair, int]:
    """The slot of Z_jk (and of theta_jk); Zbar_jk's is len(pairs) later."""
    return MappingProxyType({jk: i for i, jk in enumerate(index_pairs(n), 1)})


def _slot(n: int, j: int, k: int) -> int:
    s = _slot_of(n).get((j, k))
    if s is None:
        raise ValueError(f"bad frame index pair {(j, k)!r} for n={n}")
    return s


def _width(n: int) -> int:
    return 2 * len(_slot_of(n)) + 1


def _unit(n: int, s: int) -> Slots:
    zero, one = SpherePoly.zero(n), SpherePoly.one(n)
    return tuple(one if i == s else zero for i in range(_width(n)))


@functools.cache
def _coords(n: int) -> tuple[tuple[SpherePoly, ...], tuple[SpherePoly, ...]]:
    """The coordinates (z_1..z_{n+1}) and (zbar_1..zbar_{n+1}), built once."""
    return (tuple(SpherePoly.z(n, a) for a in range(1, n + 2)),
            tuple(SpherePoly.w(n, a) for a in range(1, n + 2)))


class _SlotTuple:
    """An immutable slot tuple of dimension n, one ring entry per slot."""

    __slots__ = ("n", "slots")

    def __init__(self, n: int, slots: Iterable[Ring]):
        slots = tuple(slots)
        width = _width(n)
        if len(slots) != width:
            raise ValueError(f"n={n} takes {width} slots, not {len(slots)}")
        if any(c.n != n for c in slots):
            raise ValueError("component dimension mismatch")
        if len({type(c) for c in slots}) > 1:
            raise ValueError("slots mix polynomial and series entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "slots", slots)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        parts = [f"{i}:{c!r}" for i, c in enumerate(self.slots)
                 if not c.is_zero()]
        return f"{type(self).__name__}(n={self.n}, " + ", ".join(parts) + ")"


class FrameVector(_SlotTuple):
    """Tangential vector field: its slots over (T, Z_jk..., Zbar_jk...).

    It is the derivation sum_s x_s X_s over the frame fields X_s of
    :func:`_frame`; each of them annihilates sum z_a zbar_a - 1, so every
    vector does.
    """

    __slots__ = ()

    # -- type predicates ---------------------------------------------------
    def _blocks(self) -> tuple[Slots, Slots, Slots]:
        p = len(_slot_of(self.n))
        return self.slots[:1], self.slots[1:p + 1], self.slots[p + 1:]

    def is_holomorphic(self) -> bool:
        t, _, zb = self._blocks()
        return all(c.is_zero() for c in t + zb)

    def is_antiholomorphic(self) -> bool:
        t, z, _ = self._blocks()
        return all(c.is_zero() for c in t + z)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.slots)

    # -- algebra -------------------------------------------------------------
    def __add__(self, other: "FrameVector") -> "FrameVector":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return FrameVector(self.n, map(add, self.slots, other.slots))

    def __mul__(self, f) -> "FrameVector":
        return FrameVector(self.n, (c * f for c in self.slots))

    __rmul__ = __mul__

    def conjugate(self) -> "FrameVector":
        return FrameVector(self.n, conjugate(self.slots))

    # -- ambient picture ------------------------------------------------------
    def ambient(self) -> tuple[tuple[Ring, ...], tuple[Ring, ...]]:
        """Coefficients (v_a, w_a) of the derivation sum v_a d_a + w_a dbar_a,
        its values v_a = x(z_a) and w_a = x(zbar_a) on the coordinates."""
        return tuple(tuple(field_apply(self, c) for c in cs)
                     for cs in _coords(self.n))

    @staticmethod
    def from_ambient(n: int, v: Iterable[Ring],
                     w: Iterable[Ring]) -> "FrameVector":
        """Expand a tangential ambient derivation over the frame.

        The slots are theta(X), theta_jk(X) and thetabar_jk(X), read off
        the ambient coefficients; by tightness they reconstruct X, and
        that exactness is asserted.
        """
        v, w = tuple(v), tuple(w)
        zs, ws = _coords(n)
        tangency = theta_of = SpherePoly.zero(n)
        for a in range(n + 1):    # theta = i sum (z_a dzbar_a - zbar_a dz_a)
            zw, wv = _times(zs[a], w[a]), _times(ws[a], v[a])
            tangency = tangency + wv + zw
            theta_of = theta_of + zw - wv
        if not tangency.is_zero():
            raise ValueError("derivation is not tangent to the sphere")
        pairs = index_pairs(n)
        out = FrameVector(n, [_times(_I, theta_of)]
                          + [_times(zs[j - 1], v[k - 1])
                             - _times(zs[k - 1], v[j - 1]) for j, k in pairs]
                          + [_times(ws[j - 1], w[k - 1])
                             - _times(ws[k - 1], w[j - 1]) for j, k in pairs])
        if out.ambient() != (v, w):
            raise AssertionError("tight-frame reconstruction failed")
        return out

    def __eq__(self, other):
        if not isinstance(other, FrameVector):
            return NotImplemented
        return self.n == other.n and self.ambient() == other.ambient()


def _times(c, x: Ring) -> Ring:
    """c x, or x itself when x is zero: no product with a zero factor."""
    return x if x.is_zero() else c * x


def reeb(n: int) -> FrameVector:
    return _frame(n)[0]


def z_field(n: int, j: int, k: int) -> FrameVector:
    return _frame(n)[_slot(n, j, k)]


def zbar_field(n: int, j: int, k: int) -> FrameVector:
    return _frame(n)[_slot(n, j, k) + len(_slot_of(n))]


class FrameForm(_SlotTuple):
    """Degree-1 form: its slots over (theta, theta_jk..., thetabar_jk...).

    For n >= 2 the coframe is overcomplete, so equal forms can have
    different slots; two forms are equal when they agree on every frame
    field, since the frame spans.
    """

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, FrameForm):
            return NotImplemented
        return self.n == other.n and all(
            _pair(self.slots, x.slots) == _pair(other.slots, x.slots)
            for x in _frame(self.n))


def contact_form(n: int) -> FrameForm:
    return FrameForm(n, _unit(n, 0))


def theta_form(n: int, j: int, k: int) -> FrameForm:
    return FrameForm(n, _unit(n, _slot(n, j, k)))


def thetabar_form(n: int, j: int, k: int) -> FrameForm:
    return FrameForm(n, _unit(n, _slot(n, j, k) + len(_slot_of(n))))


def field_apply(x: FrameVector, f: Ring) -> Ring:
    """x(f) = sum_s x_s X_s(f) for a function or series f.

    A shared frame field X_s reads X_s(f) straight from its table
    (:func:`_field_image`).  Any other vector multiplies each nonzero
    X_s(f) by a nonzero x_s.  Slots and f may be polynomials or series;
    x(f) is a series when either is, zero too.
    """
    if x.n != f.n:
        raise ValueError("dimension mismatch")
    if type(x) is _FrameField:
        return _field_image(x.n, x.slot, f)
    parts = [c * part for s, c in enumerate(x.slots) if not c.is_zero()
             and not (part := _field_image(x.n, s, f)).is_zero()]
    if parts:
        return functools.reduce(add, parts)
    series = isinstance(x.slots[0], TSeries2) or isinstance(f, TSeries2)
    return (TSeries2 if series else SpherePoly).zero(x.n)


def _field_image(n: int, s: int, f: Ring, plus: int = 0) -> Ring:
    """X_s(f) + plus * f for a function or series f, plus * f added
    before T's factor i/2 (so T(f) + (i plus / 2) f): ``ring.apply_table``
    over the slot's table, once per order of a series, with no product
    and no reduction."""
    series = isinstance(f, TSeries2)
    table = _tables(n)[s]
    raws = []
    for part in (f.orders() if series else (f.nums,)):
        out: dict[int, Terms] = {}
        if part:
            apply_table(out, part, table)
        raw = out.get(0, {})
        if plus:
            accumulate(raw, part.items(), plus)
        raws.append(raw if s else {k: (-im, re) for k, (re, im)
                                   in raw.items()})
    den = f.den if s else 2 * f.den
    if series:
        return TSeries2.from_orders(n, raws, den)
    return SpherePoly.from_nums(n, raws[0], den)


def _image(n: int, s: int, key: Key) -> tuple[tuple[int, _Weights], ...]:
    """Slot s's image of the monomial ``key`` (over i/2 for T) from the
    field's ambient coefficients: the products v_a d_a and w_a dbar_a of
    the monomial, summed with one reduction."""
    p = sum_of_products(
        n, [(c, SpherePoly.from_nums(n, partial(n, {key: (1, 0)}, side, a),
                                     1), 1)
            for side, cs in enumerate(_ambients(n)[s])
            for a, c in enumerate(cs) if c.nums])
    return ((0, _weights(p)),) if p.nums else ()


def _weights(p: SpherePoly) -> _Weights:
    """The (key, weight) pairs of p, a real integer polynomial."""
    if p.den != 1 or any(im for _, im in p.nums.values()):
        raise AssertionError("image table weights must be real integers")
    return tuple((k, re) for k, (re, _) in p.nums.items())


@functools.cache
def _ambients(n: int) -> tuple[tuple[tuple[SpherePoly, ...],
                                     tuple[SpherePoly, ...]], ...]:
    """The ambient coefficients (v, w) of each frame field, by slot, T's
    over i/2.

    T = (i/2) sum (z_a d_a - zbar_a dbar_a), Z_jk = zbar_j d_k - zbar_k d_j
    and Zbar_jk = z_j dbar_k - z_k dbar_j.
    """
    z, zb = _coords(n)
    zeros = (SpherePoly.zero(n),) * (n + 1)

    def pair_field(c, j, k):    # c_j d_k - c_k d_j on one side
        return tuple(c[j - 1] if a == k - 1 else -c[k - 1] if a == j - 1
                     else zeros[a] for a in range(n + 1))
    pairs = index_pairs(n)
    return (((z, tuple(-c for c in zb)),)
            + tuple((pair_field(zb, j, k), zeros) for j, k in pairs)
            + tuple((zeros, pair_field(z, j, k)) for j, k in pairs))


@functools.cache
def _tables(n: int) -> tuple[LazyTable, ...]:
    """Each frame field's image table, by slot."""
    return tuple(LazyTable(functools.partial(_image, n, s))
                 for s in range(_width(n)))


class _FrameField(FrameVector):
    """The frame field X_s of slot s: the vector with slot s equal to 1
    and every other slot 0."""

    __slots__ = ("slot",)

    def __init__(self, n: int, s: int):
        super().__init__(n, _unit(n, s))
        object.__setattr__(self, "slot", s)


@functools.cache
def _frame(n: int) -> tuple[FrameVector, ...]:
    """The frame (T, Z_jk..., Zbar_jk...), one shared field per slot."""
    return tuple(_FrameField(n, s) for s in range(_width(n)))


# -- the form algebra on slot tuples -----------------------------------------

def conjugate(a: Slots) -> Slots:
    """Conjugate of a vector's or 1-form's slots: the blocks swap."""
    p = len(a) // 2
    return tuple(c.conjugate() for c in a[:1] + a[p + 1:] + a[1:p + 1])


def _pair(a: Slots, x: Slots) -> Ring:
    """a(x) for the slots of a 1-form and of a vector, through [1, H, conj H].

    conj H[(lm),(rs)] = H[(rs),(lm)], so the (0,1) block reads H transposed.
    """
    slot = _slot_of(a[0].n)
    p = len(slot)
    total = a[0] * x[0]
    for (lm, rs), g in _gram_right(a[0].n).items():
        if not g.is_zero():
            l, r = slot[lm], slot[rs]
            total = total + (a[l] * x[r] + a[p + r] * x[p + l]) * g
    return total


def wedge(a: Slots, b: Slots) -> Slots:
    """a ^ b of two 1-forms: a_i b_j - a_j b_i over each wedge (i, j)."""
    return tuple(a[i] * b[j] - a[j] * b[i]
                 for i, j in itertools.combinations(range(len(a)), 2))


def df(f: Ring) -> Slots:
    """The 1-form df of a function or series: its frame derivatives.

    df(V) = V(f) and V = sum e^s(V) X_s over the frame X by tightness, so
    the coefficient of e^s is X_s(f).
    """
    return tuple(field_apply(x, f) for x in _frame(f.n))


@functools.cache
def _d_base(n: int) -> tuple[Slots, ...]:
    """d of each coframe slot (theta, theta_jk..., thetabar_jk...).

    From the ambient forms, with dz_a = df(z_a): d theta = 2i sum_a dz_a ^
    dzbar_a, d theta_jk = 2 dz_j ^ dz_k, d thetabar_jk = 2 dzbar_j ^ dzbar_k.
    """
    zs, ws = _coords(n)
    dz = [df(z) for z in zs]
    dzb = [df(w) for w in ws]
    d_theta = tuple(sum(terms, SpherePoly.zero(n)) * ExactScalar(0, 2)
                    for terms in zip(*map(wedge, dz, dzb)))
    pairs = index_pairs(n)
    return ((d_theta,)
            + tuple(tuple(c * 2 for c in wedge(dz[j - 1], dz[k - 1]))
                    for j, k in pairs)
            + tuple(tuple(c * 2 for c in wedge(dzb[j - 1], dzb[k - 1]))
                    for j, k in pairs))


def d(a: Slots) -> Slots:
    """Exterior derivative of a 1-form, as a 2-form over :func:`wedge`'s order.

    Each coefficient is :func:`_d_wedge`'s.
    """
    return tuple(_d_wedge(a, i, j)
                 for i, j in itertools.combinations(range(len(a)), 2))


def _d_wedge(a: Slots, i: int, j: int) -> Ring:
    """The coefficient of d a over the wedge e^i ^ e^j, i < j.

    It is X_i(a_j) - X_j(a_i), each image read from the slot's table,
    plus the a_k d e^k terms of the base table.  No field is applied to a
    zero entry or to its own slot's entry.
    """
    n = a[0].n
    w = i * (2 * len(a) - i - 1) // 2 + j - i - 1     # wedge order
    out = type(a[0]).zero(n)
    if not a[j].is_zero():
        out = _field_image(n, i, a[j])
    if not a[i].is_zero():
        out = out - _field_image(n, j, a[i])
    for ak, dk in zip(a, _d_base(n)):
        if not (ak.is_zero() or dk[w].is_zero()):
            out = out + ak * dk[w]
    return out


def form_eval(alpha: FrameForm, x: FrameVector) -> Ring:
    """alpha(x), paired slot by slot through the frame Gram."""
    if alpha.n != x.n:
        raise ValueError("dimension mismatch")
    return _pair(alpha.slots, x.slots)


def levi_pairing(v: FrameVector, w: FrameVector) -> SpherePoly:
    """Positive-definite Hermitian pairing of holomorphic-type fields.

    Equals sum_a v_a conj(w_a) on ambient coefficients; the pairing of a
    frame field with itself restricts sum |v_a|^2 and is 1 for each Z_jk.
    """
    if v.n != w.n:
        raise ValueError("dimension mismatch")
    if not (v.is_holomorphic() and w.is_holomorphic()):
        raise ValueError("levi_pairing requires holomorphic-type fields")
    va, _ = v.ambient()
    wa, _ = w.ambient()
    return sum((x * y.conjugate() for x, y in zip(va, wa)),
               SpherePoly.zero(v.n))


def sharp_pairing(v: FrameVector, wbar: FrameVector) -> SpherePoly:
    """Evaluation sum_a dz_a(V) dzbar_a(Wbar) of the musical two-form.

    This is the pairing whose contraction realizes the sharp map:
    sharp_pairing(Z_lm, Zbar_jk) == theta_jk(Z_lm) for all index pairs.
    """
    if v.n != wbar.n:
        raise ValueError("dimension mismatch")
    va, _ = v.ambient()
    _, wb = wbar.ambient()
    return sum(map(mul, va, wb), SpherePoly.zero(v.n))


def bracket(x: FrameVector, y: FrameVector) -> FrameVector:
    """Lie bracket x(y) - y(x), computed on ambient coefficients and
    re-expanded; slots may be polynomials or series."""
    if x.n != y.n:
        raise ValueError("dimension mismatch")
    n = x.n
    xv, xw = x.ambient()
    yv, yw = y.ambient()
    v = []
    w = []
    for a in range(n + 1):
        v.append(field_apply(x, yv[a]) - field_apply(y, xv[a]))
        w.append(field_apply(x, yw[a]) - field_apply(y, xw[a]))
    return FrameVector.from_ambient(n, v, w)


class TensorField:
    """Type ((0,1);(1,0)) tensor sum c_{jk,lm} Zbar_jk (x) theta_lm.

    Coefficients over the overcomplete family are not unique; canonical
    coefficients are produced by :func:`tight_expand`, which makes equality
    and norms decidable.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int,
                 coeffs: Mapping[tuple[Pair, Pair], SpherePoly]):
        pairs = set(index_pairs(n))
        cs = {}
        for (jk, lm), c in coeffs.items():
            if jk not in pairs or lm not in pairs:
                raise ValueError(f"bad tensor index {(jk, lm)!r}")
            if c.n != n:
                raise ValueError("coefficient dimension mismatch")
            if not c.is_zero():
                cs[(jk, lm)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TensorField is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def lowered_form(self, x: FrameVector, y: FrameVector) -> SpherePoly:
        """Bilinear form sum c theta_jk(X) theta_lm(Y) on holomorphic pairs."""
        out = SpherePoly.zero(self.n)
        for ((j, k), (l, m)), c in self.coeffs.items():
            out = (out + c * form_eval(theta_form(self.n, j, k), x)
                   * form_eval(theta_form(self.n, l, m), y))
        return out

    def __eq__(self, other):
        if not isinstance(other, TensorField):
            return NotImplemented
        if self.n != other.n:
            return False
        return (tight_expand(self).coeffs == tight_expand(other).coeffs)

    def __repr__(self):
        parts = [f"{jk}{lm}:{c.to_grammar()}"
                 for (jk, lm), c in sorted(self.coeffs.items())]
        return f"TensorField(n={self.n}, " + "; ".join(parts) + ")"


@functools.cache
def _gram_right(n: int) -> Mapping[tuple[Pair, Pair], SpherePoly]:
    """H[(lm),(rs)] = theta_lm(Z_rs), built once per n.

    Read off the ambient coefficients v of Z_rs as z_l v_m - z_m v_l.  H
    is Hermitian and idempotent on the sphere.  The left Gram
    thetabar_pq(Zbar_jk) = conj H[(pq),(jk)] is therefore H[(jk),(pq)].
    """
    zs, _ = _coords(n)
    pairs = index_pairs(n)
    out = {}
    for rs, (v, _) in zip(pairs, _ambients(n)[1:]):
        for l, m in pairs:
            out[((l, m), rs)] = zs[l - 1] * v[m - 1] - zs[m - 1] * v[l - 1]
    return MappingProxyType(out)    # shared by every caller: read-only


@functools.cache
def _projections(n: int) -> Mapping[tuple[Pair, Pair], LazyTable]:
    """The image tables of c -> conj(H) c H by input pair (jk, lm), each
    keyed by monomial (:func:`_projection`)."""
    return MappingProxyType({
        jklm: LazyTable(functools.partial(_projection, n, jklm))
        for jklm in itertools.product(index_pairs(n), repeat=2)})


def _projection(n: int, jklm: tuple[Pair, Pair],
                key: Key) -> tuple[tuple[tuple[Pair, Pair], _Weights], ...]:
    """The projection image of the monomial ``key`` at input pair
    (jk, lm): for each output pair (pq, rs) with a nonzero image, the
    reduced weights of H[jk, pq] z^a zbar^b H[lm, rs].  H has real integer
    coefficients, so each image has integer weights."""
    h, pairs = _gram_right(n), index_pairs(n)
    jk, lm = jklm
    mono = SpherePoly.from_nums(n, {key: (1, 0)}, 1)
    left = [(pq, h[(jk, pq)] * mono) for pq in pairs]
    images = [((pq, rs), x * h[(lm, rs)]) for pq, x in left for rs in pairs]
    return tuple((o, _weights(p)) for o, p in images if p.nums)


def tight_expand(obj):
    """Canonical tight-frame coefficients.

    For a holomorphic or antiholomorphic FrameVector, returns the dict of
    expansion coefficients over {Z_jk} resp. {Zbar_jk} (theta_jk(V), resp.
    thetabar_jk(V)); re-assembling reproduces the field exactly.  For a
    TensorField, returns the TensorField with canonical coefficients
    c'_{pq,rs} = sum thetabar_pq(Zbar_jk) c_{jk,lm} theta_lm(Z_rs), i.e.
    c' = conj(H) c H with H the Gram of :func:`_gram_right`; the operation
    is idempotent.  The map is fixed and linear, so c' is the sum of each
    term's reduced images from :func:`_projections`, scaled by its
    numerator over the coefficients' common denominator: no product and
    no reduction once the entries are filled.
    """
    if isinstance(obj, FrameVector):
        form = (theta_form if obj.is_holomorphic() else thetabar_form
                if obj.is_antiholomorphic() else None)
        if form is None:
            raise ValueError("vector expansion needs a pure (1,0) or (0,1) "
                             "field")
        return {jk: form_eval(form(obj.n, *jk), obj)
                for jk in index_pairs(obj.n)}
    if not isinstance(obj, TensorField):
        raise TypeError("tight_expand accepts FrameVector or TensorField")
    n = obj.n
    tables = _projections(n)
    den = math.lcm(*(c.den for c in obj.coeffs.values()))
    raws: dict[tuple[Pair, Pair], Terms] = {}
    for jklm, c in obj.coeffs.items():
        f = den // c.den
        apply_table(raws, c.nums if f == 1 else
                    {key: (re * f, im * f) for key, (re, im) in c.nums.items()},
                    tables[jklm])
    return TensorField(n, {pqrs: SpherePoly.from_nums(n, raw, den)
                           for pqrs, raw in sorted(raws.items()) if raw})


# -- covariant differentiation ----------------------------------------------

def covariant_T(obj):
    """Covariant derivative along the transverse field T.

    Frame weights: Z_jk -> -i, Zbar_jk -> +i, T -> 0 on a FrameVector.
    A TensorField's coefficients sit on products theta_jk theta_lm, and
    the weights +i of the two theta factors add, giving coefficient
    T(c) + 2i c; a weight-m coefficient therefore returns i(m/2 + 2)
    times itself.  Each T(c) + i w c, for frame weight w, is one read of
    T's table with 2 w c added before T's factor i/2
    (:func:`_field_image`).
    """
    if isinstance(obj, FrameVector):
        p = len(_slot_of(obj.n))
        weights = (0,) + (-1,) * p + (1,) * p
        return FrameVector(obj.n, (
            c if c.is_zero() else _field_image(obj.n, 0, c, 2 * wt)
            for c, wt in zip(obj.slots, weights)))
    if isinstance(obj, TensorField):
        return TensorField(obj.n, {k: _field_image(obj.n, 0, c, 4)
                                   for k, c in obj.coeffs.items()})
    raise TypeError("covariant_T accepts FrameVector, TensorField")


def covariant_Z(direction: FrameVector, target: FrameVector) -> FrameVector:
    """Tanaka-Webster derivative along a holomorphic-type direction X.

    nabla_X T = 0 and nabla_X Z_pq = 0, so the T and Z slots are X applied
    to the target's.  nabla_X Ybar = pi_{0,1}[X, Ybar] for any holomorphic X: the
    T and Z parts of the target bracket with X into T + T^{1,0}, with
    zero Zbar slots, so the Zbar block is read off the one bracket [X, Y],
    and is zero, with no bracket formed, when Y has no Zbar part.
    """
    if direction.n != target.n:
        raise ValueError("dimension mismatch")
    if not direction.is_holomorphic():
        raise ValueError("direction must be holomorphic-type")
    t, z, zb = target._blocks()
    tz = tuple(field_apply(direction, c) for c in t + z)
    if any(not c.is_zero() for c in zb):
        _, _, zb = bracket(direction, target)._blocks()
    else:
        zb = (type(tz[0]).zero(direction.n),) * len(zb)
    return FrameVector(direction.n, tz + zb)
