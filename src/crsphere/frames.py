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

Tanaka-Webster covariant data used throughout (round structure):

    nabla_T Z_jk = -i Z_jk,   nabla_T Zbar_jk = +i Zbar_jk,   nabla T = 0,
    nabla_{Z_jk} Z_pq = 0,
    nabla_{Z_jk} Zbar_lm = projection of [Z_jk, Zbar_lm] onto the
    antiholomorphic sub-bundle.

Sign conventions: the Levi pairing is the positive-definite coefficient
pairing sum v_a conj(w_a); the musical pairing used for the sharp map is
the opposite-sign evaluation sum dz_a(V) dzbar_a(W), so that
i dtheta-pairing (Z_lm, Zbar_jk) = theta_jk(Z_lm) holds on the nose.  Both
choices are reported by the conventions ledger.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .ring import ExactScalar, SpherePoly

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
    "levi_pairing",
    "sharp_pairing",
    "sharp_inverse",
    "bracket",
    "covariant_T",
    "covariant_Z",
    "tight_expand",
]

Pair = tuple[int, int]
FrameKey = str | tuple[str, int, int]   # "T" | ("Z", j, k) | ("Zb", j, k)
FormKey = str | tuple[str, int, int]    # "th" | ("th", j, k) | ("thb", j, k)


def index_pairs(n: int) -> list[Pair]:
    """All frame index pairs j < k over 1..n+1."""
    return [(j, k) for j in range(1, n + 2) for k in range(j + 1, n + 2)]


# -- ambient derivatives on normal-form representatives ---------------------

def _partial(p: SpherePoly, side: int, a: int) -> SpherePoly:
    """d/dz_a (side 0) or d/dzbar_a (side 1) on the stored representative.

    ``a`` is the 0-based coordinate index.  Lowering one exponent keeps a
    term in normal form and sends distinct terms to distinct terms, so the
    result needs no reduction.
    """
    out = {}
    for key, c in p.terms.items():
        e = key[side]
        if e[a]:
            low = e[:a] + (e[a] - 1,) + e[a + 1:]
            out[(low, key[1]) if side == 0 else (key[0], low)] = c * e[a]
    return SpherePoly(p.n, out, _normalized=True)


class FrameVector:
    """Tangential vector field with SpherePoly components over the frame.

    Component keys: "T", ("Z", j, k), ("Zb", j, k).  The induced ambient
    derivation always annihilates sum z_a zbar_a - 1 because every frame
    element does.
    """

    __slots__ = ("n", "components", "_ambient")

    def __init__(self, n: int, components: Mapping[FrameKey, SpherePoly]):
        comps = {}
        for key, c in components.items():
            self._check_key(n, key)
            if c.n != n:
                raise ValueError("component dimension mismatch")
            if not c.is_zero():
                comps[key] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_ambient", None)

    def __setattr__(self, name, value):
        raise AttributeError("FrameVector is immutable")

    @staticmethod
    def _check_key(n: int, key: FrameKey):
        if key == "T":
            return
        if (isinstance(key, tuple) and len(key) == 3 and key[0] in ("Z", "Zb")
                and 1 <= key[1] < key[2] <= n + 1):
            return
        raise ValueError(f"bad frame key {key!r} for n={n}")

    # -- type predicates ---------------------------------------------------
    def is_holomorphic(self) -> bool:
        return all(isinstance(k, tuple) and k[0] == "Z" for k in self.components)

    def is_antiholomorphic(self) -> bool:
        return all(isinstance(k, tuple) and k[0] == "Zb" for k in self.components)

    def is_zero(self) -> bool:
        return not self.components

    # -- algebra -------------------------------------------------------------
    def __add__(self, other: "FrameVector") -> "FrameVector":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        comps = dict(self.components)
        for k, c in other.components.items():
            s = comps.get(k)
            comps[k] = c if s is None else s + c
        return FrameVector(self.n, comps)

    def __sub__(self, other: "FrameVector") -> "FrameVector":
        return self + (other * -1)

    def __mul__(self, f) -> "FrameVector":
        if not isinstance(f, SpherePoly):
            f = SpherePoly.constant(self.n, ExactScalar.coerce(f))
        return FrameVector(self.n,
                           {k: c * f for k, c in self.components.items()})

    __rmul__ = __mul__

    def conjugate(self) -> "FrameVector":
        comps = {}
        for k, c in self.components.items():
            if k == "T":
                comps["T"] = c.conjugate()
            else:
                kind, j, kk = k
                comps[("Zb" if kind == "Z" else "Z", j, kk)] = c.conjugate()
        return FrameVector(self.n, comps)

    # -- ambient picture ------------------------------------------------------
    def ambient(self) -> tuple[tuple[SpherePoly, ...], tuple[SpherePoly, ...]]:
        """Coefficients (v_a, w_a) of the derivation sum v_a d_a + w_a dbar_a."""
        if self._ambient is not None:
            return self._ambient
        n = self.n
        v = [SpherePoly.zero(n) for _ in range(n + 1)]
        w = [SpherePoly.zero(n) for _ in range(n + 1)]
        half_i = ExactScalar(0, Fraction(1, 2))
        for key, c in self.components.items():
            if key == "T":
                for a in range(n + 1):
                    v[a] = v[a] + c * SpherePoly.z(n, a + 1) * half_i
                    w[a] = w[a] - c * SpherePoly.w(n, a + 1) * half_i
            else:
                kind, j, k = key
                if kind == "Z":
                    v[k - 1] = v[k - 1] + c * SpherePoly.w(n, j)
                    v[j - 1] = v[j - 1] - c * SpherePoly.w(n, k)
                else:
                    w[k - 1] = w[k - 1] + c * SpherePoly.z(n, j)
                    w[j - 1] = w[j - 1] - c * SpherePoly.z(n, k)
        amb = (tuple(v), tuple(w))
        object.__setattr__(self, "_ambient", amb)
        return amb

    @staticmethod
    def from_ambient(n: int, v: Iterable[SpherePoly],
                     w: Iterable[SpherePoly]) -> "FrameVector":
        """Expand a tangential ambient derivation over the frame.

        Splits off the theta(X) T part and expands the remaining
        holomorphic/antiholomorphic pieces with tight-frame coefficients;
        exactness of the reconstruction is asserted.
        """
        v = tuple(v)
        w = tuple(w)
        tangency = SpherePoly.zero(n)
        for a in range(n + 1):
            tangency = (tangency + v[a] * SpherePoly.w(n, a + 1)
                        + w[a] * SpherePoly.z(n, a + 1))
        if not tangency.is_zero():
            raise ValueError("derivation is not tangent to the sphere")
        # theta(X) with theta = i sum (z_a dzbar_a - zbar_a dz_a)
        theta_of = SpherePoly.zero(n)
        for a in range(n + 1):
            theta_of = (theta_of
                        + SpherePoly.z(n, a + 1) * w[a] * ExactScalar(0, 1)
                        - SpherePoly.w(n, a + 1) * v[a] * ExactScalar(0, 1))
        half_i = ExactScalar(0, Fraction(1, 2))
        hv = [v[a] - theta_of * SpherePoly.z(n, a + 1) * half_i
              for a in range(n + 1)]
        hw = [w[a] + theta_of * SpherePoly.w(n, a + 1) * half_i
              for a in range(n + 1)]
        comps: dict[FrameKey, SpherePoly] = {}
        if not theta_of.is_zero():
            comps["T"] = theta_of
        for (j, k) in index_pairs(n):
            cz = SpherePoly.z(n, j) * hv[k - 1] - SpherePoly.z(n, k) * hv[j - 1]
            cw = SpherePoly.w(n, j) * hw[k - 1] - SpherePoly.w(n, k) * hw[j - 1]
            if not cz.is_zero():
                comps[("Z", j, k)] = cz
            if not cw.is_zero():
                comps[("Zb", j, k)] = cw
        out = FrameVector(n, comps)
        ov, ow = out.ambient()
        if ov != v or ow != w:
            raise AssertionError("tight-frame reconstruction failed")
        return out

    def __eq__(self, other):
        if not isinstance(other, FrameVector):
            return NotImplemented
        return self.n == other.n and self.ambient() == other.ambient()

    def __repr__(self):
        parts = [f"{k}:{c.to_grammar()}" for k, c in
                 sorted(self.components.items(), key=lambda kv: str(kv[0]))]
        return f"FrameVector(n={self.n}, " + ", ".join(parts) + ")"


def reeb(n: int) -> FrameVector:
    return FrameVector(n, {"T": SpherePoly.one(n)})


def z_field(n: int, j: int, k: int) -> FrameVector:
    return FrameVector(n, {("Z", j, k): SpherePoly.one(n)})


def zbar_field(n: int, j: int, k: int) -> FrameVector:
    return FrameVector(n, {("Zb", j, k): SpherePoly.one(n)})


class FrameForm:
    """Degree-1 form with SpherePoly components over the dual family.

    Component keys: "th" (the contact form, theta(T) = 1), ("th", j, k),
    ("thb", j, k).
    """

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: Mapping[FormKey, SpherePoly]):
        comps = {}
        for key, c in components.items():
            self._check_key(n, key)
            if c.n != n:
                raise ValueError("component dimension mismatch")
            if not c.is_zero():
                comps[key] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("FrameForm is immutable")

    @staticmethod
    def _check_key(n: int, key: FormKey):
        if key == "th":
            return
        if (isinstance(key, tuple) and len(key) == 3
                and key[0] in ("th", "thb")
                and 1 <= key[1] < key[2] <= n + 1):
            return
        raise ValueError(f"bad form key {key!r} for n={n}")

    def __add__(self, other: "FrameForm") -> "FrameForm":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        comps = dict(self.components)
        for k, c in other.components.items():
            s = comps.get(k)
            comps[k] = c if s is None else s + c
        return FrameForm(self.n, comps)

    def __mul__(self, f) -> "FrameForm":
        if not isinstance(f, SpherePoly):
            f = SpherePoly.constant(self.n, ExactScalar.coerce(f))
        return FrameForm(self.n, {k: c * f for k, c in self.components.items()})

    __rmul__ = __mul__

    def evaluate(self, x: FrameVector) -> SpherePoly:
        if self.n != x.n:
            raise ValueError("dimension mismatch")
        n = self.n
        v, w = x.ambient()
        total = SpherePoly.zero(n)
        for key, c in self.components.items():
            if key == "th":
                val = SpherePoly.zero(n)
                for a in range(n + 1):
                    val = (val + SpherePoly.z(n, a + 1) * w[a]
                           - SpherePoly.w(n, a + 1) * v[a])
                val = val * ExactScalar(0, 1)
            else:
                kind, j, k = key
                if kind == "th":
                    val = (SpherePoly.z(n, j) * v[k - 1]
                           - SpherePoly.z(n, k) * v[j - 1])
                else:
                    val = (SpherePoly.w(n, j) * w[k - 1]
                           - SpherePoly.w(n, k) * w[j - 1])
            total = total + c * val
        return total

    def __eq__(self, other):
        if not isinstance(other, FrameForm):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    def __repr__(self):
        parts = [f"{k}:{c.to_grammar()}" for k, c in
                 sorted(self.components.items(), key=lambda kv: str(kv[0]))]
        return f"FrameForm(n={self.n}, " + ", ".join(parts) + ")"


def contact_form(n: int) -> FrameForm:
    return FrameForm(n, {"th": SpherePoly.one(n)})


def theta_form(n: int, j: int, k: int) -> FrameForm:
    return FrameForm(n, {("th", j, k): SpherePoly.one(n)})


def thetabar_form(n: int, j: int, k: int) -> FrameForm:
    return FrameForm(n, {("thb", j, k): SpherePoly.one(n)})


def field_apply(x: FrameVector, f: SpherePoly) -> SpherePoly:
    """Apply the tangential derivation to a sphere function."""
    if x.n != f.n:
        raise ValueError("dimension mismatch")
    v, w = x.ambient()
    out = SpherePoly.zero(f.n)
    for a in range(f.n + 1):
        if not v[a].is_zero():
            out = out + v[a] * _partial(f, 0, a)
        if not w[a].is_zero():
            out = out + w[a] * _partial(f, 1, a)
    return out


def form_eval(alpha: FrameForm, x: FrameVector) -> SpherePoly:
    return alpha.evaluate(x)


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
    out = SpherePoly.zero(v.n)
    for a in range(v.n + 1):
        out = out + va[a] * wa[a].conjugate()
    return out


def sharp_pairing(v: FrameVector, wbar: FrameVector) -> SpherePoly:
    """Evaluation sum_a dz_a(V) dzbar_a(Wbar) of the musical two-form.

    This is the pairing whose contraction realizes the sharp map:
    sharp_pairing(Z_lm, Zbar_jk) == theta_jk(Z_lm) for all index pairs.
    """
    if v.n != wbar.n:
        raise ValueError("dimension mismatch")
    va, _ = v.ambient()
    _, wb = wbar.ambient()
    out = SpherePoly.zero(v.n)
    for a in range(v.n + 1):
        out = out + va[a] * wb[a]
    return out


def sharp_inverse(x: FrameVector) -> FrameForm:
    """Map the antiholomorphic frame field Zbar_jk to its form theta_jk."""
    if len(x.components) != 1:
        raise ValueError("sharp_inverse expects a single frame field")
    ((key, c),) = x.components.items()
    if key == "T" or key[0] != "Zb" or c != SpherePoly.one(x.n):
        raise ValueError("sharp_inverse expects one antiholomorphic frame field")
    return theta_form(x.n, key[1], key[2])


def bracket(x: FrameVector, y: FrameVector) -> FrameVector:
    """Lie bracket, computed on ambient coefficients and re-expanded."""
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

    def __add__(self, other: "TensorField") -> "TensorField":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = cs.get(k)
            cs[k] = c if s is None else s + c
        return TensorField(self.n, cs)

    def __mul__(self, f) -> "TensorField":
        if not isinstance(f, SpherePoly):
            f = SpherePoly.constant(self.n, ExactScalar.coerce(f))
        return TensorField(self.n, {k: c * f for k, c in self.coeffs.items()})

    __rmul__ = __mul__

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

    H is Hermitian and idempotent on the sphere.  The left Gram
    thetabar_pq(Zbar_jk) = conj H[(pq),(jk)] is therefore H[(jk),(pq)].
    """
    out = {}
    for lm in index_pairs(n):
        form = theta_form(n, *lm)
        for rs in index_pairs(n):
            out[(lm, rs)] = form_eval(form, z_field(n, *rs))
    return MappingProxyType(out)    # shared by every caller: read-only


def tight_expand(obj):
    """Canonical tight-frame coefficients.

    For a holomorphic or antiholomorphic FrameVector, returns the dict of
    expansion coefficients over {Z_jk} resp. {Zbar_jk} (theta_jk(V), resp.
    thetabar_jk(V)); re-assembling reproduces the field exactly.  For a
    TensorField, returns the TensorField with canonical coefficients
    c'_{pq,rs} = sum thetabar_pq(Zbar_jk) c_{jk,lm} theta_lm(Z_rs), i.e.
    c' = conj(H) c H with H the Gram of :func:`_gram_right`; the operation
    is idempotent.
    """
    if isinstance(obj, FrameVector):
        n = obj.n
        if obj.is_holomorphic():
            return {jk: form_eval(theta_form(n, *jk), obj)
                    for jk in index_pairs(n)}
        if obj.is_antiholomorphic():
            return {jk: form_eval(thetabar_form(n, *jk), obj)
                    for jk in index_pairs(n)}
        raise ValueError("vector expansion needs a pure (1,0) or (0,1) field")
    if not isinstance(obj, TensorField):
        raise TypeError("tight_expand accepts FrameVector or TensorField")
    n = obj.n
    h = _gram_right(n)
    out: dict[tuple[Pair, Pair], SpherePoly] = {}
    for pq in index_pairs(n):
        for rs in index_pairs(n):
            acc = SpherePoly.zero(n)
            for (jk, lm), c in obj.coeffs.items():
                acc = acc + h[(jk, pq)] * c * h[(lm, rs)]
            if not acc.is_zero():
                out[(pq, rs)] = acc
    return TensorField(n, out)


# -- covariant differentiation ----------------------------------------------

_T_WEIGHTS_VEC = {"Z": -1, "Zb": 1}


def covariant_T(obj):
    """Covariant derivative along the transverse field T.

    Frame weights: Z_jk -> -i, Zbar_jk -> +i, theta_jk -> +i,
    thetabar_jk -> -i, T and theta -> 0.  On a TensorField the two +i
    weights add, giving coefficient T(c) + 2i c; a weight-m coefficient
    therefore returns i(m/2 + 2) times itself.
    """
    if isinstance(obj, FrameVector):
        t = reeb(obj.n)
        comps = {}
        for key, c in obj.components.items():
            val = field_apply(t, c)
            if key != "T":
                val = val + c * ExactScalar(0, _T_WEIGHTS_VEC[key[0]])
            comps[key] = comps.get(key, SpherePoly.zero(obj.n)) + val
        return FrameVector(obj.n, comps)
    if isinstance(obj, FrameForm):
        t = reeb(obj.n)
        comps = {}
        for key, c in obj.components.items():
            val = field_apply(t, c)
            if key != "th":
                w = 1 if key[0] == "th" else -1
                val = val + c * ExactScalar(0, w)
            comps[key] = comps.get(key, SpherePoly.zero(obj.n)) + val
        return FrameForm(obj.n, comps)
    if isinstance(obj, TensorField):
        t = reeb(obj.n)
        two_i = ExactScalar(0, 2)
        return TensorField(obj.n,
                           {k: field_apply(t, c) + c * two_i
                            for k, c in obj.coeffs.items()})
    raise TypeError("covariant_T accepts FrameVector, FrameForm, TensorField")


def _nabla_z_zbar(n: int, jk: Pair, lm: Pair) -> FrameVector:
    """nabla_{Z_jk} Zbar_lm: antiholomorphic projection of the bracket."""
    br = bracket(z_field(n, *jk), zbar_field(n, *lm))
    _, w = br.ambient()
    # Hbar projection: with phi = sum w_a z_a the tangency defect, the T
    # component of the bracket contributes exactly phi * zbar_a to the
    # dbar coefficients, so removing it isolates the (0,1) part.
    phi = SpherePoly.zero(n)
    for a in range(n + 1):
        phi = phi + w[a] * SpherePoly.z(n, a + 1)
    wproj = [w[a] - phi * SpherePoly.w(n, a + 1) for a in range(n + 1)]
    zero = [SpherePoly.zero(n)] * (n + 1)
    return FrameVector.from_ambient(n, zero, wproj)


def covariant_Z(direction: FrameVector, target: FrameVector) -> FrameVector:
    """Tanaka-Webster derivative along a holomorphic-type direction.

    nabla_{Z_jk} T = 0 and nabla_{Z_jk} Z_pq = 0; on conjugate frame
    fields the derivative is the antiholomorphic projection of the Lie
    bracket, returned re-expanded over the frame.
    """
    if direction.n != target.n:
        raise ValueError("dimension mismatch")
    if not direction.is_holomorphic():
        raise ValueError("direction must be holomorphic-type")
    n = direction.n
    out = FrameVector(n, {})
    for key, c in target.components.items():
        out = out + FrameVector(n, {key: field_apply(direction, c)})
        if key != "T" and key[0] == "Zb":
            for dkey, d in direction.components.items():
                nz = _nabla_z_zbar(n, (dkey[1], dkey[2]), (key[1], key[2]))
                out = out + nz * (c * d)
    return out
