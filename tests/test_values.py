"""Every value type copies, pickles and refuses assignment.

The kernel types (``ExactScalar``, ``SpherePoly``, ``TSeries2``) guard
their own slots and copy through ``__reduce__``; the other value types
are frozen dataclasses.  A copy must equal its original and keep its
type, and ``dataclasses.asdict``, which deep-copies every leaf, must work
on each public result record.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from crsphere import oracle3, spectral, variation
from crsphere.frames import FrameForm, FrameVector, TensorField, z_field
from crsphere.ring import ExactScalar, SpherePoly, TSeries2, volume_factor
from crsphere.variation import DeformationTensor

from test_ring import z, w


def _series():
    s = TSeries2(z(1, 1) * w(1, 2), None, SpherePoly.constant(1, 3))
    s.coefficients()        # read, which leaves the series as it was
    return s


def _vector():
    return FrameVector(2, [SpherePoly.constant(2, ExactScalar(0, 1)),
                           z(2, 1), SpherePoly.zero(2), w(2, 3) * z(2, 2),
                           SpherePoly.zero(2), SpherePoly.zero(2), z(2, 3)])


def _form():
    return FrameForm(1, [SpherePoly.one(1), w(1, 1), z(1, 2) ** 2])


def _tensor():
    return TensorField(2, {((1, 2), (1, 3)): z(2, 1) * w(2, 2),
                           ((2, 3), (2, 3)): SpherePoly.constant(2, 5)})


VALUES = {
    "ExactScalar": lambda: ExactScalar(Fraction(3, 4), Fraction(-1, 6)),
    "SpherePoly": lambda: z(1, 1) ** 2 * w(1, 2) + Fraction(1, 3),
    "TSeries2": _series,
    "VolumeFactor": lambda: volume_factor(2),
    "frame-field": lambda: z_field(1, 1, 2),
    "FrameVector": _vector,
    "FrameForm": _form,
    "TensorField": _tensor,
    "DeformationTensor-n1": lambda: DeformationTensor.from_coefficient(
        z(1, 2) * w(1, 1) ** 3),
    "DeformationTensor-n2": lambda: DeformationTensor.from_tensor(_tensor()),
}

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("kind", VALUES)
def test_value_copies_equal_with_its_type(kind, how):
    x = VALUES[kind]()
    y = COPIES[how](x)
    assert type(y) is type(x)
    assert y == x
    assert getattr(y, "slot", None) == getattr(x, "slot", None)


def _records():
    e = z(1, 2) * w(1, 1) + SpherePoly.one(1)
    cf = oracle3.deform_frame(e)
    ps = oracle3.solve_structure(cf)
    return {
        "HessianReport": variation.j_hessian(
            DeformationTensor.from_coefficient(e)),
        "HarmonicDecomposition": spectral.harmonic_decompose(
            z(1, 1) ** 2 * w(1, 1) * w(1, 2)),
        "DeformedCoframe": cf,
        "PseudohermitianSeries": ps,
        "OracleVerdict": oracle3.check_first_variation(e, ps),
    }


def test_asdict_works_on_every_result_record():
    for name, record in _records().items():
        out = dataclasses.asdict(record)
        assert out == {f.name: getattr(record, f.name)
                       for f in dataclasses.fields(record)}, name


def _stored_names(x):
    """Every slot the instance's class and its bases declare."""
    return {name for cls in type(x).__mro__
            for name in cls.__dict__.get("__slots__", ())}


@pytest.mark.parametrize("kind", VALUES)
def test_value_rejects_assignment(kind):
    """Each stored name raises ``AttributeError`` (``FrozenInstanceError``
    is one).  An undeclared name is refused too; on Python 3.11 a frozen
    ``slots=True`` dataclass raises ``TypeError`` for it, since its
    generated ``__setattr__`` names the class that ``slots=True`` replaced.
    """
    x = VALUES[kind]()
    names = _stored_names(x)
    assert names
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    with pytest.raises((AttributeError, TypeError)):
        x.extra = None
    assert x == VALUES[kind]()


def test_subclass_only_slots_reject_assignment():
    """The frame field's ``slot`` lives only on the subclass; it refuses
    assignment, and the shared field keeps its slot."""
    field = z_field(1, 1, 2)
    assert {"slot"} <= _stored_names(field)
    slot = field.slot
    with pytest.raises(AttributeError):
        field.slot = slot + 1
    assert z_field(1, 1, 2).slot == slot == 1


def test_term_maps_store_only_their_terms():
    """A polynomial and a series hold ``n``, ``nums`` and ``den`` and
    nothing else, so no cache can go stale when ``ring.ORDER`` changes."""
    assert SpherePoly.__slots__ == TSeries2.__slots__ == ()
    assert _stored_names(_series()) == _stored_names(SpherePoly.one(1)) \
        == {"n", "nums", "den"}


@pytest.mark.parametrize("kind", VALUES)
def test_value_rejects_deletion(kind):
    """``del`` of a stored name raises ``AttributeError`` and leaves the
    value whole, on the kernel types as on the frozen dataclasses."""
    x = VALUES[kind]()
    for name in _stored_names(x):
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == VALUES[kind]()


def test_shared_constant_survives_deletion():
    """``SpherePoly.one(n)`` is one instance for the whole process, so a
    deleted slot would break it for every later caller."""
    one = SpherePoly.one(1)
    for name in ("n", "nums", "den"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(one, name)
    assert SpherePoly.one(1) is one
    assert one == SpherePoly.constant(1, 1)
