"""Every callable the benchmark traces still exists under its name.

``perfbench/tracing.py`` wraps the callables named in ``CALLABLES`` and
looks each one up in its owner's ``__dict__``; a rename in ``crsphere``
should fail here rather than in a benchmark run.  It also rebinds every
class attribute that holds a traced function object, so each such object
must be held by its owner alone.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import crsphere

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(name):
    """The module or class that owns a traced name, and the attribute."""
    layer, qual = name.split(".", 1)
    owner = importlib.import_module(f"crsphere.{layer}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _function(value):
    return (value.__func__ if isinstance(value, (staticmethod, classmethod))
            else value)


def test_traced_callables_resolve():
    names = _tracing().CALLABLES
    assert names
    missing = []
    for name in names:
        owner, attr = _owner(name)
        if attr not in owner.__dict__:
            missing.append(name)
    assert missing == []


def test_traced_functions_are_held_by_their_owner_alone():
    """No crsphere class but the owner holds a traced function object: a
    shared base class or another class holding it would be wrapped twice
    or count one class's calls under the other's name.  An operator
    alias inside the owner, such as ``__rmul__ = __mul__``, is allowed."""
    classes = {}
    for info in pkgutil.iter_modules(crsphere.__path__):
        module = importlib.import_module(f"crsphere.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and \
                    value.__module__.startswith("crsphere"):
                classes[id(value)] = value
    assert len(classes) > 10
    shared = []
    for name in _tracing().CALLABLES:
        owner, attr = _owner(name)
        fn = _function(owner.__dict__[attr])
        shared += [f"{name} in {cls.__qualname__}.{key}"
                   for cls in classes.values() if cls is not owner
                   for key, value in vars(cls).items()
                   if _function(value) is fn]
    assert shared == []
