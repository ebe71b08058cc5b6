"""Every callable the benchmark traces still exists under its name.

``perfbench/tracing.py`` wraps the callables named in ``CALLABLES`` and
looks each one up in its owner's ``__dict__``; a rename in ``crsphere``
should fail here rather than in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_callables_resolve():
    names = _tracing().CALLABLES
    assert names
    missing = []
    for name in names:
        layer, qual = name.split(".", 1)
        owner = importlib.import_module(f"crsphere.{layer}")
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        if attr not in owner.__dict__:
            missing.append(name)
    assert missing == []
