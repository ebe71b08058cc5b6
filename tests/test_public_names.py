"""Every name a ``crsphere`` module lists in ``__all__`` resolves.

A deletion that leaves its name behind in ``__all__`` breaks
``from crsphere.<module> import *`` only at the user's import; this test
fails first.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import crsphere

MODULES = sorted(m.name for m in pkgutil.iter_modules(crsphere.__path__))


def test_every_module_is_listed():
    assert {"cli", "frames", "oracle3", "ring", "spectral", "variation",
            "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"crsphere.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_only_ring_reads_its_private_names():
    """The packed monomial key is ``ring``'s layout: no other module
    imports an underscore name from it."""
    offenders = []
    for path in sorted(pathlib.Path(crsphere.__file__).parent.glob("*.py")):
        if path.stem == "ring":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("ring", "crsphere.ring")):
                offenders += [(path.stem, alias.name) for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []
