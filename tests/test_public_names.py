"""Every name a ``crsphere`` module lists in ``__all__`` resolves.

A deletion that leaves its name behind in ``__all__`` breaks
``from crsphere.<module> import *`` only at the user's import; this test
fails first.
"""

import importlib
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
