"""Every name a ``crsphere`` module lists in ``__all__`` resolves, the
package facade resolves each of its names on first use, and each entry
point loads only the modules it runs.

A deletion that leaves its name behind in ``__all__`` breaks
``from crsphere.<module> import *`` only at the user's import; this test
fails first.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import tracemalloc

import pytest

import crsphere

FACADE_MODULES = ("ring", "spectral", "frames", "variation", "oracle3")

MODULES = sorted(m.name for m in pkgutil.iter_modules(crsphere.__path__))


def test_every_module_is_listed():
    assert {"cli", "frames", "grammar", "oracle3", "ring", "scalar",
            "spectral", "variation", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"crsphere.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def other_modules():
    """(name, syntax tree) of every module but ``ring``."""
    for path in sorted(pathlib.Path(crsphere.__file__).parent.glob("*.py")):
        if path.stem != "ring":
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_only_ring_reads_its_private_names():
    """The packed monomial key is ``ring``'s layout: no other module
    imports an underscore name from it."""
    offenders = []
    for name, tree in other_modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("ring", "crsphere.ring")):
                offenders += [(name, alias.name) for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


def is_cache(decorator) -> bool:
    """``functools.cache``, ``cache`` or an ``lru_cache``, called or not."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = (decorator.attr if isinstance(decorator, ast.Attribute)
            else getattr(decorator, "id", None))
    return name in ("cache", "lru_cache")


def is_bare_table(value) -> bool:
    """A bare ``{}``, or a tuple of them."""
    if isinstance(value, ast.Tuple):
        return bool(value.elts) and all(map(is_bare_table, value.elts))
    return isinstance(value, ast.Dict) and not value.keys


def private_tables(tree) -> list[int]:
    """Lines of a cached function returning a bare table, and of a
    subscript deleted inside a ``for`` loop."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and any(map(is_cache, node.decorator_list))):
            lines += [ret.lineno for ret in ast.walk(node)
                      if isinstance(ret, ast.Return)
                      and is_bare_table(ret.value)]
        if isinstance(node, ast.For):
            lines += [sub.lineno for sub in ast.walk(node)
                      if isinstance(sub, ast.Delete)
                      and any(isinstance(t, ast.Subscript)
                              for t in sub.targets)]
    return sorted(set(lines))


def test_image_tables_and_their_apply_loop_live_in_ring():
    """Every per-n image table is a ``ring.LazyTable``, applied by the one
    loop ``ring.apply_table``: no other module caches a bare ``{}`` (or a
    tuple of them) as a table, or deletes a subscript inside a ``for``
    loop, as a written-out apply loop does when a sum cancels."""
    assert [(name, line) for name, tree in other_modules()
            for line in private_tables(tree)] == []


@pytest.mark.parametrize("source, found", [
    ("@functools.cache\ndef t(n):\n    return {}\n", True),
    ("@cache\ndef t(n):\n    return {}, {}\n", True),
    ("@functools.lru_cache(None)\ndef t(n):\n    return {}\n", True),
    ("@functools.cache\ndef t(n):\n    return {0: 1}\n", False),
    ("def t(n):\n    return {}\n", False),
    ("for k in d:\n    if k:\n        del d[k]\n", True),
    ("for k in d:\n    del k\n", False),
    ("del d[0]\n", False)])
def test_table_guard_sees_each_pattern(source, found):
    assert bool(private_tables(ast.parse(source))) is found


def private_definitions(trees) -> list[tuple[str, str, int, int]]:
    """(module, name, first line, last line) of every single-underscore
    function or class defined anywhere in the modules' syntax trees."""
    return [(module, node.name, node.lineno, node.end_lineno)
            for module, tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def unreferenced(trees) -> list[tuple[str, str]]:
    """The private definitions that no ``Name`` or ``Attribute`` node
    reads outside the definition's own lines."""
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else None)
            if name is not None:
                uses.setdefault(name, []).append((module, node.lineno))
    return [(module, name)
            for module, name, first, last in private_definitions(trees)
            if all(m == module and first <= line <= last
                   for m, line in uses.get(name, ()))]


def test_every_private_definition_has_a_reader():
    """Code nobody reads gets deleted: every private function, method and
    class in ``src/crsphere`` is named somewhere outside its own body."""
    trees = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(
                 pathlib.Path(crsphere.__file__).parent.glob("*.py"))]
    assert len(private_definitions(trees)) >= 70
    assert unreferenced(trees) == []


@pytest.mark.parametrize("source, found", [
    ("def _f():\n    return _f()\n", [("m", "_f")]),
    ("def _f():\n    pass\n\nx = _f\n", []),
    ("class C:\n    def _g(self):\n        pass\n", [("m", "_g")]),
    ("class C:\n    def _g(self):\n        pass\n\nC()._g()\n", []),
    ("def __f():\n    pass\n", []),
    ("class _K:\n    pass\n", [("m", "_K")])])
def test_private_definition_guard_sees_each_pattern(source, found):
    assert unreferenced([("m", ast.parse(source))]) == found


# -- the package facade ----------------------------------------------------------

def owner(name: str) -> str:
    """The submodule that defines a facade name (the name itself for a
    submodule), found by its ``__all__`` and not by the facade's map."""
    if name in FACADE_MODULES:
        return name
    (module,) = [m for m in FACADE_MODULES
                 if name in importlib.import_module(f"crsphere.{m}").__all__]
    return module


def test_facade_lists_sixty_names():
    assert len(set(crsphere.__all__)) == len(crsphere.__all__) == 60
    assert set(FACADE_MODULES) <= set(crsphere.__all__)
    assert set(crsphere.__all__) <= set(dir(crsphere))


def test_facade_names_are_their_module_objects():
    wrong = []
    for name in crsphere.__all__:
        module = importlib.import_module(f"crsphere.{owner(name)}")
        want = module if name in FACADE_MODULES else getattr(module, name)
        if getattr(crsphere, name) is not want:
            wrong.append(name)
    assert wrong == []


def test_star_import_binds_the_facade():
    namespace = {}
    exec("from crsphere import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(crsphere.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'SphereP'"):
        crsphere.SphereP
    assert not hasattr(crsphere, "verify_all")


# -- the modules each entry point loads ------------------------------------------

def loaded_modules(code: str) -> list[str]:
    """The ``crsphere`` modules a fresh interpreter holds after ``code``."""
    src = os.path.dirname(os.path.dirname(crsphere.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys\n" + code + "\nprint(' '.join(sorted(m for m in "
             "sys.modules if m.split('.')[0] == 'crsphere')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_import_loads_no_submodule():
    assert loaded_modules("import crsphere") == ["crsphere"]


def test_facade_name_loads_its_module_only():
    assert loaded_modules("from crsphere import SpherePoly") == [
        "crsphere", "crsphere.grammar", "crsphere.ring", "crsphere.scalar"]


def test_cli_import_loads_ring_only():
    """``ring`` with the two modules it is compiled from."""
    assert loaded_modules("import crsphere.cli") == [
        "crsphere", "crsphere.cli", "crsphere.grammar", "crsphere.ring",
        "crsphere.scalar"]


def test_analyze_loads_no_verify(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("n = 1\nE = (1/1,0/1) z1 w2\n")
    assert loaded_modules(
        "from crsphere.cli import main\n"
        f"assert main(['analyze', {str(f)!r}, '--oracle']) == 0") == [
        "crsphere", "crsphere.cli", "crsphere.frames", "crsphere.grammar",
        "crsphere.oracle3", "crsphere.ring", "crsphere.scalar",
        "crsphere.spectral", "crsphere.variation"]


def test_spectrum_loads_neither_oracle_nor_verify():
    assert loaded_modules("from crsphere.cli import main\n"
                          "assert main(['spectrum']) == 0") == [
        "crsphere", "crsphere.cli", "crsphere.frames", "crsphere.grammar",
        "crsphere.ring", "crsphere.scalar", "crsphere.spectral",
        "crsphere.variation"]


# -- what compiling each module costs --------------------------------------------

# Every process compiles ``crsphere`` from source (bytecode writing is off
# where it runs), one module at a time, so the largest module's compile
# sets the import-time memory peak of every command.  A module whose
# traced compile peak passes this bound should be split, as ``scalar``
# and ``grammar`` were split out of ``ring``.  In MB of 2^20 bytes.
COMPILE_PEAK_MB = 2.8


def test_every_module_compiles_under_the_peak_bound():
    peaks = {}
    for path in sorted(pathlib.Path(crsphere.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks[path.stem] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    table = ", ".join(f"{name} {mb:.2f} MB" for name, mb in peaks.items())
    assert max(peaks.values()) <= COMPILE_PEAK_MB, (
        f"compile peaks above {COMPILE_PEAK_MB} MB: {table}")
