import ast
import builtins
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest
from conftest import CACHES

import expdyn
from expdyn import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(expdyn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    # A name left in __all__ after its definition is deleted breaks
    # `from expdyn.<module> import *`.
    module = importlib.import_module(f"expdyn.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _resolve(module, node):
    """The object a Name or dotted Attribute base names in module, or None."""
    if isinstance(node, ast.Attribute):
        owner = _resolve(module, node.value)
        return getattr(owner, node.attr, None)
    if isinstance(node, ast.Name):
        return getattr(module, node.id, getattr(builtins, node.id, None))
    return None


@pytest.mark.parametrize("name", MODULES)
def test_every_refusal_is_a_value_error(name):
    # One refusal type: the package defines no exception class, and every
    # raise is a ValueError, which the command line maps to exit 1.  Exempt
    # are a bare re-raise and the SystemExit of `python -m expdyn`.
    module = importlib.import_module(f"expdyn.{name}")
    tree = ast.parse(Path(module.__file__).read_text())
    allowed = {"ValueError", "SystemExit"} if name == "__main__" else {"ValueError"}
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = [_resolve(module, b) for b in node.bases]
            if any(isinstance(b, type) and issubclass(b, BaseException) for b in bases):
                bad.append(f"class {node.name}")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in allowed):
                bad.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert bad == []


# perfbench/tracing.py wraps library functions by (module, attribute) name, so
# deleting or renaming one of them breaks `perfbench/run.py --trace 1`.  These
# tests read that list and change nothing in perfbench.
@pytest.fixture(scope="module")
def tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tracing):
    return {(mod, attr): getattr(importlib.import_module(mod), attr, None) for _, mod, attr, _ in tracing.TRACED}


def test_traced_functions_resolve(tracing):
    assert [key for key, fn in _traced(tracing).items() if fn is None] == []


def test_tracer_installs_and_restores(tracing):
    before = _traced(tracing)
    commands = dict(cli._COMMANDS)
    with tracing.Tracer().installed():
        assert all(fn is not before[key] for key, fn in _traced(tracing).items())
    assert _traced(tracing) == before
    assert cli._COMMANDS == commands


# Exported names that only the test suite reads: acceptance 3 holds the
# ring-search distances of dist_to_E1_measured to the lemma c1_constant.
TEST_ONLY_EXPORTS = {"c1_constant", "dist_to_E1_measured"}


def test_every_export_has_a_reader(tracing):
    # A name expdyn exports is read by a library module other than
    # __init__.py (a Name load or an attribute), or by perfbench through an
    # import or a traced function; otherwise it is dead code kept alive by
    # its own tests.
    src = Path(expdyn.__file__).parent
    init = ast.parse((src / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    read = {attr for _, _, attr, _ in tracing.TRACED}
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    assert sorted(exported - read) == sorted(TEST_ONLY_EXPORTS)


def test_every_helper_has_a_reader():
    # A module-level function or class that expdyn does not export is read by
    # library code outside its own body and outside __init__.py: a Name load,
    # an attribute or an import.  Otherwise it is dead code, or kept alive by
    # its own tests alone.
    src = Path(expdyn.__file__).parent
    exported = set(dir(expdyn))
    helpers, read = set(), set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = (path.name, top.name)
                if top.name not in exported:
                    helpers.add(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names]
                else:
                    continue
                read.update((name, owner) for name in names)
    unread = [h for h in helpers if not any(name == h[1] and owner != h for name, owner in read)]
    assert sorted(unread) == []


def test_cache_list_is_complete():
    # conftest clears CACHES before each test; a cache missing from it makes a
    # test that spies on a derivation depend on which tests ran before it.
    # build_parser caches the argument parser, not a derived quantity.
    found = {
        obj
        for name in MODULES
        for obj in vars(importlib.import_module(f"expdyn.{name}")).values()
        if hasattr(obj, "cache_clear") and obj is not cli.build_parser
    }
    assert found == set(CACHES)


def _imported_from(name, sibling):
    """The names module expdyn.<name> imports from expdyn.<sibling>, with
    "<module>" for an import of the module itself."""
    tree = ast.parse(Path(importlib.import_module(f"expdyn.{name}").__file__).read_text())
    got = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("expdyn").removeprefix(".")
            got += [a.name for a in node.names if module == sibling]
            got += ["<module>" for a in node.names if module == "" and a.name == sibling]
        elif isinstance(node, ast.Import):
            got += ["<module>" for a in node.names if a.name == f"expdyn.{sibling}"]
    return got


def test_the_engine_reads_traps_through_trap_at_0():
    # The engine's view of a trap is one call, trap_at_0, and one method,
    # TrapRegion.contains: expdyn.traps binds no object defined in
    # expdyn.orbits, and expdyn.orbits binds one object of expdyn.traps.
    from expdyn import orbits, traps

    def defined_in(module, owner):
        return [n for n, obj in vars(module).items() if getattr(obj, "__module__", None) == owner.__name__]

    assert defined_in(traps, orbits) == [] and _imported_from("traps", "orbits") == []
    assert defined_in(orbits, traps) == ["trap_at_0"] and _imported_from("orbits", "traps") == ["trap_at_0"]
