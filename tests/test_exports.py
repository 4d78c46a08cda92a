import ast
import builtins
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

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
