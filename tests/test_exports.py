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
