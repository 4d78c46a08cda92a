import importlib
import pkgutil

import pytest

import expdyn

MODULES = sorted(m.name for m in pkgutil.iter_modules(expdyn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    # A name left in __all__ after its definition is deleted breaks
    # `from expdyn.<module> import *`.
    module = importlib.import_module(f"expdyn.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
