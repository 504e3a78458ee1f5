import importlib
import pkgutil

import pytest

import ersc


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(ersc.__path__)))
def test_every_export_resolves(name):
    # a deletion that leaves its name in __all__ fails here, not at import *
    module = importlib.import_module(f"ersc.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
