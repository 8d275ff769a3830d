import importlib
import pkgutil

import pytest

import ipme

MODULES = ["ipme"] + sorted(f"ipme.{m.name}"
                            for m in pkgutil.iter_modules(ipme.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    # a deletion must take its name out of __all__ too
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
