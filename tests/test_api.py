import importlib
import pkgutil

import pytest

import asibench

MODULES = ["asibench"] + [
    f"asibench.{info.name}" for info in pkgutil.iter_modules(asibench.__path__) if not info.ispkg
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # `from module import *` raises on a name in __all__ that the module lacks
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
