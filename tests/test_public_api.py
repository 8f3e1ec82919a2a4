import importlib
import pkgutil

import pytest

import tverberg_nd

MODULES = ["tverberg_nd"] + [f"tverberg_nd.{m.name}" for m in pkgutil.iter_modules(tverberg_nd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    namespace = {}
    exec(f"from {name} import *", namespace)  # raises on a stale __all__ entry
    for entry in module.__all__:
        assert hasattr(module, entry) and namespace[entry] is getattr(module, entry)
