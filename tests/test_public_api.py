import ast
import importlib
import pkgutil
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "tverberg_nd").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    """Names bound by a module-level import that the module never reads and does not list in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read | exported]


def test_no_unused_module_level_import():
    unused = [entry for path in SOURCES for entry in _unused_imports(path)]
    assert not unused
