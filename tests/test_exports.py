"""Each module's ``__all__`` is exactly its public surface, and no imported name goes unused."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import gdsa

MODULES = [importlib.import_module(f"gdsa.{info.name}") for info in pkgutil.iter_modules(gdsa.__path__)]
IDS = [m.__name__ for m in MODULES]


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_all_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_public_definitions_are_listed(module):
    defined = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [name for name in defined if name not in module.__all__] == []


@pytest.mark.parametrize("module", MODULES, ids=IDS)
def test_no_unused_from_imports(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_public_name_is_reached_inside_the_package():
    # A listed name stays only if the package reaches it: gdsa/__init__.py imports
    # it, or some module names it, reads it as an attribute or imports it.  Its
    # own def/class and its __all__ string are not Name, Attribute or alias nodes.
    reached = set()
    for path in Path(gdsa.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.alias):
                reached.add(node.name)
    unreached = [
        f"{module.__name__}.{name}" for module in MODULES for name in module.__all__ if name not in reached
    ]
    assert unreached == []
