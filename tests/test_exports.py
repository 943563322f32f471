"""Each module's ``__all__`` is exactly its public surface, ``gdsa`` re-exports it,
and no imported name goes unused."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
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


# Names that stay for their role in the paper although no package module or
# benchmark file calls them; each reason says which role.
PAPER_ROLES = {
    "gdsa_step": "the relaxed GDSA step x + lam * (T(x) - x) itself; the engine loop inlines it",
    "check_nonexpansive": "the sampled verifier of nonexpansiveness, the operator class every string is built from",
    "check_rho_fne": "the sampled verifier of rho-firm nonexpansiveness, which bounds the relaxation range",
    "check_cutter": "the sampled verifier of the cutter inequality <z - T(x), x - T(x)> <= 0",
    "find_strict_fejer_k0": (
        "the k0 after which superiorized DSAP is strictly Fejer"
        " (Censor and Zaslavski, J. Optim. Theory Appl. 165, 2015)"
    ),
}
REEXPORTED = [m for m in MODULES if m.__name__ not in ("gdsa.cli", "gdsa._float_text")]


def reached_names(paths) -> set[str]:
    """Every name that the files at ``paths`` name, read as an attribute or import.

    A name's own def/class and its ``__all__`` string are not Name, Attribute
    or alias nodes, so a module does not reach its own names by defining them.
    """
    reached = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.alias):
                reached.add(node.name)
    return reached


def reached_inside_the_package() -> set[str]:
    """The names that a package module other than __init__.py or a benchmark
    file reaches, plus those with a stated role in the paper.  The re-export
    in __init__.py does not count: it reaches every listed name."""
    package = Path(gdsa.__file__).parent
    bench = Path(__file__).resolve().parent.parent / "bench"
    sources = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    return reached_names(sources + sorted(bench.glob("*.py"))) | PAPER_ROLES.keys()


def test_every_public_name_is_reached_inside_the_package():
    reached = reached_inside_the_package()
    unreached = [
        f"{module.__name__}.{name}" for module in MODULES for name in module.__all__ if name not in reached
    ]
    assert unreached == []
    assert sorted(PAPER_ROLES.keys() - {name for module in MODULES for name in module.__all__}) == []


def test_every_public_method_and_property_is_reached_inside_the_package():
    # the same rule for the methods and properties that a listed class defines
    reached = reached_inside_the_package()
    unreached = [
        f"{module.__name__}.{name}.{attr}"
        for module in MODULES
        for name in module.__all__
        if inspect.isclass(cls := getattr(module, name))
        for attr, member in vars(cls).items()
        if not attr.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, (property, staticmethod, classmethod)))
        and attr not in reached
    ]
    assert unreached == []


@pytest.mark.parametrize("module", REEXPORTED, ids=[m.__name__ for m in REEXPORTED])
def test_the_top_level_namespace_holds_each_listed_name(module):
    assert [name for name in module.__all__ if getattr(gdsa, name, None) is not getattr(module, name)] == []


# Run in a fresh interpreter, since this test session has imported every module
# already: `import gdsa` loads the iteration only, and the first read of a name
# of superiorize or the harness imports that module.
FIRST_USE = """
import sys
sys.path.insert(0, {src!r})

def loaded():
    return {{name for name in sys.modules if name.startswith("gdsa.")}}

import gdsa
deferred = {{"gdsa.superiorize", "gdsa.harness", "gdsa._float_text", "gdsa.cli"}}
assert not deferred & loaded(), loaded()
assert not hasattr(gdsa, "__wrapped__") and not deferred & loaded(), loaded()
gdsa.superiorized_run
assert "gdsa.superiorize" in loaded() and not {{"gdsa.harness", "gdsa.cli"}} & loaded(), loaded()
gdsa.parse_config
assert "gdsa.harness" in loaded() and "gdsa.cli" not in loaded(), loaded()
star = {{}}
exec("from gdsa import *", star)
del star["__builtins__"]
assert sorted(star) == sorted({names!r}), sorted(set(star) ^ set({names!r}))
try:
    gdsa.nope
except AttributeError as exc:
    assert "nope" in str(exc)
else:
    raise AssertionError("gdsa.nope resolved")
"""


def test_importing_gdsa_leaves_the_cli_unloaded():
    names = [name for module in REEXPORTED for name in module.__all__]
    src = str(Path(gdsa.__file__).parent.parent)
    subprocess.run([sys.executable, "-c", FIRST_USE.format(src=src, names=names)], check=True)
