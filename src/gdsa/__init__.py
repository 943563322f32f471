"""Dynamic string-averaging projection methods with relaxation, bounded
perturbations, and superiorization, plus built-in verification of the
operator inequalities they rely on.

The top-level namespace is the union of the modules' ``__all__``.
``import gdsa`` loads the iteration itself: ``core``, ``operators``,
``strings`` and ``engine``.  Superiorization (``gdsa.superiorize``) and the
experiment harness (``gdsa.harness``) are imported the first time one of
their names is read from the package.  The CLI (``gdsa.cli``) is not
imported here."""

from importlib import import_module as _import_module

from .core import *
from .operators import *
from .strings import *
from .engine import *

__version__ = "0.1.0"

_EAGER = ("core", "operators", "strings", "engine")
_DEFERRED = ("superiorize", "harness")  # harness imports superiorize, so this order loads each once


def __getattr__(name: str):
    """A name of a deferred module, read for the first time: import the module
    and bind the name here, so that later reads do not come back."""
    if name == "__all__":
        modules = [_import_module(f"{__name__}.{m}") for m in _EAGER + _DEFERRED]
        value = [n for module in modules for n in module.__all__]
    elif name.startswith("_"):  # no deferred module lists a private name: a probe imports nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        for deferred in _DEFERRED:
            module = _import_module(f"{__name__}.{deferred}")
            if name == deferred:
                return module
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    names = __getattr__("__all__")  # first, so that the deferred modules are bound too
    return sorted(set(globals()) | set(names))
