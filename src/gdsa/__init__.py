"""Dynamic string-averaging projection methods with relaxation, bounded
perturbations, and superiorization, plus built-in verification of the
operator inequalities they rely on.

The top-level namespace is the union of the modules' ``__all__``; the CLI
(``gdsa.cli``) is not imported here."""

from .core import *
from .operators import *
from .strings import *
from .engine import *
from .superiorize import *
from .harness import *

__version__ = "0.1.0"
