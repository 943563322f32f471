"""Dense real vectors, tolerance policy, and seeded sampling.

Everything downstream works on 1-D numpy float64 arrays.  Operations accept
batches: an array of shape ``(..., n)`` is treated as a stack of vectors and
all reductions run over the last axis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "SampleSpec",
    "as_vector",
    "norm",
    "check_weights",
]


class DimensionMismatchError(ValueError):
    """Operands live in spaces of different dimension."""


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 vector, optionally of dimension ``dim``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector of dimension >= 1, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    return v


def _check_dim(what: str, size: int, dim: int) -> None:
    """Refuse a ``what`` of dimension ``size`` where the problem lives in R^``dim``."""
    if size != dim:
        raise DimensionMismatchError(f"{what} dimension {size} differs from problem dimension {dim}")


def _common_dim(what: str, dims) -> None:
    """Refuse a ``what`` whose operands' dimensions ``dims`` are not all one."""
    found = sorted(set(dims))
    if len(found) != 1:
        raise DimensionMismatchError(f"{what} mixes dimensions {found}")


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only; the one place a stored array is frozen."""
    a.flags.writeable = False
    return a


def _as_int(value) -> int:
    """``int(value)``, except that a boolean, a string or a float with a
    fractional part is refused, not converted."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _as_float(value) -> float:
    """``float(value)``, except that a boolean, a string or anything else that
    is not a real number is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _as_floats(values) -> np.ndarray:
    """``np.asarray(values, dtype=float)``, each entry checked as :func:`_as_float` checks it;
    a flat list of Python ints and floats, which a JSON array parses to, passes on its types."""
    if not (type(values) is list and set(map(type, values)) <= {int, float}):
        for v in np.asarray(values, dtype=object).flat:
            _as_float(v)
    return np.asarray(values, dtype=float)


def norm(x) -> float:
    """Euclidean norm sqrt(<x, x>); reduces over the last axis for batches.

    A stack's row norms equal the rows' single-vector norms bit for bit.
    """
    x = np.asarray(x, dtype=float)
    s = np.add.reduce(x * x, axis=-1)
    return math.sqrt(s) if x.ndim == 1 else np.sqrt(s)


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u_i @ v_i`` for every row i of the broadcast pair, as one batched matmul.

    Each product's core is (1, n) @ (n, 1), which numpy hands to the same
    ``cblas_ddot`` call, with the same strides, that the 1-D ``u_i @ v_i``
    makes, so every dot keeps its bits, operand order included.  A gemv
    ``A @ x`` would round differently.
    """
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def check_weights(weights, count: int | None = None, what: str = "weights") -> tuple[float, ...]:
    """Validate a weight vector: finite, strictly positive, summing to one within eq_tol.

    ``count``, when given, is the required number of weights; ``what`` names
    them in error messages.  Returns the weights as a tuple of floats.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or (count is not None and w.size != count):
        raise ValueError(f"need {count or 'a vector of'} {what}, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{what} must be finite")
    if np.any(w <= 0.0):
        raise ValueError(f"{what} must be strictly positive")
    total = sum(w.tolist())
    if abs(total - 1.0) > DEFAULT_TOLERANCES.eq_tol:
        raise ValueError(f"{what} sum to {total!r}, not 1")
    return tuple(w.tolist())


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack policy.

    eq_tol guards exact-identity checks, conv_tol detects convergence,
    slack_tol is the permitted violation of inequality monitors, and
    subgrad_zero_tol decides the zero-subgradient branch.
    """

    eq_tol: float = 1e-10
    conv_tol: float = 1e-8
    slack_tol: float = 1e-12
    subgrad_zero_tol: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("eq_tol", "conv_tol", "slack_tol", "subgrad_zero_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"Tolerances.{name} must be finite and strictly positive")
        if not (self.slack_tol <= self.eq_tol <= self.conv_tol):
            raise ValueError("required: slack_tol <= eq_tol <= conv_tol")


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class SampleSpec:
    """Seeded uniform sampling box for property verifiers.

    Defaults to 1000 draws from [-5, 5]^dim, which is desk-scale yet wide
    enough around unit-size problem data to expose sign errors.
    """

    dim: int
    count: int = 1000
    low: float = -5.0
    high: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("SampleSpec.dim must be >= 1")
        if self.count < 1:
            raise ValueError("SampleSpec.count must be >= 1")
        if not self.low < self.high:
            raise ValueError("SampleSpec requires low < high")
        if self.seed < 0:
            raise ValueError("SampleSpec.seed must be >= 0")

    def points(self) -> np.ndarray:
        """Array of shape (count, dim): the first half of :meth:`pairs`."""
        return self.pairs()[0]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Two arrays of shape (count, dim), drawn independently."""
        rng = np.random.default_rng(self.seed)
        draw = rng.uniform(self.low, self.high, size=(2, self.count, self.dim))
        return draw[0], draw[1]
