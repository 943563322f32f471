"""Superiorization: steering the feasibility-seeking iteration with summable
objective-reducing perturbations.

At step k the iterate is shifted by ``sum_n beta_{k,n} * v_{k,n}`` before the
relaxed plan operator is applied.  Each direction is the negated, normalized
subgradient of the objective at the partially shifted point (or zero when the
selected subgradient vanishes), so the shift never increases the objective
locally while the total shift budget ``sum_k sum_n beta_{k,n}`` stays finite.
Because the underlying iteration tolerates any summable bounded perturbation,
the superiorized run still converges into the target set; the monitor at the
bottom checks the resulting alternative: either the limit already minimizes
the objective over the target set, or the tail of the run decreases the
distance to every constrained minimizer strictly.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Optional

import numpy as np

from .core import DEFAULT_TOLERANCES, Tolerances, _check_dim, _common_dim, _frozen, as_vector, norm
from .engine import IterationTrace, RelaxationSchedule, StopRule, _Geometric, _run_loop, _scaled_slacks
from .strings import ControlSchedule

__all__ = [
    "NonFiniteObjectiveError",
    "ObjectiveFunction",
    "WeightedSquaredNorm",
    "L1Norm",
    "MaxOfAffine",
    "SuperiorizationSchedule",
    "StrictFejerReport",
    "perturbation_directions",
    "superiorized_run",
    "strict_fejer_monitor",
    "find_strict_fejer_k0",
]


class NonFiniteObjectiveError(ValueError):
    """The objective or its subgradient selection went non-finite during a run."""


class ObjectiveFunction(abc.ABC):
    """Convex continuous objective with a subgradient selection rule.

    ``subgradient`` must return one element of the subdifferential at x;
    convexity makes the set nonempty everywhere.  Selections obey
    ``phi(y) >= phi(x) + <s(x), y - x>`` for all y.
    """

    @abc.abstractmethod
    def evaluate(self, x: np.ndarray) -> float: ...

    @abc.abstractmethod
    def subgradient(self, x: np.ndarray) -> np.ndarray: ...

    @property
    def dim(self) -> Optional[int]:
        """Required input dimension, or None when dimension-agnostic."""
        return None

    def _subgradient_norm(self, s: np.ndarray) -> float:
        """``||s||`` for a selection ``s`` of this objective at a point where it is finite."""
        return norm(s)


@dataclass(frozen=True)
class WeightedSquaredNorm(ObjectiveFunction):
    """``phi(x) = weight * ||x - center||^2`` (differentiable everywhere)."""

    center: np.ndarray
    weight: float = 1.0

    def __post_init__(self) -> None:
        c = _frozen(as_vector(self.center).copy())
        if not 0.0 < self.weight < math.inf:
            raise ValueError("weight must be finite and positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def dim(self) -> int:
        return self.center.size

    def evaluate(self, x: np.ndarray) -> float:
        d = x - self.center
        return float(self.weight * np.sum(d * d))

    def subgradient(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.weight * (x - self.center)


@dataclass(frozen=True)
class L1Norm(ObjectiveFunction):
    """``phi(x) = sum_i |x_i|``; the selection picks 0 at zero coordinates
    (minimal-norm subgradient, so the zero branch fires exactly at the minimizer)."""

    def evaluate(self, x: np.ndarray) -> float:
        return float(np.add.reduce(np.abs(x), axis=None))

    def subgradient(self, x: np.ndarray) -> np.ndarray:
        return np.sign(x)

    def _subgradient_norm(self, s: np.ndarray) -> float:
        # s = sign(x) at a finite x: s * s sums to the number of nonzero
        # entries exactly, so this equals norm(s) bit for bit
        return math.sqrt(np.count_nonzero(s))


@dataclass(frozen=True)
class MaxOfAffine(ObjectiveFunction):
    """``phi(x) = max_i (<a_i, x> + b_i)``; ties broken by lowest piece index."""

    pieces: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("need at least one affine piece")
        pieces = tuple((_frozen(as_vector(a).copy()), float(b)) for a, b in self.pieces)
        _common_dim("max of affine", (a.size for a, _ in pieces))
        if not all(math.isfinite(b) for _, b in pieces):
            raise ValueError("affine offsets must be finite")
        object.__setattr__(self, "pieces", pieces)

    @property
    def dim(self) -> int:
        return self.pieces[0][0].size

    def _values(self, x: np.ndarray) -> np.ndarray:
        return np.array([float(a @ x) + b for a, b in self.pieces])

    def evaluate(self, x: np.ndarray) -> float:
        return float(np.max(self._values(x)))

    def subgradient(self, x: np.ndarray) -> np.ndarray:
        return self.pieces[int(np.argmax(self._values(x)))][0].copy()


@dataclass(frozen=True)
class SuperiorizationSchedule(_Geometric):
    """Inner-step counts N_k = steps and shift sizes ``beta_{k,n} = beta_k / N_k``
    with beta0 > 0; the double series sums to ``total_budget``."""

    steps: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.beta0 < math.inf:
            raise ValueError("beta0 must be finite and strictly positive")
        super().__post_init__()
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")

    def beta_at(self, k: int) -> float:
        """``beta_{k,n}``, the same for every inner step n of step k."""
        return super().beta_at(k) / self.steps


def _finite_value(phi: ObjectiveFunction, x: np.ndarray) -> float:
    """phi(x), raising :class:`NonFiniteObjectiveError` when it is not finite."""
    value = phi.evaluate(x)
    if not math.isfinite(value):
        raise NonFiniteObjectiveError("objective evaluated to a non-finite value")
    return value


def _steering(point: np.ndarray, phi: ObjectiveFunction, betas, zero_tol: float):
    """The steering loop: for each entry beta of betas, yield ``(value, v, step)``.

    ``value`` is phi at the current partial point (checked finite), v the
    negated normalized subgradient selection there (zero when its norm is at
    or below zero_tol, checked finite), and ``step = beta * v``.  The next
    point is ``point + step``; it is formed only when another beta follows.
    The first value is phi at the given point itself.
    """
    for n, beta in enumerate(betas):
        if n:
            point = point + step
        value = _finite_value(phi, point)
        s = phi.subgradient(point)
        ns = phi._subgradient_norm(s)
        if not math.isfinite(ns):
            raise NonFiniteObjectiveError("subgradient selection is non-finite")
        # IEEE division is sign-symmetric: s / -ns is -s / ns bit for bit
        v = np.zeros_like(point) if ns <= zero_tol else s / -ns
        step = beta * v
        yield value, v, step


def perturbation_directions(
    y: np.ndarray,
    phi: ObjectiveFunction,
    betas,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> list[np.ndarray]:
    """Steering directions v_1..v_N for one iteration, one per entry of the
    sequence betas, computed sequentially.

    v_{n+1} is the negated normalized subgradient selection at the partially
    shifted point ``y + sum_{i<=n} betas[i] * v_i``, or zero when the selected
    subgradient's norm is at or below subgrad_zero_tol.  The objective is
    checked finite at each of those points before its subgradient is taken.
    Raises :class:`DimensionMismatchError` if ``phi`` needs a dimension other
    than y's, before the objective is first evaluated.  This is the same loop
    :func:`superiorized_run` steers with.
    """
    point = np.asarray(y, dtype=float)
    if phi.dim is not None:
        _check_dim("objective", phi.dim, point.size)
    return [v for _, v, _ in _steering(point, phi, betas, tolerances.subgrad_zero_tol)]


def superiorized_run(
    schedule: ControlSchedule,
    relax: RelaxationSchedule,
    phi: ObjectiveFunction,
    sup: SuperiorizationSchedule,
    y0,
    stop: StopRule = StopRule(),
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> IterationTrace:
    """Run the superiorized iteration from y0.

    Step k shifts the iterate by the steering directions' weighted sum, the
    directions being those :func:`perturbation_directions` gives, and applies
    the relaxed plan operator at the shifted point; ``trace.perturbations[k]``
    is the norm of that sum.  The trace additionally records the objective
    value at every iterate and the shift budget remaining after every step.
    At every iterate but the last, that value is the one steering evaluated,
    and checked finite, at its first point; only the final iterate is
    evaluated after the loop, and a non-finite value there raises
    :class:`NonFiniteObjectiveError` too.  Raises
    :class:`DimensionMismatchError` if ``phi`` needs a dimension other than
    the schedule's; the check is made at step 0, after the relaxation and y0
    are validated and before the plan operator is first applied.
    """
    zero_tol = tolerances.subgrad_zero_tol
    phi_values: list[float] = []

    def shift_at(k: int, y: np.ndarray) -> np.ndarray:
        if not k and phi.dim is not None:
            _check_dim("objective", phi.dim, y.size)
        steering = _steering(y, phi, repeat(sup.beta_at(k), sup.steps), zero_tol)
        value, _, first = next(steering)
        phi_values.append(value)
        total = first + 0.0  # a -0.0 entry becomes +0.0, as in a sum started from zeros
        for _, _, step in steering:
            total += step
        return total

    trace = _run_loop(schedule, relax, y0, stop, shift_at)
    phi_values.append(_finite_value(phi, trace.final))
    return replace(
        trace,
        phi_values=np.asarray(phi_values),
        perturb_budget_remaining=sup.remaining_after(np.arange(trace.iterations)),
    )


@dataclass(frozen=True)
class StrictFejerReport:
    """Outcome of the strict distance-decrease check against a constrained minimizer.

    When the trace limit already sits at the witness the check is not
    applicable (``limit_in_cmin`` is true and ``passed`` is None); otherwise
    ``passed`` states whether every recorded squared distance to the witness
    decreased by more than the slack tolerance from the monitor's ``k0`` on.
    ``decrements`` holds ``||y_k - z||^2 - ||y_{k+1} - z||^2`` for all steps.
    """

    passed: Optional[bool]
    limit_in_cmin: bool
    decrements: np.ndarray


def strict_fejer_monitor(
    trace: IterationTrace,
    cmin_witness,
    k0: int = 0,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> StrictFejerReport:
    """Check strict distance decrease toward a certified constrained minimizer.

    The witness must be oracle-certified as a minimizer of the objective over
    the target set.  Requires the trace to record at least k0 + 2 iterates.

    A decrement that comes out non-finite has overflowed a square, as in
    :func:`~gdsa.engine.fejer_monitor`: only such steps are recomputed on
    operands scaled by a power of two, so a decrement past the float range is
    +-inf, not NaN.
    """
    if k0 < 0:
        raise ValueError("k0 must be >= 0")
    if len(trace.iterates) < k0 + 2:
        raise ValueError(f"trace too short: needs at least {k0 + 2} iterates")
    z = as_vector(cmin_witness)
    _check_dim("witness", z.size, trace.iterates.shape[-1])
    xs = trace.iterates
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = np.sum((xs - z) ** 2, axis=-1)
        decrements = d2[:-1] - d2[1:]
    bad = np.flatnonzero(~np.isfinite(decrements))
    if bad.size:
        decrements[bad] = _scaled_slacks(xs[bad], xs[bad + 1], z[None], 0.0)
    decrements = _frozen(decrements)
    if float(np.sqrt(d2[-1])) <= tolerances.conv_tol:
        return StrictFejerReport(None, True, decrements)
    ok = bool(np.all(decrements[k0:] > tolerances.slack_tol))
    return StrictFejerReport(ok, False, decrements)


def find_strict_fejer_k0(
    trace: IterationTrace,
    cmin_witness,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> Optional[int]:
    """Smallest k0 for which the strict monitor passes, or None.

    None is returned both when no k0 works and when the limit lies at the
    witness (the check is then not applicable).
    """
    report = strict_fejer_monitor(trace, cmin_witness, 0, tolerances)
    if report.limit_in_cmin:
        return None
    bad = np.nonzero(report.decrements <= tolerances.slack_tol)[0]
    k0 = int(bad[-1]) + 1 if len(bad) else 0
    if k0 > len(report.decrements) - 1:
        return None
    return k0

