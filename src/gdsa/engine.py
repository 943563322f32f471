"""The string-averaging iteration engine with relaxation, bounded
perturbations, and the monitors for the inequalities the iteration obeys.

One step from x with plan operator T and relaxation lam is

    x_next = x + lam * (T(x) - x),        lam in [eps, 1 + rho - eps],

where rho is the schedule's step-size constant (see
:func:`gdsa.strings.rho_constant`).  A perturbed run applies the same step at
the shifted point ``x + beta_k * v_k`` with summable ``beta_k`` and unit
directions ``v_k``; convergence survives such perturbations, which is what
the superiorization layer exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DEFAULT_TOLERANCES, Tolerances, _check_dim, _frozen, as_vector, norm
from .operators import FixedPointWitness, Operator, _relaxed, apply, residual
from .strings import ControlSchedule, PlanSignature, rho_constant

__all__ = [
    "RelaxationRangeError",
    "NonFiniteIterateError",
    "RelaxationSchedule",
    "PerturbationSchedule",
    "StopRule",
    "IterationTrace",
    "FejerReport",
    "DistanceDecayReport",
    "gdsa_step",
    "run",
    "fejer_monitor",
    "distance_decay_diagnostic",
]


class RelaxationRangeError(ValueError):
    """A relaxation parameter falls outside [eps, 1 + rho - eps]."""


class NonFiniteIterateError(RuntimeError):
    """The iteration produced NaN or Inf; carries the offending step index."""

    def __init__(self, step: int, message: str = "") -> None:
        super().__init__(message or f"non-finite iterate at step {step}")
        self.step = step


@dataclass(frozen=True)
class RelaxationSchedule:
    """Relaxation parameters lam_k, one of: constant, cyclic list, or
    ``lam_k = base + slope / (k + 1)``.

    ``epsilon`` pins the admissible closed range [eps, 1 + rho - eps]; every
    produced value must lie in it for the schedule's rho.
    """

    epsilon: float = 0.05
    constant: Optional[float] = None
    cycle: Optional[tuple[float, ...]] = None
    base: Optional[float] = None
    slope: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        kinds = [self.constant is not None, self.cycle is not None, self.base is not None]
        if sum(kinds) != 1:
            raise ValueError("specify exactly one of constant, cycle, or base(+slope)")
        if self.cycle is not None and len(self.cycle) == 0:
            raise ValueError("cyclic relaxation schedule must be nonempty")
        values = (self.constant, self.base, self.slope, *(self.cycle or ()))
        if not all(math.isfinite(v) for v in values if v is not None):
            raise ValueError("relaxation values must be finite")
        if self.base is not None and self.slope is None:
            object.__setattr__(self, "slope", 0.0)

    def value_at(self, k: int) -> float:
        if self.constant is not None:
            return self.constant
        if self.cycle is not None:
            return self.cycle[k % len(self.cycle)]
        return self.base + self.slope / (k + 1)

    def validate(self, rho: float) -> None:
        """Reject (before iterating) any value outside [eps, 1 + rho - eps]."""
        lo, hi = self.epsilon, 1.0 + rho - self.epsilon
        if lo > hi:
            raise RelaxationRangeError(f"empty relaxation range: eps={self.epsilon}, rho={rho}")
        if self.constant is not None:
            candidates = [self.constant]
        elif self.cycle is not None:
            candidates = list(self.cycle)
        else:
            # lam_k is monotone between base + slope (k=0) and base (k -> inf)
            candidates = [self.base + self.slope, self.base]
        for lam in candidates:
            if not lo <= lam <= hi:
                raise RelaxationRangeError(
                    f"relaxation value {lam:g} outside [{lo:g}, {hi:g}] (rho={rho:g})"
                )


@dataclass(frozen=True)
class _Geometric:
    """The summable step sizes ``beta_k = beta0 * decay^k``, k = 0, 1, 2, ...: a finite
    beta0 >= 0 and a decay in (0, 1) make them sum to ``beta0 / (1 - decay)``."""

    beta0: float = 0.5
    decay: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta0 < math.inf:
            raise ValueError("beta0 must be finite and nonnegative")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")

    def beta_at(self, k: int) -> float:
        return self.beta0 * self.decay**k

    @property
    def total_budget(self) -> float:
        return self.beta0 / (1.0 - self.decay)

    def remaining_after(self, k):
        """The budget left after step k (an int or an integer array); total minus spent would cancel."""
        return self.total_budget * self.decay ** (k + 1)


@dataclass(frozen=True)
class PerturbationSchedule(_Geometric):
    """Bounded perturbations ``beta_k * v_k``: unit directions v_k from a seeded
    generator, or a fixed list (cycled when exhausted)."""

    seed: int = 0
    directions: Optional[tuple[np.ndarray, ...]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.directions is not None:
            dirs = tuple(_frozen(as_vector(v).copy()) for v in self.directions)
            if not dirs:
                raise ValueError("fixed direction list must be nonempty")
            for v in dirs:
                if float(np.sqrt(v @ v)) > 1.0 + DEFAULT_TOLERANCES.eq_tol:
                    raise ValueError("perturbation directions must have norm <= 1")
            object.__setattr__(self, "directions", dirs)

    def direction_stream(self, dim: int) -> Callable[[int], np.ndarray]:
        """Per-run direction source; sequential calls must use k = 0, 1, 2, ...

        Raises :class:`DimensionMismatchError` if a fixed direction is not in R^dim.
        """
        if self.directions is not None:
            fixed = self.directions
            for v in fixed:
                _check_dim("perturbation direction", v.size, dim)
            return lambda k: fixed[k % len(fixed)]
        rng = np.random.default_rng(self.seed)

        def draw(_k: int) -> np.ndarray:
            v = rng.standard_normal(dim)  # all zeros with probability 0
            return v / float(np.sqrt(v @ v))

        return draw


@dataclass(frozen=True)
class StopRule:
    """Stop when the step norm stays at or below step_tol for ``window``
    consecutive steps, or when max_iters is reached."""

    step_tol: float = DEFAULT_TOLERANCES.conv_tol
    window: int = 10
    max_iters: int = 100_000

    def __post_init__(self) -> None:
        if not 0.0 < self.step_tol < math.inf or self.window < 1 or self.max_iters < 1:
            raise ValueError("invalid stopping rule parameters")


@dataclass
class IterationTrace:
    """Per-step record of a run.

    ``iterates`` has one more row than the step-indexed arrays; row k is the
    iterate before step k.  ``perturbations`` holds, for each step, the norm
    ||shift_k|| of the aggregate shift added before the operator was applied:
    a finite, nonnegative array of shape (iterations,), or None when
    unperturbed.  Superiorized runs additionally fill ``phi_values`` (one per
    iterate) and ``perturb_budget_remaining`` (one per step); the two are set
    together or not at all.  A trace of any other shape is refused here, so
    every reader may rely on these lengths.
    """

    iterates: np.ndarray
    step_norms: np.ndarray
    lambdas: np.ndarray
    plan_signatures: tuple[PlanSignature, ...]
    perturbations: Optional[np.ndarray]
    converged: bool
    phi_values: Optional[np.ndarray] = None
    perturb_budget_remaining: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if len(self.iterates) != len(self.step_norms) + 1:
            raise ValueError("trace must hold iterations + 1 iterates")
        n = self.iterations
        if len(self.lambdas) != n or len(self.plan_signatures) != n:
            raise ValueError(f"trace must hold one lambda and one plan signature per step, {n} each")
        if (self.phi_values is None) != (self.perturb_budget_remaining is None):
            raise ValueError("phi_values and perturb_budget_remaining are set together or not at all")
        if self.phi_values is not None and (
            len(self.phi_values) != n + 1 or len(self.perturb_budget_remaining) != n
        ):
            raise ValueError(f"a superiorized trace holds {n + 1} phi values and {n} budget values")
        if self.perturbations is not None:
            p = np.asarray(self.perturbations, dtype=float)
            if p.shape != (n,):
                raise ValueError(f"perturbations must hold one shift norm per step, shape ({n},), got shape {p.shape}")
            if not np.all(np.isfinite(p) & (p >= 0.0)):
                raise ValueError("perturbation norms must be finite and nonnegative")
            self.perturbations = p

    @property
    def iterations(self) -> int:
        return len(self.step_norms)

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def gdsa_step(x: np.ndarray, plan_op: Operator, lam: float) -> np.ndarray:
    """One relaxed step ``x + lam * (T(x) - x)``.

    lam = 1 returns T(x) itself, and a fixed point is returned unchanged for
    any lam (the displacement is exactly zero).
    """
    return _relaxed(x, apply(plan_op, x), lam)


# rows of the iterate record before its first doubling
_RECORD_ROWS0 = 64


def _run_loop(
    schedule: ControlSchedule,
    relax: RelaxationSchedule,
    x0,
    stop: StopRule,
    shift_at: Optional[Callable[[int, np.ndarray], np.ndarray]] = None,
) -> IterationTrace:
    """Shared driver for plain, perturbed, and superiorized runs.

    ``shift_at(k, x)`` returns the shift added to x before step k; the trace
    records its norm.  Without it every step is unperturbed and the trace
    records no perturbations (None).  Each step is :func:`gdsa_step` without
    its per-call conversion and dimension check: x0 passed ``as_vector``, and
    operators keep the dimension.

    Iterates are written into one (capacity, n) array that doubles when full,
    up to ``max_iters + 1`` rows; rows past the filled ones are never written,
    and the trace gets a view of exactly the filled rows.
    """
    rho = rho_constant(schedule)
    relax.validate(rho)
    x = as_vector(x0, dim=schedule.dim)

    cap = stop.max_iters + 1
    record = np.empty((min(_RECORD_ROWS0, cap), x.size))
    record[0] = x
    rows = 1
    step_norms: list[float] = []
    lambdas: list[float] = []
    signatures: list[PlanSignature] = []
    shift_norms: list[float] = []

    quiet_streak = 0
    converged = False
    for k in range(stop.max_iters):
        plan = schedule.plan_at(k)
        op = schedule.operator_for(plan)
        lam = relax.value_at(k)
        if shift_at is None:
            y = x
        else:
            shift = shift_at(k, x)
            shift_norms.append(norm(shift))
            y = x + shift
        x_next = _relaxed(y, op.apply(y), lam)
        step = norm(x_next - x)
        # x is finite, so a non-finite entry of x_next makes the step non-finite
        if not math.isfinite(step) and not np.all(np.isfinite(x_next)):
            raise NonFiniteIterateError(k, f"non-finite iterate at step {k} (lam={lam:g})")

        if rows == len(record):
            grown = np.empty((min(2 * rows, cap), x.size))
            grown[:rows] = record
            record = grown
        record[rows] = x_next
        rows += 1
        step_norms.append(step)
        lambdas.append(lam)
        signatures.append(plan.signature())

        x = x_next
        quiet_streak = quiet_streak + 1 if step <= stop.step_tol else 0
        if quiet_streak >= stop.window:
            converged = True
            break

    return IterationTrace(
        iterates=record[:rows],
        step_norms=np.asarray(step_norms),
        lambdas=np.asarray(lambdas),
        plan_signatures=tuple(signatures),
        perturbations=None if shift_at is None else np.asarray(shift_norms, dtype=float),
        converged=converged,
    )


def run(
    schedule: ControlSchedule,
    relax: RelaxationSchedule,
    x0,
    perturb: Optional[PerturbationSchedule] = None,
    stop: StopRule = StopRule(),
) -> IterationTrace:
    """Run the iteration from x0 until the stop rule fires or max_iters.

    With ``perturb`` given, step k applies the relaxed operator at
    ``x_k + beta_k * v_k`` (perturbation before the operator) and
    ``trace.perturbations[k]`` is ||beta_k * v_k||; without it
    ``trace.perturbations`` is None.  The trace keeps 8 * n + O(1) bytes
    per step.  The relaxation schedule is validated against the schedule's
    rho before any step is taken.
    """
    shift_at = None
    if perturb is not None:
        draw = perturb.direction_stream(schedule.dim)

        def shift_at(k: int, _x: np.ndarray) -> np.ndarray:
            return perturb.beta_at(k) * draw(k)

    return _run_loop(schedule, relax, x0, stop, shift_at)


@dataclass(frozen=True)
class FejerReport:
    """Distance-decrease slacks against certified target points.

    For each step and witness z the slack is
    ``||x_k - z||^2 - c * ||x_{k+1} - x_k||^2 - ||x_{k+1} - z||^2`` with
    ``c = eps / (1 + rho - eps)``; the monitor passes when the worst slack is
    no more negative than the slack tolerance.
    """

    passed: bool
    min_slack: float
    per_step_min: np.ndarray


def fejer_monitor(
    trace: IterationTrace,
    witnesses: FixedPointWitness,
    epsilon: float,
    rho: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> FejerReport:
    """Check the per-step distance-decrease inequality against witness points.

    Witnesses must be caller-certified common fixed points of all scheduled
    averaged operators; the coefficient is eps / (1 + rho - eps).  Raises
    :class:`DimensionMismatchError` if the witnesses are not in the trace's space.

    Iterates and witnesses are finite, so a slack that comes out non-finite has
    overflowed a square: only such steps are recomputed, on operands scaled by
    a power of two, and a slack past the float range is then +-inf, not NaN.
    """
    xs = trace.iterates
    _check_dim("witness", witnesses.points.shape[-1], xs.shape[-1])
    coeff = epsilon / (1.0 + rho - epsilon)
    with np.errstate(over="ignore", invalid="ignore"):
        steps2 = np.sum((xs[1:] - xs[:-1]) ** 2, axis=-1)
        per_step_min = np.full(trace.iterations, np.inf)
        for z in witnesses.points:
            d2 = np.sum((xs - z) ** 2, axis=-1)
            slack = d2[:-1] - coeff * steps2 - d2[1:]
            per_step_min = np.minimum(per_step_min, slack)
    overflowed = np.flatnonzero(~np.isfinite(per_step_min))
    if overflowed.size:
        per_step_min[overflowed] = _scaled_slacks(xs[overflowed], xs[overflowed + 1], witnesses.points, coeff)
    min_slack = float(np.min(per_step_min)) if trace.iterations else 0.0
    return FejerReport(min_slack >= -tolerances.slack_tol, min_slack, _frozen(per_step_min))


def _scaled_slacks(x: np.ndarray, x_next: np.ndarray, points: np.ndarray, coeff: float) -> np.ndarray:
    """The least Fejer slack of each step ``x -> x_next`` (rows) over ``points``,
    with each step's operands scaled by 2^-e, e the exponent of their largest
    entry, so that no square overflows; the slack is scaled back by 2^(2e)."""
    e = np.frexp(np.maximum(np.abs(np.hstack([x, x_next])).max(axis=-1), np.abs(points).max()))[1]
    x, x_next = np.ldexp(x, -e[:, None]), np.ldexp(x_next, -e[:, None])
    z = np.ldexp(points, -e[:, None, None])
    d2, d2_next = (np.sum((v[:, None] - z) ** 2, axis=-1) for v in (x, x_next))
    slack = d2 - coeff * np.sum((x_next - x) ** 2, axis=-1)[:, None] - d2_next
    with np.errstate(over="ignore"):
        return np.ldexp(slack.min(axis=-1), 2 * e)


@dataclass(frozen=True)
class DistanceDecayReport:
    """Residual table along the trace, one column per supplied operator.

    ``residuals[k, j]`` is ||T_j(x_k) - x_k||, so ``residuals[-1]`` holds the
    final residuals.
    """

    residuals: np.ndarray


def distance_decay_diagnostic(
    trace: IterationTrace,
    per_set_projectors: list[Operator] | tuple[Operator, ...],
) -> DistanceDecayReport:
    """Tabulate per-operator residuals along the trace.

    In finite dimension, per-operator residuals going to zero forces the
    distance to the common target set to zero, so these columns are the
    practical convergence certificate.
    """
    xs = trace.iterates
    cols = [residual(op, xs) for op in per_set_projectors]
    res = np.stack(cols, axis=-1) if cols else np.zeros((len(xs), 0))
    return DistanceDecayReport(residuals=_frozen(res))
