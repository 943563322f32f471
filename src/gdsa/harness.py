"""The problem container, brute-force oracles, experiment configuration, and
trace/summary persistence.

The oracles here form the independent verification channel: they rely only on
closed-form projections, grid search, and plain fixed-point (Picard)
iteration, never on the relaxed engine loop they are used to check.  The two
grid oracles are restricted to dimension <= 3; the Picard oracle runs in any
dimension, under a hard iteration cap.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ._float_text import CELL, format_17g
from .core import (
    DEFAULT_TOLERANCES, Tolerances, _as_float, _as_floats, _as_int, _check_dim, _frozen, as_vector,
    check_weights, norm,
)
from .engine import (
    IterationTrace,
    PerturbationSchedule,
    RelaxationSchedule,
    StopRule,
)
from .operators import (
    BallProjection, BoxProjection, Composition, ConvexCombination, HalfspaceProjection, HyperplaneProjection,
    Identity, Operator, Relaxation, apply, propagate_alpha, residual,
)
from .strings import (
    ControlSchedule, StringPlan, averaged_operator, is_fit, rho_constant, signature_str, simultaneous_plan,
)
from .superiorize import L1Norm, MaxOfAffine, ObjectiveFunction, SuperiorizationSchedule, WeightedSquaredNorm

__all__ = [
    "ConfigError",
    "OracleIterationCapError",
    "ProblemInstance",
    "GridSpec",
    "ExperimentConfig",
    "proximity_value",
    "proximity_argmin_oracle",
    "fixed_point_oracle",
    "constrained_min_oracle",
    "certified_c_witness",
    "load_config",
    "operator_from_json",
    "parse_config",
    "config_hash",
    "write_trace_csv",
    "summary_doc",
    "write_summary_json",
]


class ConfigError(ValueError):
    """Malformed experiment configuration."""


class OracleIterationCapError(RuntimeError):
    """Plain fixed-point iteration hit its hard cap without converging."""


_ORACLE_DIM_LIMIT = 3
_ORACLE_PICARD_CAP = 1_000_000


@dataclass(frozen=True)
class ProblemInstance:
    """A finite family of closed convex sets in R^``dim``, given by their
    ``projectors``, one per set, each of dimension ``dim``."""

    dim: int
    projectors: tuple[Operator, ...]

    def __post_init__(self) -> None:
        projectors = tuple(self.projectors)
        if not projectors:
            raise ValueError("a problem needs at least one set")
        for p in projectors:
            _check_dim("projector", p.dim, self.dim)
        object.__setattr__(self, "projectors", projectors)

    @property
    def m(self) -> int:
        return len(self.projectors)

    def equal_weights(self) -> tuple[float, ...]:
        return (1.0 / self.m,) * self.m


@dataclass(frozen=True)
class GridSpec:
    """Uniform search grid [low, high]^dim with ``points`` nodes per axis."""

    low: float = -5.0
    high: float = 5.0
    points: int = 41

    def __post_init__(self) -> None:
        if not (self.low < self.high and np.isfinite(self.high - self.low)):
            raise ValueError("grid requires low < high with a finite span")
        if self.points < 2:
            raise ValueError("grid needs at least 2 points per axis")

    def mesh(self, dim: int) -> np.ndarray:
        axes = [np.linspace(self.low, self.high, self.points)] * dim
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    @property
    def cell(self) -> float:
        return (self.high - self.low) / (self.points - 1)


def proximity_value(problem: ProblemInstance, weights, x) -> float:
    """Weighted mean squared violation ``(1/2) sum_i w_i ||P_i(x) - x||^2``.

    Zero exactly on the intersection of all sets; its minimizers are the
    fixed points of the weighted simultaneous projection operator.
    Accepts batches of points.
    """
    w = check_weights(weights, problem.m)
    x = np.asarray(x, dtype=float)
    total = 0.0
    for wi, p in zip(w, problem.projectors):
        d = apply(p, x) - x
        total = total + wi * np.sum(d * d, axis=-1)
    return 0.5 * total if np.ndim(total) else float(0.5 * total)


def _pattern_search(f, start: np.ndarray, h0: float, h_min: float) -> np.ndarray:
    """Coordinate pattern search with step halving; for convex f this refines
    a grid argmin down to h_min."""
    x = np.asarray(start, dtype=float).copy()
    fx = f(x)
    h = h0
    dim = x.size
    while h > h_min:
        improved = False
        for i in range(dim):
            for sgn in (1.0, -1.0):
                cand = x.copy()
                cand[i] += sgn * h
                fc = f(cand)
                if fc < fx:
                    x, fx = cand, fc
                    improved = True
        if not improved:
            h *= 0.5
    return x


def _grid_oracle_weights(problem: ProblemInstance, weights) -> tuple[float, ...]:
    """The checked per-set weights of a grid oracle, which only runs in dimension <= 3."""
    if problem.dim > _ORACLE_DIM_LIMIT:
        raise ValueError(f"oracle restricted to dimension <= {_ORACLE_DIM_LIMIT}")
    return check_weights(weights, problem.m)


def proximity_argmin_oracle(
    problem: ProblemInstance,
    weights,
    grid: GridSpec = GridSpec(),
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Brute-force minimizer of the proximity function: grid search plus
    halving-step refinement down to conv_tol.  Restricted to dim <= 3."""
    w = _grid_oracle_weights(problem, weights)
    mesh = grid.mesh(problem.dim)
    values = proximity_value(problem, w, mesh)
    best = mesh[int(np.argmin(values))]
    return _pattern_search(
        lambda x: proximity_value(problem, w, x), best, grid.cell, tolerances.conv_tol / 10.0
    )


def fixed_point_oracle(
    op: Operator,
    x0,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Plain Picard iteration of ``op`` from x0 down to residual conv_tol/100.

    ``x0`` is one start point or a (k, n) stack of them.  Each row stops at
    its first iterate that passes the residual test.  A stack goes through
    the stacked formulas of ``op``, so its rows agree with separate calls
    only up to rounding.  Independent of the relaxed engine loop.  Plain
    iteration converges for averaged operators (``propagate_alpha(op) < 2``);
    a reflection (alpha = 2) is refused at once, an operator without a
    derivable alpha must declare one, and the hard iteration cap
    ``_ORACLE_PICARD_CAP`` guards the rest.  No dimension limit applies.
    """
    if propagate_alpha(op) >= 2.0:
        raise OracleIterationCapError(
            "plain iteration need not converge for alpha >= 2 (a reflection)"
        )
    x = np.asarray(x0, dtype=float)
    tol = tolerances.conv_tol / 100.0
    if x.ndim == 1:
        x = as_vector(x, dim=op.dim)
    for _ in range(_ORACLE_PICARD_CAP):
        tx = apply(op, x)
        done = norm(tx - x) <= tol
        if np.all(done):
            return tx
        # a finished row stays put, so its image is recomputed unchanged
        x = np.where(np.expand_dims(done, -1), x, tx)
    raise OracleIterationCapError(f"no fixed point within {_ORACLE_PICARD_CAP} plain iterations")


def constrained_min_oracle(
    problem: ProblemInstance,
    weights,
    phi: ObjectiveFunction,
    grid: GridSpec = GridSpec(),
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Brute-force minimizer of ``phi`` over the target set of the weighted
    simultaneous iteration.

    The target set is sampled densely by plain fixed-point iteration from
    every grid node; the best sample is refined by a projected pattern search
    (each candidate is mapped back into the set before evaluation).
    Restricted to dim <= 3.
    """
    w = _grid_oracle_weights(problem, weights)
    avg = averaged_operator(simultaneous_plan(problem.m, w), problem.projectors)

    def project(x: np.ndarray) -> np.ndarray:
        return fixed_point_oracle(avg, x, tolerances)

    samples = fixed_point_oracle(avg, grid.mesh(problem.dim), tolerances)
    values = np.array([phi.evaluate(s) for s in samples])
    best = samples[int(np.argmin(values))]

    def f(x: np.ndarray) -> float:
        return phi.evaluate(project(x))

    refined = _pattern_search(f, best, grid.cell, tolerances.conv_tol / 10.0)
    return project(refined)


def certified_c_witness(
    schedule: ControlSchedule,
    x0,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> Optional[np.ndarray]:
    """A point fixed by every distinct scheduled averaged operator, or None.

    Found by plain iteration of one averaged operator and certified by
    checking its residual, at most 10 * conv_tol, under all the others.
    """
    ops = list(schedule.distinct_operators().values())
    try:
        z = fixed_point_oracle(ops[0], x0, tolerances)
    except OracleIterationCapError:
        return None
    if all(residual(op, z) <= 10.0 * tolerances.conv_tol for op in ops):
        return z
    return None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs, parsed from a single JSON document.

    The schedule operators, fixed perturbation directions, objective and x0
    live in the problem's dimension, every declared alpha of a set or
    schedule operator lies in (0, 2], and every relaxation value lies in
    [eps, 1 + rho - eps] for the schedule's rho (else
    :class:`RelaxationRangeError`).  At most one of ``perturb`` and ``sup``
    is set, and ``objective`` exactly when ``sup`` is: ``sup`` makes the run
    superiorized, ``perturb`` perturbed.  ``raw``, the resolved document, and
    so ``hash`` are set only by :func:`parse_config`; ``dataclasses.replace``
    gives a config without them.
    """

    problem: ProblemInstance
    schedule: ControlSchedule
    relax: RelaxationSchedule
    x0: np.ndarray
    seed: int = 0
    stop: StopRule = StopRule()
    tolerances: Tolerances = DEFAULT_TOLERANCES
    perturb: Optional[PerturbationSchedule] = None
    objective: Optional[ObjectiveFunction] = None
    sup: Optional[SuperiorizationSchedule] = None
    raw: Optional[dict] = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        dim = self.problem.dim
        _check_dim("schedule operator", self.schedule.dim, dim)
        for op in self.problem.projectors + self.schedule.operators:
            propagate_alpha(op)  # checks each declared alpha, whether or not a run reaches it
        self.relax.validate(rho_constant(self.schedule))  # every lam in [eps, 1 + rho - eps], run or not
        if self.perturb is not None:
            self.perturb.direction_stream(dim)  # refuses a direction of another dimension
        if self.objective is not None and self.objective.dim is not None:
            _check_dim("objective", self.objective.dim, dim)
        object.__setattr__(self, "x0", _frozen(as_vector(self.x0, dim=dim).copy()))
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.perturb is not None and self.sup is not None:
            raise ConfigError("choose either 'perturbation' or 'superiorization', not both")
        if (self.objective is None) != (self.sup is None):
            raise ConfigError("'objective' and 'sup' are set together or not at all")

    @property
    def hash(self) -> Optional[str]:
        return None if self.raw is None else config_hash(self.raw)

    def plan_weights(self) -> tuple[float, ...]:
        """Per-set weights for proximity oracles.

        Uses the cycle's plan when the cycle is that one plan and it is fully
        simultaneous (a fit plan of length-1 strings); equal weights otherwise.
        """
        plan = self.schedule.cycle[0]
        m = self.problem.m
        if len(self.schedule.cycle) == 1 and plan.q == 1 and is_fit(plan, m):
            by_index = {s[0]: w for s, w in zip(plan.strings, plan.weights)}
            return tuple(by_index[i] for i in range(1, m + 1))
        return self.problem.equal_weights()


def config_hash(doc: dict) -> str:
    """Stable hash of the raw config document (sorted-key canonical JSON)."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _resolve_includes(doc, base_dir: Path, chain: tuple[str, ...] = ()):
    """Replace {"include": "path"} nodes by the referenced JSON document.

    ``chain`` holds the resolved paths of the includes being expanded, outermost
    first; a file that includes one of them is a cycle.  A file included twice
    along separate branches is not.  Returns fresh dicts and lists, so the
    result never aliases ``doc``.
    """
    if isinstance(doc, dict):
        if set(doc.keys()) == {"include"}:
            if not isinstance(name := doc["include"], str) or not name:
                raise ConfigError(f"include must name a file, got {name!r}")
            target = base_dir / name
            resolved = os.path.realpath(target)
            if resolved in chain:
                raise ConfigError(f"config includes itself: {' -> '.join((*chain, resolved))}")
            try:
                with open(target, encoding="utf-8") as fh:
                    included = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot include {target}: {exc}") from exc
            return _resolve_includes(included, target.parent, (*chain, resolved))
        return {k: _resolve_includes(v, base_dir, chain) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_resolve_includes(v, base_dir, chain) for v in doc]
    return doc


# Config JSON layout: a "kind" tag plus the node's fields, children nested.


def operator_from_json(doc: dict) -> Operator:
    """Build an operator expression from its JSON document; ``"alpha"`` sets ``declared_alpha``."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("operator document must be an object with a 'kind' tag")
    kind = doc["kind"]
    alpha = None if doc.get("alpha") is None else _as_float(doc["alpha"])
    if kind == "halfspace":
        return HalfspaceProjection(_as_floats(doc["a"]), _as_float(doc["b"]), declared_alpha=alpha)
    if kind == "hyperplane":
        return HyperplaneProjection(_as_floats(doc["a"]), _as_float(doc["b"]), declared_alpha=alpha)
    if kind == "ball":
        return BallProjection(_as_floats(doc["center"]), _as_float(doc["radius"]), declared_alpha=alpha)
    if kind == "box":
        return BoxProjection(_as_floats(doc["lo"]), _as_floats(doc["hi"]), declared_alpha=alpha)
    if kind == "identity":
        return Identity(_as_int(doc["dim"]), declared_alpha=alpha)
    if kind == "relaxation":
        return Relaxation(operator_from_json(doc["inner"]), _as_float(doc["lam"]), declared_alpha=alpha)
    if kind == "combination":
        terms = tuple((_as_float(t["weight"]), operator_from_json(t["op"])) for t in doc["terms"])
        return ConvexCombination(terms, declared_alpha=alpha)
    if kind == "composition":
        return Composition(tuple(operator_from_json(d) for d in doc["ops"]), declared_alpha=alpha)
    raise ValueError(f"unknown operator kind {kind!r}")


def _parse_plan(doc: dict) -> StringPlan:
    if not isinstance(doc, dict) or "strings" not in doc or "weights" not in doc:
        raise ValueError("plan document needs 'strings' and 'weights'")
    return StringPlan(tuple(doc["strings"]), _as_floats(doc["weights"]))


def _parse_objective(doc: dict) -> ObjectiveFunction:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("objective document must be an object with a 'kind' tag")
    kind = doc["kind"]
    if kind == "l1":
        return L1Norm()
    if kind == "wsqnorm":
        return WeightedSquaredNorm(_as_floats(doc["center"]), _as_float(doc.get("weight", 1.0)))
    if kind == "max_affine":
        return MaxOfAffine(tuple((_as_floats(p["a"]), _as_float(p["b"])) for p in doc["pieces"]))
    raise ValueError(f"unknown objective kind {kind!r}")


def _parse_problem(doc: dict) -> ProblemInstance:
    if "dim" not in doc or "sets" not in doc:
        raise ConfigError("problem needs 'dim' and 'sets'")
    projectors = tuple(operator_from_json(d) for d in doc["sets"])
    return ProblemInstance(dim=_as_int(doc["dim"]), projectors=projectors)


def _parse_schedule(doc: dict, problem: ProblemInstance) -> ControlSchedule:
    if "cycle" not in doc:
        raise ConfigError("schedule needs a 'cycle' of plans")
    if "operators" in doc:
        operators = tuple(operator_from_json(d) for d in doc["operators"])
    else:
        operators = problem.projectors
    cycle = tuple(_parse_plan(p) for p in doc["cycle"])
    preamble = tuple(_parse_plan(p) for p in doc.get("preamble", []))
    return ControlSchedule(operators=operators, cycle=cycle, preamble=preamble)


def _fields(doc: dict, **casts) -> dict:
    """The keys of ``casts`` that ``doc`` sets, each cast; absent keys keep the
    defaults of the dataclass they are passed to."""
    if not isinstance(doc, dict):
        raise ConfigError(f"expected an object, got {doc!r}")
    return {key: cast(doc[key]) for key, cast in casts.items() if key in doc}


def _parse_relaxation(doc: dict) -> RelaxationSchedule:
    kwargs = _fields(
        doc, epsilon=_as_float, constant=_as_float, cycle=lambda v: tuple(_as_floats(v).tolist()), base=_as_float
    )
    if "base" in doc:  # a slope only modifies a base
        kwargs.update(_fields(doc, slope=_as_float))
    return RelaxationSchedule(**kwargs)


def parse_config(doc: dict, base_dir: Path | str = ".") -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a JSON document.

    Raises :class:`ConfigError` on any structural or validation problem.
    """
    try:
        doc = _resolve_includes(doc, Path(base_dir))
        for key in ("problem", "schedule", "relaxation", "x0"):
            if key not in doc:
                raise ConfigError(f"config is missing {key!r}")
        problem = _parse_problem(doc["problem"])
        schedule = _parse_schedule(doc["schedule"], problem)
        relax = _parse_relaxation(doc["relaxation"])
        tol_casts = dict.fromkeys(("eq_tol", "conv_tol", "slack_tol", "subgrad_zero_tol"), _as_float)
        tolerances = Tolerances(**_fields(doc.get("tolerances", {}), **tol_casts))
        stop_doc = {"step_tol": tolerances.conv_tol, **doc.get("stop", {})}
        stop = StopRule(**_fields(stop_doc, step_tol=_as_float, window=_as_int, max_iters=_as_int))
        seed = _as_int(doc.get("seed", 0))
        perturb = None
        if "perturbation" in doc:
            p = {"seed": seed, **doc["perturbation"]}
            perturb = PerturbationSchedule(
                **_fields(p, beta0=_as_float, decay=_as_float, seed=_as_int, directions=_as_floats)
            )
        objective = None
        sup = None
        if "superiorization" in doc:
            s = doc["superiorization"]
            if "objective" not in s:
                raise ConfigError("superiorization needs an 'objective'")
            objective = _parse_objective(s["objective"])
            sup = SuperiorizationSchedule(**_fields(s, beta0=_as_float, decay=_as_float, steps=_as_int))
        config = ExperimentConfig(
            problem=problem,
            schedule=schedule,
            relax=relax,
            x0=_as_floats(doc["x0"]),
            seed=seed,
            stop=stop,
            tolerances=tolerances,
            perturb=perturb,
            objective=objective,
            sup=sup,
        )
        object.__setattr__(config, "raw", doc)  # only the parser states the document
        return config
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
        raise ConfigError(str(exc)) from exc
    except RecursionError as exc:
        raise ConfigError(f"config nests too deeply: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # nesting past the recursion limit
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc, path.parent)


_TRACE_BLOCK_ROWS = 128


def write_trace_csv(
    trace: IterationTrace,
    path: str | Path,
    fejer_slack_min: Optional[np.ndarray] = None,
) -> None:
    """Persist a trace with 17-significant-digit decimals (byte-reproducible).

    Row k holds iterate k; the step-indexed columns are empty on the final
    row.  perturb_norm is ``trace.perturbations[k]``, the recorded norm of
    step k's shift, and 0 throughout for a trace without perturbations.
    Superiorized traces gain phi_value and budget columns.  Every number is
    written as format(v, ".17g") would write it, in blocks of rows.
    """
    dim = trace.iterates.shape[-1]
    n = trace.iterations
    if fejer_slack_min is not None and len(fejer_slack_min) != n:
        raise ValueError(f"fejer_slack_min must hold one slack per step, {n}, got {len(fejer_slack_min)}")
    header = ["k"] + [f"x{i}" for i in range(dim)]
    header += ["step_norm", "lambda", "plan_signature", "perturb_norm", "fejer_slack_min"]
    superiorized = trace.phi_values is not None
    if superiorized:
        header += ["phi_value", "perturb_l1_budget_remaining"]
    # columns: k, x, step_norm, lambda, signature, perturb_norm, fejer, [phi, budget]
    sig_col = dim + 3
    step_cols = [dim + 1, dim + 2, dim + 4, dim + 5] + ([dim + 7] if superiorized else [])
    ncols = len(header)
    plans = {sig: signature_str(sig).encode() for sig in dict.fromkeys(trace.plan_signatures)}
    # the final row takes the empty label
    labels = [plans[sig] for sig in trace.plan_signatures] + [b""]
    width = CELL + 1  # a label can be longer than any number; it does not widen the cells
    ends = np.full(ncols, ord(","), dtype=np.uint8)
    ends[-1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for r0 in range(0, n + 1, _TRACE_BLOCK_ROWS):
            rows = min(n + 1 - r0, _TRACE_BLOCK_ROWS)
            steps = min(rows, n - r0)  # rows that carry step-indexed cells
            values = np.zeros((rows, ncols))
            # row numbers are below 2**53, so they print as their float does
            values[:, 0] = np.arange(r0, r0 + rows)
            values[:, 1:dim + 1] = trace.iterates[r0:r0 + rows]
            values[:steps, dim + 1] = trace.step_norms[r0:r0 + steps]
            values[:steps, dim + 2] = trace.lambdas[r0:r0 + steps]
            if trace.perturbations is not None:
                values[:steps, dim + 4] = trace.perturbations[r0:r0 + steps]
            if fejer_slack_min is not None:
                values[:steps, dim + 5] = fejer_slack_min[r0:r0 + steps]
            if superiorized:
                values[:, dim + 6] = trace.phi_values[r0:r0 + rows]
                values[:steps, dim + 7] = trace.perturb_budget_remaining[r0:r0 + steps]
            # the signature column is formatted as 0.0 and then written empty
            cells = np.empty((rows, ncols, width), dtype=np.uint8)
            lens = format_17g(values.reshape(-1), cells.reshape(-1, width)).reshape(rows, ncols)
            lens[:, sig_col] = 0
            lens[steps:, step_cols] = 0
            if fejer_slack_min is None:
                lens[:, dim + 5] = 0
            cells.reshape(-1)[np.arange(rows * ncols) * width + lens.reshape(-1)] = np.tile(ends, rows)
            # a one-byte type halves the cost of the mask
            text = memoryview(cells[np.arange(width, dtype=np.uint8) <= lens.astype(np.uint8)[..., None]])
            # each row's label goes in before the comma that ends its signature cell
            row_ends = np.cumsum(lens.sum(axis=1) + ncols)
            cuts = [0, *(row_ends - lens[:, sig_col:].sum(axis=1) - (ncols - sig_col)).tolist(), len(text)]
            pieces = [b""] * (2 * rows + 1)
            pieces[::2] = [text[a:b] for a, b in zip(cuts, cuts[1:])]
            pieces[1::2] = labels[r0:r0 + rows]
            fh.write(b"".join(pieces))


def summary_doc(
    config: ExperimentConfig,
    trace: IterationTrace,
    fejer_min_slack: Optional[float] = None,
) -> dict:
    """The run summary: config hash, iterations, final point, per-plan
    residuals, minimum Fejér slack and final objective value."""
    final = trace.final
    residuals = {
        signature_str(sig): residual(op, final)
        for sig, op in config.schedule.distinct_operators().items()
    }
    return {
        "config_hash": config.hash,
        "seed": config.seed,
        "iters": trace.iterations,
        "converged": trace.converged,
        "final_x": [float(v) for v in final],
        "final_residuals": residuals,
        "fejer_min_slack": fejer_min_slack,
        "phi_final": float(trace.phi_values[-1]) if trace.phi_values is not None else None,
    }


def write_summary_json(
    path: str | Path,
    config: ExperimentConfig,
    trace: IterationTrace,
    fejer_min_slack: Optional[float] = None,
) -> dict:
    """Write the run summary; returns the document that was written."""
    doc = summary_doc(config, trace, fejer_min_slack)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return doc
