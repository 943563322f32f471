from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from gdsa import ControlSchedule, RelaxationSchedule, StopRule, simultaneous_plan
from gdsa.core import DEFAULT_TOLERANCES, _check_dim, norm
from gdsa.harness import ProblemInstance
from gdsa.operators import BallProjection, BoxProjection
from gdsa.superiorize import NonFiniteObjectiveError

# Property tests draw the same examples on every run, so any two runs of the
# suite check the same cases.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


# Desk-scale problems used across the test and acceptance suites.


def two_interval_problem() -> ProblemInstance:
    """Two disjoint intervals [-3, -1] and [1, 3] on the line; the equally
    weighted simultaneous iteration settles at 0, the midpoint of the gap."""
    return ProblemInstance(
        dim=1,
        projectors=(
            BoxProjection(np.array([-3.0]), np.array([-1.0])),
            BoxProjection(np.array([1.0]), np.array([3.0])),
        ),
    )


def two_ball_problem() -> ProblemInstance:
    """Two disjoint unit balls centered (-2, 1) and (2, 1); the equally
    weighted simultaneous iteration settles at (0, 1)."""
    return ProblemInstance(
        dim=2,
        projectors=(
            BallProjection(np.array([-2.0, 1.0]), 1.0),
            BallProjection(np.array([2.0, 1.0]), 1.0),
        ),
    )


def segment_problem() -> ProblemInstance:
    """A single degenerate box: the segment from (-1, 0) to (1, 0)."""
    return ProblemInstance(
        dim=2,
        projectors=(BoxProjection(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),),
    )


def overlapping_ball_problem() -> ProblemInstance:
    """Two balls of radius sqrt(2) centered (-1, 0) and (1, 0); their
    intersection is a lens around the origin, so the sets intersect."""
    r = float(np.sqrt(2.0))
    return ProblemInstance(
        dim=2,
        projectors=(
            BallProjection(np.array([-1.0, 0.0]), r),
            BallProjection(np.array([1.0, 0.0]), r),
        ),
    )


@pytest.fixture
def two_interval():
    return two_interval_problem()


@pytest.fixture
def two_ball():
    return two_ball_problem()


@pytest.fixture
def segment():
    return segment_problem()


@pytest.fixture
def overlapping():
    return overlapping_ball_problem()


def simultaneous_schedule(problem, weights=None) -> ControlSchedule:
    plan = simultaneous_plan(problem.m, weights)
    return ControlSchedule(operators=problem.projectors, cycle=(plan,))


@pytest.fixture
def interval_schedule(two_interval) -> ControlSchedule:
    return simultaneous_schedule(two_interval)


@pytest.fixture
def ball_schedule(two_ball) -> ControlSchedule:
    return simultaneous_schedule(two_ball)


@pytest.fixture
def unit_relax() -> RelaxationSchedule:
    return RelaxationSchedule(epsilon=0.05, constant=1.0)


@pytest.fixture
def default_stop() -> StopRule:
    return StopRule(step_tol=1e-8, window=10, max_iters=10_000)


# The config of the README's schema section (two intervals in R^1), and a box
# and a half-space in R^2.
CONFIG_DOC = {
    "problem": {
        "dim": 1,
        "sets": [
            {"kind": "box", "lo": [-3.0], "hi": [-1.0]},
            {"kind": "box", "lo": [1.0], "hi": [3.0]},
        ],
    },
    "schedule": {"cycle": [{"strings": [[1], [2]], "weights": [0.5, 0.5]}]},
    "relaxation": {"epsilon": 0.05, "constant": 1.0},
    "seed": 17,
    "x0": [7.3],
    "stop": {"step_tol": 1e-8, "window": 10, "max_iters": 10000},
}
SETS = CONFIG_DOC["problem"]["sets"]
R2_DOC = {
    "problem": {"dim": 2, "sets": [
        {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        {"kind": "halfspace", "a": [1.0, 1.0], "b": 0.5},
    ]},
    "schedule": {"cycle": [{"strings": [[1], [2]], "weights": [0.5, 0.5]}]},
    "relaxation": {"epsilon": 0.05, "constant": 1.0},
    "seed": 3,
    "x0": [4.0, -2.5],
}


def with_key(doc: dict, key: str, value) -> dict:
    """A copy of ``doc`` with the dotted ``key`` set to ``value``; a list index is a number."""
    doc = json.loads(json.dumps(doc))
    *path, last = key.split(".")
    node = doc
    for part in path:
        node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
    node[int(last) if isinstance(node, list) else last] = value
    return doc


def import_bench(name: str):
    """The benchmark's module ``bench/<name>.py``; its folder is on the path only during the import."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(bench)


def same_bits(u, v) -> bool:
    """Same shape, dtype and bytes: equal to the last bit, signed zeros and NaN payloads included."""
    u, v = np.asarray(u), np.asarray(v)
    return u.shape == v.shape and u.dtype == v.dtype and u.tobytes() == v.tobytes()


def old_halfspace(op, x):
    """The half-space projection's stacked formula before any fast path, kept unchanged as the reference."""
    excess = np.maximum(0.0, x @ op.a - op.b)
    return x - (excess / op._aa)[..., None] * op.a


def old_residual(op, xs):
    """The half-space's row residuals as ``residual`` computed them before it skipped the rows left fixed."""
    return norm(old_halfspace(op, xs) - xs)


def old_perturbation_directions(y, phi, betas, tolerances=DEFAULT_TOLERANCES):
    """``perturbation_directions`` before it shared its loop with ``superiorized_run``, kept as the reference."""
    point = np.asarray(y, dtype=float)
    if phi.dim is not None:
        _check_dim("objective", phi.dim, point.size)
    zero_tol = tolerances.subgrad_zero_tol
    last = len(betas) - 1
    dirs = []
    for n, beta in enumerate(betas):
        if not math.isfinite(phi.evaluate(point)):
            raise NonFiniteObjectiveError("objective evaluated to a non-finite value")
        s = phi.subgradient(point)
        ns = phi._subgradient_norm(s)
        if not math.isfinite(ns):
            raise NonFiniteObjectiveError("subgradient selection is non-finite")
        v = np.zeros_like(point) if ns <= zero_tol else s / -ns
        dirs.append(v)
        if n < last:
            point = point + beta * v
    return dirs


def tree_sum(terms, x):
    """Sum of w_i * leaf.apply(x), accumulated left to right."""
    out = terms[0][0] * terms[0][1].apply(x)
    for w, op in terms[1:]:
        out = out + w * op.apply(x)
    return out


def interval_distance(x, lo: float, hi: float) -> np.ndarray:
    """Closed-form distance from scalar points to [lo, hi]."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return np.maximum.reduce([lo - x, np.zeros_like(x), x - hi])
