from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from gdsa import ControlSchedule, RelaxationSchedule, StopRule, simultaneous_plan
from gdsa.harness import ProblemInstance
from gdsa.operators import BallProjection, BoxProjection

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


def same_bits(u, v) -> bool:
    """Same shape, dtype and bytes: equal to the last bit, signed zeros and NaN payloads included."""
    u, v = np.asarray(u), np.asarray(v)
    return u.shape == v.shape and u.dtype == v.dtype and u.tobytes() == v.tobytes()


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
