from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from gdsa import ControlSchedule, RelaxationSchedule, StopRule, simultaneous_plan
from gdsa.harness import (
    overlapping_ball_problem,
    segment_problem,
    two_ball_problem,
    two_interval_problem,
)

# Property tests draw the same examples on every run, so any two runs of the
# suite check the same cases.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


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


def interval_distance(x, lo: float, hi: float) -> np.ndarray:
    """Closed-form distance from scalar points to [lo, hi]."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return np.maximum.reduce([lo - x, np.zeros_like(x), x - hi])
