"""Every array that a frozen gdsa object stores is read-only, and it is the
object's own array, not one its caller can still write to."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import gdsa
from gdsa import (
    BallProjection,
    BoxProjection,
    ConvexCombination,
    FixedPointWitness,
    HalfspaceProjection,
    HyperplaneProjection,
    MaxOfAffine,
    PerturbationSchedule,
    RelaxationSchedule,
    StopRule,
    WeightedSquaredNorm,
    distance_decay_diagnostic,
    fejer_monitor,
    parse_config,
    run,
    strict_fejer_monitor,
)
from conftest import simultaneous_schedule, two_ball_problem

CONFIG_DOC = {
    "problem": {
        "dim": 2,
        "sets": [
            {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            {"kind": "halfspace", "a": [1.0, 1.0], "b": 0.5},
            {"kind": "ball", "center": [0.0, 0.5], "radius": 2.0},
        ],
    },
    "schedule": {"cycle": [{"strings": [[1], [2, 3]], "weights": [0.5, 0.5]}]},
    "relaxation": {"constant": 1.0},
    "superiorization": {"objective": {"kind": "wsqnorm", "center": [0.3, -0.2]}},
    "x0": [3.0, -2.5],
}


def stored_arrays(obj):
    """The ndarrays that ``obj`` holds: in its dataclass fields or slots, and in
    the tuples, lists, dicts and objects nested in them."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from stored_arrays(value)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from stored_arrays(value)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from stored_arrays(getattr(obj, f.name))
    elif hasattr(type(obj), "__slots__"):
        for name in type(obj).__slots__:
            yield from stored_arrays(getattr(obj, name))


def frozen_instances() -> list:
    """One instance of each frozen class that stores arrays; the reports come from a short run."""
    schedule = simultaneous_schedule(two_ball_problem())
    trace = run(schedule, RelaxationSchedule(epsilon=0.05, constant=1.0), [3.0, 4.0], stop=StopRule(max_iters=50))
    config = parse_config(CONFIG_DOC)
    config.schedule.operator_for(config.schedule.plan_at(0))  # fills the schedule's operator cache
    return [
        HalfspaceProjection(np.array([1.0, 2.0]), 0.5),
        HyperplaneProjection(np.array([1.0, 2.0]), 0.5),
        BallProjection(np.array([0.0, 1.0]), 2.0),
        BoxProjection(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
        ConvexCombination(
            ((0.5, HalfspaceProjection(np.array([1.0, 0.0]), 1.0)), (0.5, HalfspaceProjection(np.array([0.0, 1.0]), 1.0)))
        ),
        FixedPointWitness([[0.0, 1.0], [0.0, 1.5]]),
        WeightedSquaredNorm(np.array([0.3, -0.2]), 2.0),
        MaxOfAffine(((np.array([1.0, 0.0]), 0.0), (np.array([-0.5, 1.0]), 0.3))),
        PerturbationSchedule(directions=(np.array([0.6, 0.8]), [0.0, 1.0])),
        config,
        fejer_monitor(trace, FixedPointWitness([[0.0, 1.0]]), 0.05, 1.0),
        distance_decay_diagnostic(trace, schedule.operators),
        strict_fejer_monitor(trace, [5.0, 5.0]),
    ]


INSTANCES = frozen_instances()


@pytest.mark.parametrize("obj", INSTANCES, ids=[type(obj).__name__ for obj in INSTANCES])
def test_every_stored_array_is_read_only(obj):
    arrays = list(stored_arrays(obj))
    assert arrays
    assert [a for a in arrays if a.flags.writeable] == []


def test_the_census_covers_every_frozen_class_that_stores_arrays():
    covered = {type(obj) for obj in INSTANCES}
    holders = {
        cls
        for cls in vars(gdsa).values()
        if isinstance(cls, type)
        and dataclasses.is_dataclass(cls)
        and cls.__dataclass_params__.frozen
        and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))
    }
    assert sorted(cls.__name__ for cls in holders - covered) == []


def test_a_replaced_config_owns_its_x0():
    config = parse_config(CONFIG_DOC)
    x0 = np.array([2.0, -1.0])
    replaced = dataclasses.replace(config, x0=x0)
    x0[0] = 9.0
    assert replaced.x0.tolist() == [2.0, -1.0]
    with pytest.raises(ValueError, match="read-only"):
        replaced.x0[0] = 42.0
