"""The attributes the benchmark's tracer wraps must stay where it looks for them.

``bench/tracing.py`` replaces each attribute below by reading
``owner.__dict__[name]`` and setting a wrapper in its place.  An attribute
inherited, moved to a helper or renamed would break only the traced
benchmark runs, so this test pins the list.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import gdsa
import gdsa.cli
import gdsa.superiorize

BENCH = Path(__file__).resolve().parent.parent / "bench"

WRAPPED = [
    (gdsa.HalfspaceProjection, "apply"),
    (gdsa.HyperplaneProjection, "apply"),
    (gdsa.BallProjection, "apply"),
    (gdsa.BoxProjection, "apply"),
    (gdsa.ConvexCombination, "apply"),
    (gdsa.Composition, "apply"),
    (gdsa.ControlSchedule, "operator_for"),
    (gdsa.ControlSchedule, "plan_at"),
    (gdsa.StringPlan, "signature"),
    (gdsa.L1Norm, "evaluate"),
    (gdsa.L1Norm, "subgradient"),
    (gdsa, "run"),
    (gdsa, "fejer_monitor"),
    (gdsa, "distance_decay_diagnostic"),
    (gdsa.superiorize, "perturbation_directions"),
    (gdsa.cli, "main"),
    (gdsa.cli, "run"),
    (gdsa.cli, "superiorized_run"),
    (gdsa.cli, "fejer_monitor"),
    (gdsa.cli, "load_config"),
    (gdsa.cli, "write_trace_csv"),
    (gdsa.cli, "write_summary_json"),
]


@pytest.mark.parametrize("owner, name", WRAPPED, ids=[f"{o.__name__}.{n}" for o, n in WRAPPED])
def test_wrapped_attribute_is_owned(owner, name):
    assert callable(owner.__dict__.get(name))


def test_operator_for_reads_the_plan_cache():
    # the tracer counts plan-cache hits from len(schedule._op_cache)
    schedule = gdsa.ControlSchedule(
        operators=(gdsa.BoxProjection([0.0], [1.0]), gdsa.BoxProjection([2.0], [3.0])),
        cycle=(gdsa.simultaneous_plan(2),),
    )
    assert isinstance(schedule._op_cache, dict) and len(schedule._op_cache) == 0
    schedule.operator_at(0)
    assert len(schedule._op_cache) == 1


def test_tracer_installs_and_restores():
    sys.path.insert(0, str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))
    before = {(owner, name): owner.__dict__[name] for owner, name in WRAPPED}
    originals = tracing.install(tracing.Tracer(), gdsa, gdsa.cli)
    try:
        assert {(owner, name) for owner, name, _ in originals} <= set(before)
    finally:
        tracing.restore(originals)
    assert all(owner.__dict__[name] is fn for (owner, name), fn in before.items())
