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

import numpy as np
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


@pytest.mark.parametrize("shape", ["contiguous", "interleaved", "art"])
def test_string_step_calls_each_halfspace_leaf_once(monkeypatch, shape):
    # `operators.leaf.calls.halfspace` counts these calls: 100 per step of a
    # 100-row string plan, 10 000 per `strings` solve.  A fused string kernel
    # that skips the leaves would read 0 there without a span of its own.
    m, n = 100, 20
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, n))
    sets = tuple(gdsa.HalfspaceProjection(a[i], 0.0) for i in range(m))
    strings = {
        "contiguous": tuple(tuple(range(25 * j + 1, 25 * j + 26)) for j in range(4)),
        "interleaved": tuple(tuple(range(j + 1, m + 1, 4)) for j in range(4)),
        "art": (tuple(range(1, m + 1)),),
    }[shape]
    plan = gdsa.StringPlan(strings, (1.0 / len(strings),) * len(strings))
    schedule = gdsa.ControlSchedule(operators=sets, cycle=(plan,))
    leaf_apply = gdsa.HalfspaceProjection.__dict__["apply"]
    calls = []

    def counting(self, x):
        calls.append(1)
        return leaf_apply(self, x)

    monkeypatch.setattr(gdsa.HalfspaceProjection, "apply", counting)
    trace = gdsa.run(schedule, gdsa.RelaxationSchedule(epsilon=0.05, constant=0.9),
                     5.0 * rng.standard_normal(n), stop=gdsa.StopRule(step_tol=1e-300, window=1, max_iters=1))
    assert trace.iterations == 1
    assert len(calls) == m
