"""The attributes the benchmark's tracer wraps must stay where it looks for them.

``bench/tracing.py`` replaces each attribute below by reading
``owner.__dict__[name]`` and setting a wrapper in its place.  An attribute
inherited, moved to a helper or renamed would break only the traced
benchmark runs, so this test pins the list.
"""

from __future__ import annotations

import numpy as np
import pytest

import gdsa
import gdsa.cli
import gdsa.superiorize
from conftest import import_bench, old_residual, same_bits

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
    schedule.operator_for(schedule.plan_at(0))
    assert len(schedule._op_cache) == 1


def test_tracer_installs_and_restores():
    tracing = import_bench("tracing")
    before = {(owner, name): owner.__dict__[name] for owner, name in WRAPPED}
    originals = tracing.install(tracing.Tracer(), gdsa, gdsa.cli)
    try:
        assert {(owner, name) for owner, name, _ in originals} <= set(before)
    finally:
        tracing.restore(originals)
    assert all(owner.__dict__[name] is fn for (owner, name), fn in before.items())


def test_traced_unperturbed_run_counts_trace_bytes():
    tracing = import_bench("tracing")
    tracer = tracing.Tracer()
    schedule = gdsa.ControlSchedule(
        operators=(gdsa.BoxProjection([-3.0], [-1.0]), gdsa.BoxProjection([1.0], [3.0])),
        cycle=(gdsa.simultaneous_plan(2),),
    )
    relax = gdsa.RelaxationSchedule(epsilon=0.05, constant=1.0)
    originals = tracing.install(tracer, gdsa, gdsa.cli)
    try:
        trace = gdsa.run(schedule, relax, [7.3], stop=gdsa.StopRule(step_tol=1e-8))
    finally:
        tracing.restore(originals)
    assert trace.perturbations is None
    stored = trace.iterates.nbytes + trace.step_norms.nbytes + trace.lambdas.nbytes
    assert tracer.counters[("", "engine.trace_bytes")] == stored
    assert tracer.counters[("", "engine.run.steps")] == trace.iterations


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


def test_strings_residual_table_is_the_leaf_formula_with_a_fixed_call_count(monkeypatch):
    # The tracer requires every solve's certification to make the same spans
    # (`counts_repeat`); a residual path whose leaf calls depended on the
    # iterates would make the benchmark run incorrect.
    workload = import_bench("workloads").HalfspaceWorkload(gdsa, 1, "strings")
    traces = [workload.solve(0), workload.solve(1)]
    xs = traces[0].iterates
    tables = [gdsa.distance_decay_diagnostic(trace, workload.sets).residuals for trace in traces]
    for j, op in enumerate(workload.sets):
        assert same_bits(tables[0][:, j], old_residual(op, xs))
    # the two solves leave different numbers of rows outside their sets
    assert np.count_nonzero(tables[0]) != np.count_nonzero(tables[1])
    leaf_apply = gdsa.HalfspaceProjection.__dict__["apply"]
    calls = []

    def counting(self, x):
        calls.append(1)
        return leaf_apply(self, x)

    monkeypatch.setattr(gdsa.HalfspaceProjection, "apply", counting)
    counts = []
    for trace in traces:
        calls.clear()
        gdsa.distance_decay_diagnostic(trace, workload.sets)
        counts.append(len(calls))
    assert counts[0] == counts[1]
