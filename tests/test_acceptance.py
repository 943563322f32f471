"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import segment_problem, simultaneous_schedule, two_ball_problem, two_interval_problem
from gdsa.cli import main
from gdsa.core import SampleSpec
from gdsa.engine import (
    PerturbationSchedule,
    RelaxationRangeError,
    RelaxationSchedule,
    StopRule,
    fejer_monitor,
    run,
)
from gdsa.harness import (
    GridSpec,
    ProblemInstance,
    constrained_min_oracle,
    fixed_point_oracle,
    proximity_argmin_oracle,
)
from gdsa.operators import (
    BoxProjection,
    Composition,
    FixedPointWitness,
    Relaxation,
    check_cutter,
    check_nonexpansive,
    check_rho_fne,
    residual,
)
from gdsa.strings import (
    ControlSchedule,
    StringPlan,
    check_admissibility,
    rho_constant,
    simultaneous_plan,
)
from gdsa.superiorize import (
    L1Norm,
    MaxOfAffine,
    SuperiorizationSchedule,
    find_strict_fejer_k0,
    strict_fejer_monitor,
    superiorized_run,
)

_T0 = time.perf_counter()

EPS = 0.05
VIOLATION_TOL = 1e-12
STOP = StopRule(step_tol=1e-8, window=10, max_iters=10_000)
RELAX = RelaxationSchedule(epsilon=EPS, constant=1.0)


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def _operator_suite():
    """Every primitive and composite the acceptance problems use, each with
    its theory rho and exact fixed-point witnesses."""
    intervals = two_interval_problem()
    balls = two_ball_problem()
    seg = segment_problem()
    p1, p2 = intervals.projectors
    b1, b2 = balls.projectors
    entries = [
        ("interval [-3,-1]", p1, 1.0, [[-2.0], [-1.0], [-3.0]]),
        ("interval [1,3]", p2, 1.0, [[1.0], [2.0], [3.0]]),
        ("ball(-2,1)", b1, 1.0, [[-2.0, 1.0], [-1.0, 1.0], [-2.0, 0.0]]),
        ("ball(2,1)", b2, 1.0, [[2.0, 1.0], [1.0, 1.0], [2.0, 0.0]]),
        ("segment box", seg.projectors[0], 1.0, [[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]),
        (
            "simultaneous intervals",
            simultaneous_schedule(intervals).operator_at(0),
            1.0,
            [[0.0]],
        ),
        ("simultaneous balls", simultaneous_schedule(balls).operator_at(0), 1.0, [[0.0, 1.0]]),
        ("string 1-2 intervals", Composition((p1, p2)), 0.5, [[1.0]]),
        ("string 2-1 intervals", Composition((p2, p1)), 0.5, [[-1.0]]),
        ("string 1-2 balls", Composition((b1, b2)), 0.5, [[1.0, 1.0]]),
        ("string 2-1 balls", Composition((b2, b1)), 0.5, [[-1.0, 1.0]]),
    ]
    return entries


def test_criterion_1_operator_inequality_suite():
    t0 = time.perf_counter()
    worst = -np.inf
    for name, op, rho, witness_points in _operator_suite():
        samples = SampleSpec(dim=op.dim, count=1000, seed=101)
        witness = FixedPointWitness(np.array(witness_points))
        witness.verify(op)
        for report in (
            check_nonexpansive(op, samples),
            check_rho_fne(op, rho, samples),
            check_cutter(op, witness, samples),
        ):
            worst = max(worst, report.max_violation)
            assert report.max_violation <= VIOLATION_TOL, f"{name}: {report}"
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 5.0, f"max violation {worst:.2e} <= 1e-12, runtime {elapsed:.2f}s < 5s")


def test_criterion_2_rho_constant_law():
    intervals = two_interval_problem()
    fne_sched = simultaneous_schedule(intervals)
    rho_fne = rho_constant(fne_sched)
    hi_fne = 1.0 + rho_fne - EPS

    reflections = tuple(Relaxation(p, 2.0) for p in intervals.projectors)
    ne_sched = ControlSchedule(operators=reflections, cycle=(simultaneous_plan(2),))
    rho_ne = rho_constant(ne_sched)
    hi_ne = 1.0 + rho_ne - EPS

    assert rho_fne == 1.0
    assert hi_fne == 2.0 - EPS
    RelaxationSchedule(epsilon=EPS, constant=2.0 - EPS).validate(rho_fne)
    with pytest.raises(RelaxationRangeError):
        RelaxationSchedule(epsilon=EPS, constant=2.0 - EPS + 1e-9).validate(rho_fne)

    assert rho_ne == 0.0
    assert hi_ne == 1.0 - EPS
    RelaxationSchedule(epsilon=EPS, constant=1.0 - EPS).validate(rho_ne)
    with pytest.raises(RelaxationRangeError):
        RelaxationSchedule(epsilon=EPS, constant=1.0 - EPS + 1e-9).validate(rho_ne)

    _report(2, True, f"all-FNE M=1: rho={rho_fne}, range [{EPS}, {hi_fne}]; all-NE: rho={rho_ne}, range [{EPS}, {hi_ne}]")


def _interval_runs():
    schedule = simultaneous_schedule(two_interval_problem())
    return [(x0, run(schedule, RELAX, [x0], stop=STOP)) for x0 in (-10.0, 0.5, 7.3)], schedule


def test_criterion_3_two_interval_convergence():
    t0 = time.perf_counter()
    oracle = proximity_argmin_oracle(two_interval_problem(), (0.5, 0.5))
    runs, _ = _interval_runs()
    worst_gap = 0.0
    for x0, trace in runs:
        assert trace.converged and trace.iterations <= 10_000, f"x0={x0} did not converge"
        assert trace.step_norms[-1] <= 1e-8
        gap = abs(trace.final[0] - oracle[0])
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6, f"x0={x0}: limit {trace.final[0]} vs oracle {oracle[0]}"
    elapsed = time.perf_counter() - t0
    _report(3, elapsed < 1.0, f"3 starts converge to oracle {oracle[0]:.2e} (worst gap {worst_gap:.2e}), runtime {elapsed:.2f}s < 1s")


def test_criterion_4_fejer_inequality():
    runs, schedule = _interval_runs()
    witness = FixedPointWitness(np.array([[0.0]]))
    rho = rho_constant(schedule)
    min_slack = np.inf
    for _x0, trace in runs:
        report = fejer_monitor(trace, witness, EPS, rho)
        min_slack = min(min_slack, report.min_slack)
        assert report.passed

    ball_schedule = simultaneous_schedule(two_ball_problem())
    trace = run(ball_schedule, RELAX, [3.0, 4.0], stop=STOP)
    report = fejer_monitor(trace, FixedPointWitness(np.array([[0.0, 1.0]])), EPS, rho_constant(ball_schedule))
    min_slack = min(min_slack, report.min_slack)
    assert report.passed

    _report(4, min_slack >= -1e-12, f"min Fejer slack {min_slack:.2e} >= -1e-12 across 4 unperturbed runs")


def test_criterion_5_perturbation_resilience():
    schedule = simultaneous_schedule(two_interval_problem())
    oracle = proximity_argmin_oracle(two_interval_problem(), (0.5, 0.5))
    avg = schedule.operator_at(0)
    worst_res, worst_gap = 0.0, 0.0
    for seed in range(5):
        perturb = PerturbationSchedule(beta0=0.5, decay=0.9, seed=seed)
        trace = run(schedule, RELAX, [7.3], perturb=perturb, stop=STOP)
        res = residual(avg, trace.final)
        gap = abs(trace.final[0] - oracle[0])
        worst_res, worst_gap = max(worst_res, res), max(worst_gap, gap)
        assert res <= 1e-7, f"seed {seed}: residual {res}"
        assert gap <= 1e-5, f"seed {seed}: distance to oracle {gap}"
    _report(5, True, f"5 seeds: worst residual {worst_res:.2e} <= 1e-7, worst oracle gap {worst_gap:.2e} <= 1e-5")


def test_criterion_6_admissibility_checker():
    p1, p2 = two_interval_problem().projectors
    plan_a = StringPlan(((1,), (2,)), (0.5, 0.5))
    plan_b = StringPlan(((1, 2),), (1.0,))

    periodic = ControlSchedule(operators=(p1, p2), cycle=(plan_a, plan_b))
    report = check_admissibility(periodic)
    assert report.admissible
    assert all(gap <= 2 for gap in report.tight_gap_bounds.values())

    with_preamble = ControlSchedule(operators=(p1, p2), cycle=(plan_a,), preamble=(plan_b,))
    report2 = check_admissibility(with_preamble)
    assert not report2.admissible
    assert report2.violating_index == 0
    assert report2.tail_admissible and report2.k0 == 1

    _report(6, True, "period-2 cycle admissible with gaps <= 2; preamble-only plan flagged at index 0, tail-admissible with k0=1")


def _dichotomy_case(problem, schedule, phi, sup, y0, weights):
    trace = superiorized_run(schedule, RELAX, phi, sup, y0, stop=STOP)
    zmin = constrained_min_oracle(problem, weights, phi, GridSpec(-4, 4, 21))
    in_cmin = float(np.linalg.norm(trace.final - zmin)) <= 1e-6
    k0 = find_strict_fejer_k0(trace, zmin)
    strict = False
    if k0 is not None and k0 <= trace.iterations - 10:
        report = strict_fejer_monitor(trace, zmin, k0)
        strict = bool(report.passed) and bool(np.all(report.decrements[k0:] > 1e-12))
    return trace, zmin, in_cmin, strict


def test_criterion_7_superiorization_dichotomy():
    seg = segment_problem()
    seg_schedule = simultaneous_schedule(seg)
    phi_linear = MaxOfAffine(((np.array([1.0, 0.0]), 0.0),))

    t0 = time.perf_counter()
    # ample budget: the steering reaches the constrained minimizer itself
    _, zmin, in_cmin, strict = _dichotomy_case(
        seg, seg_schedule, phi_linear, SuperiorizationSchedule(beta0=0.5, decay=0.9), [0.5, 2.0], (1.0,)
    )
    assert np.allclose(zmin, [-1.0, 0.0], atol=1e-6)
    assert in_cmin != strict and in_cmin
    # small budget: the limit stalls short, every tail step strictly approaches
    _, _, in_cmin2, strict2 = _dichotomy_case(
        seg, seg_schedule, phi_linear, SuperiorizationSchedule(beta0=0.05, decay=0.9), [0.5, 2.0], (1.0,)
    )
    assert in_cmin2 != strict2 and strict2
    seg_elapsed = time.perf_counter() - t0
    assert seg_elapsed < 5.0

    t0 = time.perf_counter()
    balls = two_ball_problem()
    ball_schedule = simultaneous_schedule(balls)
    _, zmin_b, in_cmin3, strict3 = _dichotomy_case(
        balls, ball_schedule, L1Norm(), SuperiorizationSchedule(beta0=0.5, decay=0.9), [3.0, 4.0], (0.5, 0.5)
    )
    assert np.allclose(zmin_b, [0.0, 1.0], atol=1e-6)
    assert in_cmin3 != strict3 and in_cmin3
    ball_elapsed = time.perf_counter() - t0
    assert ball_elapsed < 5.0

    _report(
        7,
        True,
        "segment problem: alternative (i) with ample budget, (ii) with small budget; "
        f"two-ball problem: alternative (i); runtimes {seg_elapsed:.2f}s/{ball_elapsed:.2f}s < 5s",
    )


def test_criterion_8_oracle_equivalence():
    asymmetric = ProblemInstance(
        dim=1,
        projectors=(
            BoxProjection(np.array([-3.0]), np.array([-1.0])),
            BoxProjection(np.array([2.0]), np.array([5.0])),
        ),
    )
    cases = [
        ("two intervals", two_interval_problem(), (0.5, 0.5), [7.3]),
        ("asymmetric intervals", asymmetric, (0.5, 0.5), [-4.0]),
        ("two balls", two_ball_problem(), (0.5, 0.5), [3.0, 4.0]),
        ("weighted two balls", two_ball_problem(), (0.3, 0.7), [3.0, 4.0]),
    ]
    worst = 0.0
    for name, problem, weights, x0 in cases:
        schedule = simultaneous_schedule(problem, weights)
        fp = fixed_point_oracle(schedule.operator_at(0), x0)
        argmin = proximity_argmin_oracle(problem, weights, GridSpec(-6, 6, 49))
        gap = float(np.max(np.abs(fp - argmin)))
        worst = max(worst, gap)
        assert gap <= 1e-5, f"{name}: fixed point {fp} vs proximity argmin {argmin}"
    _report(8, True, f"fixed-point and proximity-argmin oracles agree to {worst:.2e} <= 1e-5 on 4 problems")


def test_criterion_9_run_determinism(tmp_path):
    doc = {
        "problem": {
            "dim": 1,
            "sets": [
                {"kind": "box", "lo": [-3.0], "hi": [-1.0]},
                {"kind": "box", "lo": [1.0], "hi": [3.0]},
            ],
        },
        "schedule": {"cycle": [{"strings": [[1], [2]], "weights": [0.5, 0.5]}]},
        "relaxation": {"epsilon": 0.05, "constant": 1.0},
        "perturbation": {"beta0": 0.5, "decay": 0.9},
        "seed": 424242,
        "x0": [7.3],
        "stop": {"step_tol": 1e-8, "window": 10, "max_iters": 10000},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", str(config), "--out", str(tmp_path / "r1"), "--quiet"]) == 0
    assert main(["run", str(config), "--out", str(tmp_path / "r2"), "--quiet"]) == 0
    b1 = (tmp_path / "r1" / "trace.csv").read_bytes()
    b2 = (tmp_path / "r2" / "trace.csv").read_bytes()
    _report(9, b1 == b2, f"two CLI runs with identical config+seed wrote identical CSV ({len(b1)} bytes)")


def test_criterion_10_wall_clock():
    elapsed = time.perf_counter() - _T0
    _report(10, elapsed < 60.0, f"acceptance suite wall clock {elapsed:.2f}s < 60s")
