from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from conftest import interval_distance, simultaneous_schedule
from gdsa.core import DEFAULT_TOLERANCES, SampleSpec
from gdsa.engine import (
    IterationTrace,
    NonFiniteIterateError,
    PerturbationSchedule,
    RelaxationRangeError,
    RelaxationSchedule,
    StopRule,
    distance_decay_diagnostic,
    fejer_monitor,
    gdsa_step,
    run,
    step_norm_decay,
)
from gdsa.operators import (
    BallProjection,
    FixedPointWitness,
    Operator,
    Relaxation,
    apply,
    check_rho_fne,
    residual,
)
from gdsa.strings import ControlSchedule, rho_constant, simultaneous_plan


class TestGdsaStep:
    def test_fixed_point_unmoved(self, interval_schedule):
        op = interval_schedule.operator_at(0)
        x = np.array([0.0])
        for lam in (0.1, 1.0, 1.9):
            assert np.array_equal(gdsa_step(x, op, lam), x)

    def test_unit_relaxation_returns_operator_value(self):
        ball = BallProjection(np.zeros(2), 1.0)
        x = np.array([3.0, 4.0])
        assert np.array_equal(gdsa_step(x, ball, 1.0), apply(ball, x))

    def test_two_interval_midpoint(self, interval_schedule):
        op = interval_schedule.operator_at(0)
        # P1(0.5) = -1 and P2(0.5) = 1, so the average annihilates 0.5
        assert gdsa_step(np.array([0.5]), op, 1.0) == pytest.approx([0.0])


class TestRelaxationSchedule:
    def test_exactly_one_kind_required(self):
        with pytest.raises(ValueError):
            RelaxationSchedule(constant=1.0, cycle=(1.0,))
        with pytest.raises(ValueError):
            RelaxationSchedule()

    def test_cyclic_values(self):
        sched = RelaxationSchedule(cycle=(0.5, 1.5))
        assert [sched.value_at(k) for k in range(4)] == [0.5, 1.5, 0.5, 1.5]

    def test_formula_values(self):
        sched = RelaxationSchedule(base=1.0, slope=0.5)
        assert sched.value_at(0) == 1.5
        assert sched.value_at(4) == pytest.approx(1.1)

    def test_range_law_all_fne_length_one(self):
        eps = 0.05
        RelaxationSchedule(epsilon=eps, constant=2.0 - eps).validate(1.0)
        with pytest.raises(RelaxationRangeError):
            RelaxationSchedule(epsilon=eps, constant=2.0 - eps + 1e-6).validate(1.0)
        with pytest.raises(RelaxationRangeError):
            RelaxationSchedule(epsilon=eps, constant=eps / 2).validate(1.0)

    def test_range_law_all_nonexpansive(self):
        eps = 0.05
        RelaxationSchedule(epsilon=eps, constant=1.0 - eps).validate(0.0)
        with pytest.raises(RelaxationRangeError):
            RelaxationSchedule(epsilon=eps, constant=1.0 - eps + 1e-6).validate(0.0)

    def test_formula_validated_at_both_ends(self):
        # values decrease from base + slope toward base
        RelaxationSchedule(epsilon=0.05, base=0.5, slope=1.0).validate(1.0)
        with pytest.raises(RelaxationRangeError):
            RelaxationSchedule(epsilon=0.05, base=0.04, slope=1.0).validate(1.0)
        with pytest.raises(RelaxationRangeError):
            RelaxationSchedule(epsilon=0.05, base=1.0, slope=1.0).validate(1.0)


class TestRun:
    @pytest.mark.parametrize("x0", [-10.0, 0.5, 7.3])
    def test_two_interval_converges_to_zero(self, interval_schedule, unit_relax, default_stop, x0):
        trace = run(interval_schedule, unit_relax, [x0], stop=default_stop)
        assert trace.converged
        assert trace.step_norms[-1] <= 1e-8
        assert abs(trace.final[0]) <= 1e-6

    def test_fixed_point_start_stops_immediately(self, interval_schedule, unit_relax, default_stop):
        trace = run(interval_schedule, unit_relax, [0.0], stop=default_stop)
        assert trace.converged
        assert trace.iterations == default_stop.window
        assert np.all(trace.step_norms <= DEFAULT_TOLERANCES.eq_tol)

    def test_trace_shape_invariants(self, interval_schedule, unit_relax, default_stop):
        trace = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        assert len(trace.iterates) == trace.iterations + 1
        assert len(trace.lambdas) == trace.iterations
        assert len(trace.plan_signatures) == trace.iterations
        assert trace.perturbations.shape == (trace.iterations, 1)
        assert np.all(trace.perturbations == 0.0)

    def test_out_of_range_relaxation_rejected_before_iterating(self, interval_schedule):
        bad = RelaxationSchedule(epsilon=0.05, constant=2.0)  # 1 + rho = 2 itself is out
        with pytest.raises(RelaxationRangeError):
            run(interval_schedule, bad, [7.3])

    def test_perturbed_run_reaches_same_limit(self, interval_schedule, unit_relax, default_stop):
        perturb = PerturbationSchedule(beta0=1.0, decay=0.5, seed=123)
        trace = run(interval_schedule, unit_relax, [7.3], perturb=perturb, stop=default_stop)
        baseline = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        assert abs(trace.final[0] - baseline.final[0]) <= DEFAULT_TOLERANCES.conv_tol

    def test_perturbed_limit_is_near_fixed(self, interval_schedule, unit_relax, default_stop):
        for seed in range(3):
            perturb = PerturbationSchedule(beta0=0.5, decay=0.9, seed=seed)
            trace = run(interval_schedule, unit_relax, [7.3], perturb=perturb, stop=default_stop)
            for op in interval_schedule.distinct_operators().values():
                assert residual(op, trace.final) <= 10 * DEFAULT_TOLERANCES.conv_tol

    def test_identical_seeds_give_bit_identical_traces(self, interval_schedule, unit_relax, default_stop):
        perturb = PerturbationSchedule(beta0=0.5, decay=0.9, seed=7)
        t1 = run(interval_schedule, unit_relax, [7.3], perturb=perturb, stop=default_stop)
        t2 = run(interval_schedule, unit_relax, [7.3], perturb=perturb, stop=default_stop)
        assert np.array_equal(t1.iterates, t2.iterates)
        assert np.array_equal(t1.step_norms, t2.step_norms)
        assert np.array_equal(t1.perturbations, t2.perturbations)

    def test_fixed_direction_list_is_cycled(self, interval_schedule, unit_relax, default_stop):
        perturb = PerturbationSchedule(beta0=0.5, decay=0.9, directions=(np.array([1.0]), np.array([-1.0])))
        trace = run(interval_schedule, unit_relax, [7.3], perturb=perturb, stop=default_stop)
        assert np.sign(trace.perturbations[0, 0]) == 1.0
        assert np.sign(trace.perturbations[1, 0]) == -1.0

    def test_direction_norm_bounded(self):
        with pytest.raises(ValueError):
            PerturbationSchedule(directions=(np.array([1.5, 0.0]),))

    def test_nonfinite_iterate_aborts_with_diagnostic(self):
        @dataclass(frozen=True, eq=False)
        class Doubler(Operator):
            dim_: int
            declared_alpha: float = 2.0  # claimed nonexpansive; actually expansive

            @property
            def dim(self):
                return self.dim_

            def apply(self, x):
                return 2.0 * np.asarray(x, dtype=float)

        sched = ControlSchedule(operators=(Doubler(1),), cycle=(simultaneous_plan(1),))
        relax = RelaxationSchedule(epsilon=0.05, constant=0.9)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteIterateError):
            run(sched, relax, [5.0], stop=StopRule(step_tol=1e-8, window=10, max_iters=5000))


class TestFejerMonitor:
    def test_constant_trace_nonnegative(self, interval_schedule, unit_relax):
        trace = run(interval_schedule, unit_relax, [0.0], stop=StopRule(1e-8, 10, 100))
        report = fejer_monitor(trace, FixedPointWitness(np.array([[0.0]])), 0.05, 1.0)
        assert report.passed and report.min_slack >= 0.0

    def test_two_interval_run_passes_everywhere(self, interval_schedule, unit_relax, default_stop):
        trace = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        report = fejer_monitor(trace, FixedPointWitness(np.array([[0.0]])), 0.05, 1.0)
        assert report.passed
        assert np.all(report.per_step_min >= -DEFAULT_TOLERANCES.slack_tol)

    def test_coefficient_value(self, interval_schedule, unit_relax, default_stop):
        trace = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        report = fejer_monitor(trace, FixedPointWitness(np.array([[0.0]])), 0.1, 1.0)
        assert report.coefficient == pytest.approx(0.1 / 1.9)

    def test_corrupted_trace_fails(self, interval_schedule, unit_relax, default_stop):
        trace = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        iterates = trace.iterates.copy()
        iterates[1] = iterates[1] + 1.0 + abs(iterates[0]) + abs(iterates[1])  # move away from 0
        broken = IterationTrace(
            iterates=iterates,
            step_norms=trace.step_norms,
            lambdas=trace.lambdas,
            plan_signatures=trace.plan_signatures,
            perturbations=trace.perturbations,
            converged=trace.converged,
        )
        report = fejer_monitor(broken, FixedPointWitness(np.array([[0.0]])), 0.05, 1.0)
        assert not report.passed and report.min_slack < 0.0

    def test_empty_witness_rejected(self, interval_schedule, unit_relax, default_stop):
        trace = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        with pytest.raises(ValueError):
            fejer_monitor(trace, FixedPointWitness(np.zeros((0, 1))), 0.05, 1.0)


class TestStepNormDecay:
    def test_converged_run_passes(self, interval_schedule, unit_relax, default_stop):
        trace = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        assert step_norm_decay(trace).passed is True

    def test_single_step_reports_only(self, interval_schedule, unit_relax):
        trace = run(interval_schedule, unit_relax, [7.3], stop=StopRule(1e-8, 10, 1))
        report = step_norm_decay(trace)
        assert report.passed is None
        assert report.last_step_norm > 0.0

    def test_fixed_point_start_all_zeros(self, interval_schedule, unit_relax, default_stop):
        trace = run(interval_schedule, unit_relax, [0.0], stop=default_stop)
        report = step_norm_decay(trace)
        assert report.passed is True and report.last_step_norm == 0.0


class TestDistanceDecay:
    def test_converged_run_residuals_vanish(self, two_interval, interval_schedule, unit_relax, default_stop):
        trace = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        report = distance_decay_diagnostic(trace, two_interval.projectors)
        # the inconsistent problem's limit violates each set by exactly 1
        assert report.final_residuals == pytest.approx([1.0, 1.0], abs=1e-8)
        avg_report = distance_decay_diagnostic(trace, [interval_schedule.operator_at(0)])
        assert np.all(avg_report.tail_max <= DEFAULT_TOLERANCES.conv_tol)

    def test_point_outside_all_sets_reports_positive(self, two_interval, interval_schedule, unit_relax):
        trace = run(interval_schedule, unit_relax, [7.3], stop=StopRule(1e-8, 10, 1))
        report = distance_decay_diagnostic(trace, two_interval.projectors)
        assert np.all(report.residuals[0] > 0.0)

    def test_projection_residual_equals_oracle_distance(self, two_interval, interval_schedule, unit_relax, default_stop):
        # metric projections shrink approximately: the residual IS the set distance
        trace = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        report = distance_decay_diagnostic(trace, two_interval.projectors)
        xs = trace.iterates[:, 0]
        assert report.residuals[:, 0] == pytest.approx(interval_distance(xs, -3.0, -1.0), abs=1e-12)
        assert report.residuals[:, 1] == pytest.approx(interval_distance(xs, 1.0, 3.0), abs=1e-12)

    def test_oracle_distance_column(self, interval_schedule, unit_relax, default_stop):
        trace = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        report = distance_decay_diagnostic(
            trace, [interval_schedule.operator_at(0)], c_sample=np.array([[0.0]])
        )
        assert report.oracle_distances[-1] <= 1e-6


class TestRelaxedStepOperator:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 1.9])
    def test_relaxed_step_rho_fne(self, interval_schedule, lam):
        # the one-step map inherits rho = (1 + rho_U - lam) / lam
        rho_u = rho_constant(interval_schedule)
        op = Relaxation(interval_schedule.operator_at(0), lam)
        rho = (1.0 + rho_u - lam) / lam
        assert check_rho_fne(op, rho, SampleSpec(dim=1, seed=21)).passed

    def test_relaxed_step_rho_fne_two_ball(self, ball_schedule):
        rho_u = rho_constant(ball_schedule)
        lam = 1.5
        op = Relaxation(ball_schedule.operator_at(0), lam)
        rho = (1.0 + rho_u - lam) / lam
        assert check_rho_fne(op, rho, SampleSpec(dim=2, seed=22)).passed
