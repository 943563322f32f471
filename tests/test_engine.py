from __future__ import annotations

import itertools
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import interval_distance, simultaneous_schedule
from gdsa.core import DEFAULT_TOLERANCES, DimensionMismatchError, SampleSpec, norm
from gdsa.engine import (
    _RECORD_ROWS0,
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
)
from gdsa.operators import (
    BallProjection,
    BoxProjection,
    FixedPointWitness,
    HalfspaceProjection,
    HyperplaneProjection,
    Operator,
    Relaxation,
    apply,
    check_rho_fne,
    residual,
)
from gdsa.strings import ControlSchedule, StringPlan, rho_constant, simultaneous_plan
from gdsa.superiorize import L1Norm, MaxOfAffine, SuperiorizationSchedule, WeightedSquaredNorm, superiorized_run


class TestGdsaStep:
    def test_fixed_point_unmoved(self, interval_schedule):
        op = interval_schedule.operator_for(interval_schedule.plan_at(0))
        x = np.array([0.0])
        for lam in (0.1, 1.0, 1.9):
            assert np.array_equal(gdsa_step(x, op, lam), x)

    def test_unit_relaxation_returns_operator_value(self):
        ball = BallProjection(np.zeros(2), 1.0)
        x = np.array([3.0, 4.0])
        assert np.array_equal(gdsa_step(x, ball, 1.0), apply(ball, x))

    def test_two_interval_midpoint(self, interval_schedule):
        op = interval_schedule.operator_for(interval_schedule.plan_at(0))
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

    def test_every_cycle_value_validated_before_any_step(self, interval_schedule, monkeypatch):
        eps = 0.05
        RelaxationSchedule(epsilon=eps, cycle=(eps, 1.0, 2.0 - eps)).validate(1.0)
        bad = RelaxationSchedule(epsilon=eps, cycle=(0.5, 1.0, 2.0 - eps + 1e-6))
        with pytest.raises(RelaxationRangeError, match="outside"):
            bad.validate(1.0)
        steps = []
        monkeypatch.setattr(ControlSchedule, "plan_at", lambda _self, k: steps.append(k))
        with pytest.raises(RelaxationRangeError):
            run(interval_schedule, bad, [7.3])
        assert steps == []


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
        assert trace.perturbations is None  # an unperturbed run records no shifts

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
        directions = (np.array([1.0]), np.array([-1.0]))
        perturb = PerturbationSchedule(beta0=0.5, decay=0.9, directions=directions)
        trace = run(interval_schedule, unit_relax, [7.3], perturb=perturb, stop=default_stop)
        # the run is the loop that adds +beta_k on even steps and -beta_k on odd ones
        xs, shifts, _ = hand_loop(interval_schedule, 1.0, [7.3], trace.iterations,
                                  lambda k, _x: perturb.beta_at(k) * directions[k % 2])
        assert trace.iterates.tobytes() == xs.tobytes()
        assert trace.perturbations.tobytes() == norm(shifts).tobytes()
        # and not the loop that starts the cycle with -1: its third iterate differs
        flipped, _, _ = hand_loop(interval_schedule, 1.0, [7.3], 2,
                                  lambda k, _x: perturb.beta_at(k) * directions[1 - k % 2])
        assert flipped[2, 0] != xs[2, 0]

    def test_a_direction_of_another_dimension_is_refused(self, ball_schedule, unit_relax, default_stop):
        assert ball_schedule.dim == 2
        for bad in ([1.0], [1.0, 0.0, 0.0]):
            perturb = PerturbationSchedule(directions=(np.array([0.0, 1.0]), np.array(bad)))
            message = f"direction dimension {len(bad)} differs from problem dimension 2"
            with pytest.raises(DimensionMismatchError, match=message):
                run(ball_schedule, unit_relax, [4.0, -2.5], perturb=perturb, stop=default_stop)
        directions = (np.array([0.0, 1.0]), np.array([-1.0, 0.0]))
        perturb = PerturbationSchedule(directions=directions)
        trace = run(ball_schedule, unit_relax, [4.0, -2.5], perturb=perturb, stop=default_stop)
        # the R^2 directions are added whole, and one norm per step is recorded
        xs, shifts, _ = hand_loop(ball_schedule, 1.0, [4.0, -2.5], trace.iterations,
                                  lambda k, _x: perturb.beta_at(k) * directions[k % 2])
        assert shifts.shape == (trace.iterations, 2)
        assert trace.iterates.tobytes() == xs.tobytes()
        assert trace.perturbations.shape == (trace.iterations,)
        assert trace.perturbations.tobytes() == norm(shifts).tobytes()

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


def mixed_schedule(dim: int = 5) -> ControlSchedule:
    """Five sets of four kinds under three plans of length-1 strings (rho = 1)."""
    rng = np.random.default_rng(5)
    sets = (
        BoxProjection(-np.ones(dim), np.ones(dim)),
        BallProjection(0.3 * np.ones(dim), 1.5),
        HalfspaceProjection(rng.standard_normal(dim), 0.4),
        HalfspaceProjection(rng.standard_normal(dim), 0.1),
        HyperplaneProjection(rng.standard_normal(dim), 0.2),
    )
    cycle = (
        simultaneous_plan(5),
        StringPlan(((1,), (2,), (3,), (4,), (5,)), (0.1, 0.15, 0.2, 0.25, 0.3)),
        StringPlan(((3,), (4,)), (0.5, 0.5)),
    )
    return ControlSchedule(operators=sets, cycle=cycle)


def hand_loop(schedule, lam, x0, iterations, shift_at=None):
    """``gdsa_step`` applied step by step: iterates, shift vectors and step norms."""
    x = np.array(x0, dtype=float)
    xs, shifts, steps = [x], [], []
    for k in range(iterations):
        y = x
        if shift_at is not None:
            shifts.append(shift_at(k, x))
            y = x + shifts[-1]
        x_next = gdsa_step(y, schedule.operator_for(schedule.plan_at(k)), lam)
        steps.append(norm(x_next - x))
        xs.append(x_next)
        x = x_next
    return np.array(xs), np.array(shifts), np.array(steps)


class TestRunLoopEqualsGdsaStep:
    X0 = (4.0, -3.0, 2.5, 6.0, -1.0)
    X0_SIGNED_ZEROS = (4.0, -0.0, 0.0, 6.0, -0.0)
    STOP = StopRule(step_tol=1e-9, window=5, max_iters=300)

    @pytest.mark.parametrize("lam", [1.0, 0.7, 1.5])
    @pytest.mark.parametrize("perturbed", [False, True], ids=["plain", "perturbed"])
    def test_run(self, lam, perturbed):
        schedule = mixed_schedule()
        relax = RelaxationSchedule(epsilon=0.05, constant=lam)
        perturb = PerturbationSchedule(beta0=0.5, decay=0.9, seed=4) if perturbed else None
        trace = run(schedule, relax, self.X0, perturb=perturb, stop=self.STOP)
        shift_at = None
        if perturbed:
            draw = perturb.direction_stream(schedule.dim)

            def shift_at(k, _x):
                return perturb.beta_at(k) * draw(k)

        xs, shifts, steps = hand_loop(schedule, lam, self.X0, trace.iterations, shift_at)
        assert trace.iterates.tobytes() == xs.tobytes()
        assert trace.step_norms.tobytes() == steps.tobytes()
        assert np.all(trace.lambdas == lam)
        assert trace.plan_signatures == tuple(schedule.plan_at(k).signature() for k in range(trace.iterations))
        if perturbed:
            assert trace.perturbations.tobytes() == norm(shifts).tobytes()
        else:
            assert trace.perturbations is None

    @pytest.mark.parametrize("lam", [1.0, 0.7, 1.5])
    def test_superiorized_run(self, lam):
        # a box alone passes a -0.0 of the shifted point on at lam = 1, so the
        # sign of a zero in the summed shift shows in the iterates
        box = ControlSchedule(operators=(BoxProjection(-np.ones(5), np.ones(5)),), cycle=(simultaneous_plan(1),))
        relax = RelaxationSchedule(epsilon=0.05, constant=lam)
        sup = SuperiorizationSchedule(beta0=1.0, decay=0.95, steps=3)
        rng = np.random.default_rng(8)
        center, weight = np.array([0.5, -0.0, 0.0, -1.0, 2.0]), 0.7
        pieces = ((rng.standard_normal(5), 0.3), (rng.standard_normal(5), -0.2), (np.zeros(5), -4.0))

        def max_affine_selection(x):
            # the lowest-index piece attaining the max
            return pieces[int(np.argmax([float(a @ x) + b for a, b in pieces]))][0]

        # each objective with its subgradient selection written from the definition
        objectives = (
            (L1Norm(), np.sign),
            (WeightedSquaredNorm(center, weight), lambda x: 2.0 * weight * (x - center)),
            (MaxOfAffine(pieces), max_affine_selection),
        )
        cases = itertools.product((mixed_schedule(), box), objectives, (self.X0, self.X0_SIGNED_ZEROS))
        for schedule, (phi, selection), x0 in cases:
            trace = superiorized_run(schedule, relax, phi, sup, x0, stop=self.STOP)

            def shift_at(k, x):
                # written out from the definitions, so a wrong fast path in
                # the steering loop cannot also be in the reference
                betas = [sup.beta_at(k)] * sup.steps
                point, dirs = x, []
                for b in betas:
                    assert np.isfinite(phi.evaluate(point))
                    s = selection(point)
                    ns = norm(s)
                    v = np.zeros_like(point) if ns <= DEFAULT_TOLERANCES.subgrad_zero_tol else -s / ns
                    dirs.append(v)
                    point = point + b * v
                total = np.zeros_like(x)
                for b, v in zip(betas, dirs):
                    total += b * v
                return total

            xs, shifts, steps = hand_loop(schedule, lam, x0, trace.iterations, shift_at)
            assert trace.iterates.tobytes() == xs.tobytes()
            assert trace.perturbations.tobytes() == norm(shifts).tobytes()
            assert trace.step_norms.tobytes() == steps.tobytes()
            assert trace.phi_values.tobytes() == np.array([phi.evaluate(x) for x in xs]).tobytes()

    @pytest.mark.parametrize("nan_above", [np.inf, 1e3], ids=["overflow", "nan"])
    def test_nonfinite_iterate_raised_at_the_same_step(self, nan_above):
        @dataclass(frozen=True, eq=False)
        class Expander(Operator):
            """x -> 2x, NaN past ``nan_above``; declared alpha 2, so the engine runs it."""

            nan_above: float
            declared_alpha: float = 2.0
            dim = 1

            def apply(self, x):
                y = 2.0 * np.asarray(x, dtype=float)
                return np.where(np.abs(y) > self.nan_above, np.nan, y)

        op = Expander(nan_above)
        sched = ControlSchedule(operators=(op,), cycle=(simultaneous_plan(1),))
        relax = RelaxationSchedule(epsilon=0.05, constant=0.9)
        with np.errstate(over="ignore", invalid="ignore"):
            x, expected = np.array([5.0]), None
            for k in range(5000):
                x = gdsa_step(x, op, 0.9)
                if not np.all(np.isfinite(x)):
                    expected = k
                    break
            with pytest.raises(NonFiniteIterateError) as err:
                run(sched, relax, [5.0], stop=StopRule(step_tol=1e-8, window=10, max_iters=5000))
        assert expected is not None and err.value.step == expected


class TestTraceMemory:
    """A run records one row per iterate and one shift norm per step.

    The iterate record doubles when full: a doubling from c rows holds the c
    old rows and the 2c new ones at once, so just past it the peak is about
    3 bytes per final iterate byte, and just before the next one 1.5.  A
    record kept as per-step lists and stacked at the end peaks at about 4.1
    here, above every bound below.
    """

    N, M = 500, 20
    C = 4 * _RECORD_ROWS0  # a capacity the record reaches by doubling

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(0)
        sets = tuple(HalfspaceProjection(rng.standard_normal(self.N), 0.1) for _ in range(self.M))
        schedule = ControlSchedule(operators=sets, cycle=(simultaneous_plan(self.M),))
        relax = RelaxationSchedule(epsilon=0.05, constant=1.0)
        perturb = PerturbationSchedule(beta0=0.5, decay=0.9, seed=1)
        x0 = 5.0 * rng.standard_normal(self.N)
        # a first run builds the schedule's cached operators outside the measurement
        run(schedule, relax, x0, perturb=perturb, stop=StopRule(step_tol=1e300, window=1, max_iters=2))
        return schedule, relax, perturb, x0

    @pytest.mark.parametrize(
        "steps, bound",
        [(C - 1, 1.6), (C, 3.1), (C + C // 2, 2.1), (2 * C - 1, 1.6), (2 * C, 3.1)],
        ids=["full", "just-past-doubling", "half-full", "full-again", "just-past-next-doubling"],
    )
    def test_peak_over_final_iterate_bytes(self, problem, steps, bound):
        schedule, relax, perturb, x0 = problem
        # every step is quiet under this tolerance, so the run stops after `window` steps
        stop = StopRule(step_tol=1e300, window=steps, max_iters=1_000_000)
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            trace = run(schedule, relax, x0, perturb=perturb, stop=stop)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert trace.iterations == steps
        assert trace.iterates.shape == (steps + 1, self.N)
        assert trace.perturbations.nbytes == 8 * trace.iterations
        assert peak / trace.iterates.nbytes <= bound

    def test_record_capacity_stops_at_max_iters(self, problem):
        schedule, relax, perturb, x0 = problem
        stop = StopRule(step_tol=1e300, window=10**6, max_iters=_RECORD_ROWS0 + 6)
        trace = run(schedule, relax, x0, perturb=perturb, stop=stop)
        assert trace.iterations == stop.max_iters
        # the doubling is capped: the record underneath holds exactly max_iters + 1 rows
        assert trace.iterates.base.shape == (stop.max_iters + 1, self.N)


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
        # c = eps / (1 + rho - eps) = 0.1 / 1.9, against the witness z = 0
        xs = trace.iterates[:, 0]
        slack = xs[:-1] ** 2 - (0.1 / 1.9) * (xs[1:] - xs[:-1]) ** 2 - xs[1:] ** 2
        assert report.per_step_min == pytest.approx(slack, rel=1e-12, abs=1e-12)

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

    def test_a_witness_of_another_dimension_is_refused(self, ball_schedule, unit_relax, default_stop):
        # unchecked, an R^1 witness would broadcast to (0.75, 0.75) against an R^2 trace
        trace = run(ball_schedule, unit_relax, [3.0, 4.0], stop=default_stop)
        for bad in ([[0.75]], [[0.75, 0.75, 0.75]]):
            message = f"witness dimension {len(bad[0])} differs from problem dimension 2"
            with pytest.raises(DimensionMismatchError, match=message):
                fejer_monitor(trace, FixedPointWitness(bad), 0.05, 1.0)
        assert fejer_monitor(trace, FixedPointWitness([[0.0, 1.0]]), 0.05, 1.0).passed


class TestDistanceDecay:
    def test_converged_run_residuals_vanish(self, two_interval, interval_schedule, unit_relax, default_stop):
        trace = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        report = distance_decay_diagnostic(trace, two_interval.projectors)
        # the inconsistent problem's limit violates each set by exactly 1
        assert report.residuals[-1] == pytest.approx([1.0, 1.0], abs=1e-8)
        avg_report = distance_decay_diagnostic(trace, [interval_schedule.operator_for(interval_schedule.plan_at(0))])
        assert np.all(avg_report.residuals[-10:] <= DEFAULT_TOLERANCES.conv_tol)

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


class TestRelaxedStepOperator:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 1.9])
    def test_relaxed_step_rho_fne(self, interval_schedule, lam):
        # the one-step map inherits rho = (1 + rho_U - lam) / lam
        rho_u = rho_constant(interval_schedule)
        op = Relaxation(interval_schedule.operator_for(interval_schedule.plan_at(0)), lam)
        rho = (1.0 + rho_u - lam) / lam
        assert check_rho_fne(op, rho, SampleSpec(dim=1, seed=21)).passed

    def test_relaxed_step_rho_fne_two_ball(self, ball_schedule):
        rho_u = rho_constant(ball_schedule)
        lam = 1.5
        op = Relaxation(ball_schedule.operator_for(ball_schedule.plan_at(0)), lam)
        rho = (1.0 + rho_u - lam) / lam
        assert check_rho_fne(op, rho, SampleSpec(dim=2, seed=22)).passed
