from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import old_perturbation_directions, same_bits, segment_problem, simultaneous_schedule
from gdsa import engine
from gdsa.core import DEFAULT_TOLERANCES, DimensionMismatchError, SampleSpec, Tolerances, norm
from gdsa.engine import IterationTrace, RelaxationSchedule, StopRule, run
from gdsa.harness import _parse_objective, constrained_min_oracle, GridSpec
from gdsa.operators import residual
from gdsa.superiorize import (
    L1Norm,
    MaxOfAffine,
    NonFiniteObjectiveError,
    ObjectiveFunction,
    SuperiorizationSchedule,
    WeightedSquaredNorm,
    find_strict_fejer_k0,
    perturbation_directions,
    strict_fejer_monitor,
    superiorized_run,
)

TIGHT_STOP = StopRule(step_tol=1e-10, window=10, max_iters=20_000)

OBJECTIVES = [
    L1Norm(),
    WeightedSquaredNorm(np.array([0.5, -1.0]), 2.0),
    MaxOfAffine(((np.array([1.0, 0.0]), 0.0), (np.array([-0.5, 1.0]), 0.3))),
]


class TestObjectives:
    @pytest.mark.parametrize("phi", OBJECTIVES, ids=["l1", "wsqnorm", "max_affine"])
    def test_subgradient_inequality_on_seeded_pairs(self, phi):
        xs, ys = SampleSpec(dim=2, count=1000, seed=31).pairs()
        for x, y in zip(xs, ys):
            s = phi.subgradient(x)
            lhs = phi.evaluate(y)
            rhs = phi.evaluate(x) + float(s @ (y - x))
            assert lhs >= rhs - DEFAULT_TOLERANCES.slack_tol

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_l1_subgradient_inequality_everywhere(self, xl):
        phi = L1Norm()
        x = np.array(xl)
        s = phi.subgradient(x)
        for y in (x + 1.0, x - 2.0, np.zeros_like(x)):
            assert phi.evaluate(y) >= phi.evaluate(x) + float(s @ (y - x)) - 1e-12

    def test_l1_zero_coordinate_selection_is_zero(self):
        s = L1Norm().subgradient(np.array([0.0, -2.0]))
        assert s[0] == 0.0 and s[1] == -1.0

    def test_max_affine_tie_breaks_lowest_index(self):
        phi = MaxOfAffine(((np.array([1.0]), 0.0), (np.array([-1.0]), 0.0)))
        assert np.array_equal(phi.subgradient(np.array([0.0])), [1.0])

    def test_wsqnorm_requires_positive_weight(self):
        with pytest.raises(ValueError):
            WeightedSquaredNorm(np.zeros(2), 0.0)

    def test_objective_documents_build_the_hand_built_objectives(self):
        docs = [
            {"kind": "l1"},
            {"kind": "wsqnorm", "center": [0.5, -1.0], "weight": 2.0},
            {"kind": "max_affine", "pieces": [{"a": [1.0, 0.0], "b": 0.0}, {"a": [-0.5, 1.0], "b": 0.3}]},
        ]
        for doc, phi in zip(docs, OBJECTIVES, strict=True):
            parsed = _parse_objective(doc)
            for x in (np.array([0.7, -1.3]), np.array([-2.0, 0.4])):
                assert parsed.evaluate(x) == phi.evaluate(x)
                assert np.array_equal(parsed.subgradient(x), phi.subgradient(x))


class TestDirections:
    def test_l1_direction_is_negated_normalized_sign(self):
        dirs = perturbation_directions(np.array([1.0, -2.0]), L1Norm(), [0.1])
        assert np.allclose(dirs[0], -np.array([1.0, -1.0]) / np.sqrt(2.0))

    def test_zero_branch_at_minimizer(self):
        phi = WeightedSquaredNorm(np.array([2.0, 3.0]))
        dirs = perturbation_directions(np.array([2.0, 3.0]), phi, [0.1])
        assert np.array_equal(dirs[0], np.zeros(2))

    def test_max_affine_direction_matches_finite_differences(self):
        phi = MaxOfAffine(((np.array([1.0, 0.0]), 0.0), (np.array([-0.5, 1.0]), 0.3)))
        x = np.array([2.0, 0.1])  # first piece strictly active
        h = 1e-6
        grad = np.array(
            [
                (phi.evaluate(x + h * e) - phi.evaluate(x - h * e)) / (2 * h)
                for e in np.eye(2)
            ]
        )
        dirs = perturbation_directions(x, phi, [0.01])
        assert np.allclose(dirs[0], -grad / np.linalg.norm(grad), atol=1e-6)

    def test_directions_unit_or_zero(self):
        phi = L1Norm()
        rng = np.random.default_rng(5)
        for _ in range(50):
            y = rng.uniform(-3, 3, size=2)
            dirs = perturbation_directions(y, phi, [0.1, 0.05, 0.01])
            for v in dirs:
                n = float(np.linalg.norm(v))
                assert n == 0.0 or abs(n - 1.0) <= DEFAULT_TOLERANCES.eq_tol

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(1e299, 1.7e308),
                st.floats(-1.7e308, -1e299),
            ),
            min_size=1,
            max_size=600,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_l1_subgradient_norm_is_the_norm_of_the_sign(self, xl):
        # the count of nonzero signs must round exactly as sqrt(sum(s * s)),
        # also past the 128-entry blocks of numpy's pairwise sum
        s = np.sign(np.array(xl))
        fast = L1Norm()._subgradient_norm(s)
        assert type(fast) is float
        assert np.float64(fast).tobytes() == np.float64(norm(s)).tobytes()

    @given(
        kind=st.sampled_from(["l1", "wsqnorm", "max_affine"]),
        entries=st.lists(
            st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-100.0, 100.0)), min_size=8, max_size=8),
        dim=st.integers(1, 4),
        betas=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4),
        at_zero_subgradient=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_directions_equal_the_loop_before_it_was_shared(self, kind, entries, dim, betas, at_zero_subgradient):
        y, other = np.array(entries[:dim]), np.array(entries[4:4 + dim])
        if kind == "l1":
            phi = L1Norm()
            if at_zero_subgradient:
                y = np.copysign(0.0, y)
        elif kind == "wsqnorm":
            phi = WeightedSquaredNorm(other, 1.5)
            if at_zero_subgradient:
                y = other.copy()
        else:
            # with the zero piece on top, the selection at y is the zero vector
            top = 1e5 if at_zero_subgradient else -1e5
            phi = MaxOfAffine(((other, 0.5), (np.zeros(dim), top), (np.ones(dim), -0.0)))
        new, old = perturbation_directions(y, phi, betas), old_perturbation_directions(y, phi, betas)
        assert len(new) == len(old) == len(betas)
        assert all(same_bits(a, b) for a, b in zip(new, old))
        if at_zero_subgradient:
            assert not np.any(new[0])

    def test_sequential_points_used(self):
        # second direction is evaluated at the once-shifted point
        phi = WeightedSquaredNorm(np.zeros(1))
        dirs = perturbation_directions(np.array([1.0]), phi, [2.0, 0.1])
        assert dirs[0][0] == -1.0  # pushes toward 0 from 1
        assert dirs[1][0] == 1.0  # overshoot to -1, now pushes back up

    def test_non_finite_objective_raises_typed_error(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteObjectiveError, match="objective"):
            perturbation_directions(np.array([1e10]), WeightedSquaredNorm(np.zeros(1), 1e300), [0.1])

        class InfiniteSlope(ObjectiveFunction):
            def evaluate(self, x):
                return 0.0

            def subgradient(self, x):
                return np.full_like(x, np.inf)

        with pytest.raises(NonFiniteObjectiveError, match="subgradient"):
            perturbation_directions(np.array([1.0]), InfiniteSlope(), [0.1])
        assert issubclass(NonFiniteObjectiveError, ValueError)

    @pytest.mark.parametrize(
        "phi",
        [WeightedSquaredNorm(np.array([5.0])), MaxOfAffine(((np.ones(3), 0.0),))],
        ids=["wsqnorm_r1", "max_affine_r3"],
    )
    def test_an_objective_of_another_dimension_is_refused(self, phi):
        # unchecked, the R^1 center broadcasts to a direction in R^2, and the
        # R^3 pieces fail inside numpy with its own ValueError
        message = f"objective dimension {phi.dim} differs from problem dimension 2"
        with pytest.raises(DimensionMismatchError, match=message):
            perturbation_directions(np.array([3.0, 4.0]), phi, [0.5])


class TestSchedule:
    def test_zero_beta0_rejected(self):
        with pytest.raises(ValueError):
            SuperiorizationSchedule(beta0=0.0)

    def test_decay_must_contract(self):
        with pytest.raises(ValueError):
            SuperiorizationSchedule(decay=1.0)

    def test_budget_accounting(self):
        sup = SuperiorizationSchedule(beta0=0.5, decay=0.9, steps=2)
        assert sup.total_budget == pytest.approx(5.0)
        assert sup.beta_at(0) == 0.25 and sup.beta_at(2) == pytest.approx(0.2025)


class TestSuperiorizedRun:
    def test_tiny_beta_matches_unperturbed(self, interval_schedule, unit_relax, default_stop):
        phi = WeightedSquaredNorm(np.array([0.0]))
        sup = SuperiorizationSchedule(beta0=1e-300, decay=0.9)
        sup_trace = superiorized_run(interval_schedule, unit_relax, phi, sup, [7.3], stop=default_stop)
        plain = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        assert abs(sup_trace.final[0] - plain.final[0]) <= DEFAULT_TOLERANCES.conv_tol

    def test_two_interval_quadratic_reaches_constrained_min(
        self, two_interval, interval_schedule, unit_relax, default_stop
    ):
        phi = WeightedSquaredNorm(np.array([0.0]))
        sup = SuperiorizationSchedule(beta0=0.5, decay=0.9)
        trace = superiorized_run(interval_schedule, unit_relax, phi, sup, [7.3], stop=default_stop)
        zmin = constrained_min_oracle(two_interval, (0.5, 0.5), phi, GridSpec(-5, 5, 21))
        assert abs(trace.final[0] - zmin[0]) <= 1e-6  # alternative (i)

    def test_an_objective_of_another_dimension_is_refused(
        self, ball_schedule, unit_relax, default_stop, monkeypatch
    ):
        # unchecked, center [5.0] would broadcast to (5, 5) and steer an R^2 run there
        sup = SuperiorizationSchedule(beta0=0.5, decay=0.9)
        steps = []
        relaxed = engine._relaxed
        monkeypatch.setattr(engine, "_relaxed", lambda *args: steps.append(1) or relaxed(*args))
        for phi in (WeightedSquaredNorm(np.array([5.0])), MaxOfAffine(((np.ones(3), 0.0),))):
            message = f"objective dimension {phi.dim} differs from problem dimension 2"
            with pytest.raises(DimensionMismatchError, match=message):
                superiorized_run(ball_schedule, unit_relax, phi, sup, [3.0, 4.0], stop=default_stop)
        assert steps == []  # refused before the first step
        phi = WeightedSquaredNorm(np.array([5.0, 5.0]))
        assert superiorized_run(ball_schedule, unit_relax, phi, sup, [3.0, 4.0], stop=default_stop).converged

    def test_trace_records_phi_and_budget(self, interval_schedule, unit_relax, default_stop):
        phi = WeightedSquaredNorm(np.array([0.0]))
        sup = SuperiorizationSchedule(beta0=0.5, decay=0.9)
        trace = superiorized_run(interval_schedule, unit_relax, phi, sup, [7.3], stop=default_stop)
        assert len(trace.phi_values) == trace.iterations + 1
        assert len(trace.perturb_budget_remaining) == trace.iterations
        assert np.all(np.diff(trace.perturb_budget_remaining) <= 0)
        assert trace.perturb_budget_remaining[-1] >= 0.0

    @pytest.mark.parametrize("steps", [1, 3])
    def test_trace_phi_and_budget_are_exact(self, ball_schedule, unit_relax, default_stop, steps):
        phi = L1Norm()
        sup = SuperiorizationSchedule(beta0=0.5, decay=0.9, steps=steps)
        trace = superiorized_run(ball_schedule, unit_relax, phi, sup, [3.0, 4.0], stop=default_stop)
        for k, y in enumerate(trace.iterates):
            assert trace.phi_values[k] == phi.evaluate(y)
        # after step k, beta0 * decay^(k+1) / (1 - decay) remains, here in exact rationals
        exact = Fraction(sup.beta0) / (1 - Fraction(sup.decay))
        for remaining in trace.perturb_budget_remaining.tolist():
            exact *= Fraction(sup.decay)
            assert abs(Fraction(remaining) - exact) <= Fraction("4.5e-16") * exact

    @pytest.mark.parametrize("steps", [1, 3])
    def test_objective_evaluated_once_per_inner_step_and_at_the_last_iterate(
        self, ball_schedule, unit_relax, default_stop, steps, monkeypatch
    ):
        calls = {"evaluate": 0, "subgradient": 0}
        for name in calls:
            method = getattr(L1Norm, name)

            def counted(self, x, method=method, name=name):
                calls[name] += 1
                return method(self, x)

            monkeypatch.setattr(L1Norm, name, counted)
        sup = SuperiorizationSchedule(beta0=0.5, decay=0.9, steps=steps)
        trace = superiorized_run(ball_schedule, unit_relax, L1Norm(), sup, [3.0, 4.0], stop=default_stop)
        assert trace.iterations > 1
        assert calls == {"evaluate": trace.iterations * steps + 1, "subgradient": trace.iterations * steps}

    def test_perturbed_point_within_budget(self, interval_schedule, unit_relax, default_stop):
        phi = WeightedSquaredNorm(np.array([0.0]))
        sup = SuperiorizationSchedule(beta0=0.5, decay=0.9, steps=3)
        trace = superiorized_run(interval_schedule, unit_relax, phi, sup, [7.3], stop=default_stop)
        for k in range(trace.iterations):
            shift = trace.perturbations[k]
            assert shift <= sup.steps * sup.beta_at(k) + DEFAULT_TOLERANCES.eq_tol

    def test_two_ball_l1_limit_in_target_set(self, two_ball, ball_schedule, unit_relax):
        sup = SuperiorizationSchedule(beta0=0.5, decay=0.9)
        trace = superiorized_run(ball_schedule, unit_relax, L1Norm(), sup, [3.0, 4.0], stop=TIGHT_STOP)
        for op in ball_schedule.distinct_operators().values():
            assert residual(op, trace.final) <= 10 * DEFAULT_TOLERANCES.conv_tol
        # the target set is the singleton midpoint: superiorized and plain limits agree
        plain = run(ball_schedule, unit_relax, [3.0, 4.0], stop=TIGHT_STOP)
        phi = L1Norm()
        assert phi.evaluate(trace.final) <= phi.evaluate(plain.final) + 1e-6
        assert np.allclose(trace.final, [0.0, 1.0], atol=1e-6)


def segment_setup():
    problem = segment_problem()
    schedule = simultaneous_schedule(problem)
    phi = MaxOfAffine(((np.array([1.0, 0.0]), 0.0),))  # phi(x) = x1
    return problem, schedule, phi


def strict_fejer_cases(interval_schedule, unit_relax) -> list:
    """Traces and witnesses of the strict monitor: the segment run whose budget
    cannot reach the minimizer against it, and a two-interval run against 0."""
    problem, schedule, phi = segment_setup()
    sup = SuperiorizationSchedule(beta0=0.05, decay=0.9)
    segment = superiorized_run(schedule, unit_relax, phi, sup, [0.5, 2.0], stop=TIGHT_STOP)
    intervals = run(interval_schedule, unit_relax, [7.3], stop=TIGHT_STOP)
    return [(segment, np.array([-1.0, 0.0])), (intervals, np.array([0.0]))]


class TestStrictFejer:
    def test_limit_in_cmin_reported(self, unit_relax):
        problem, schedule, phi = segment_setup()
        sup = SuperiorizationSchedule(beta0=0.5, decay=0.9)  # budget 5 covers the segment
        trace = superiorized_run(schedule, unit_relax, phi, sup, [0.5, 2.0], stop=TIGHT_STOP)
        zmin = constrained_min_oracle(problem, (1.0,), phi, GridSpec(-2, 2, 21))
        assert np.allclose(zmin, [-1.0, 0.0], atol=1e-8)
        report = strict_fejer_monitor(trace, zmin)
        assert report.limit_in_cmin and report.passed is None
        assert find_strict_fejer_k0(trace, zmin) is None

    def test_strict_decrease_when_budget_too_small(self, unit_relax):
        problem, schedule, phi = segment_setup()
        sup = SuperiorizationSchedule(beta0=0.05, decay=0.9)  # budget 0.5 cannot reach x1 = -1
        trace = superiorized_run(schedule, unit_relax, phi, sup, [0.5, 2.0], stop=TIGHT_STOP)
        zmin = constrained_min_oracle(problem, (1.0,), phi, GridSpec(-2, 2, 21))
        report0 = strict_fejer_monitor(trace, zmin)
        assert not report0.limit_in_cmin
        k0 = find_strict_fejer_k0(trace, zmin)
        assert k0 is not None and k0 <= trace.iterations - 10
        report = strict_fejer_monitor(trace, zmin, k0)
        assert report.passed is True
        assert np.all(report.decrements[k0:] > DEFAULT_TOLERANCES.slack_tol)

    def test_repeated_iterate_fails_strictness(self):
        iterates = np.array([[2.0, 0.0], [1.5, 0.0], [1.5, 0.0]])
        trace = IterationTrace(
            iterates=iterates,
            step_norms=np.array([0.5, 0.0]),
            lambdas=np.array([1.0, 1.0]),
            plan_signatures=(((1,),),) * 2,
            perturbations=np.zeros(2),
            converged=False,
        )
        report = strict_fejer_monitor(trace, np.array([-1.0, 0.0]), k0=0)
        assert report.passed is False

    def test_trace_too_short_rejected(self):
        trace = IterationTrace(
            iterates=np.array([[1.0], [0.5]]),
            step_norms=np.array([0.5]),
            lambdas=np.array([1.0]),
            plan_signatures=(((1,),),),
            perturbations=np.zeros(1),
            converged=False,
        )
        with pytest.raises(ValueError):
            strict_fejer_monitor(trace, np.array([0.0]), k0=1)

    @pytest.mark.parametrize("case", range(2))
    def test_finite_decrements_keep_the_bits_of_the_squared_formula(self, case, interval_schedule, unit_relax):
        trace, z = strict_fejer_cases(interval_schedule, unit_relax)[case]
        d2 = np.sum((trace.iterates - z) ** 2, axis=-1)
        assert strict_fejer_monitor(trace, z).decrements.tobytes() == (d2[:-1] - d2[1:]).tobytes()

    @pytest.mark.parametrize("case", range(2))
    def test_a_trace_scaled_past_the_float_range_scales_its_decrements_exactly(self, case, interval_schedule, unit_relax):
        # x -> 2^512 x scales each decrement by 2^1024: finite where that fits, +inf where it does not
        trace, z = strict_fejer_cases(interval_schedule, unit_relax)[case]
        scaled = replace(trace, iterates=np.ldexp(trace.iterates, 512))
        report = strict_fejer_monitor(scaled, np.ldexp(z, 512))
        with np.errstate(over="ignore"):
            expected = np.ldexp(strict_fejer_monitor(trace, z).decrements, 1024)
            assert not np.all(np.isfinite(np.sum((scaled.iterates - np.ldexp(z, 512)) ** 2, axis=-1)))
        assert report.decrements.tobytes() == expected.tobytes()
        assert not np.any(np.isnan(report.decrements))

    def test_an_overflowing_square_gives_an_infinite_decrement_not_nan(self, interval_schedule, unit_relax):
        # ||x0 - z||^2 with x0 = 8e307, z = -8e307 lies past the float range; the later iterates sit near 0
        with np.errstate(over="ignore"):
            trace = run(interval_schedule, unit_relax, [8e307], stop=TIGHT_STOP)
        report = strict_fejer_monitor(trace, np.array([-8e307]))
        assert report.decrements[0] == np.inf and not np.any(np.isnan(report.decrements))

    def test_dichotomy_exactly_one_alternative(self, two_ball, ball_schedule, unit_relax):
        # singleton target set: the limit is the constrained minimizer, so the
        # strict alternative must NOT also fire
        sup = SuperiorizationSchedule(beta0=0.5, decay=0.9)
        trace = superiorized_run(ball_schedule, unit_relax, L1Norm(), sup, [3.0, 4.0], stop=TIGHT_STOP)
        zmin = constrained_min_oracle(two_ball, (0.5, 0.5), L1Norm(), GridSpec(-4, 4, 21))
        in_cmin = float(np.linalg.norm(trace.final - zmin)) <= DEFAULT_TOLERANCES.conv_tol
        k0 = find_strict_fejer_k0(trace, zmin)
        strict = k0 is not None and k0 <= trace.iterations - 10
        assert in_cmin != strict
        assert in_cmin
