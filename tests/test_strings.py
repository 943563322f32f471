from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gdsa.core import DEFAULT_TOLERANCES, SampleSpec
from gdsa.harness import _parse_plan
from gdsa.operators import (
    BallProjection,
    BoxProjection,
    Relaxation,
    apply,
    check_rho_fne,
    residual,
)
from gdsa.strings import (
    ControlSchedule,
    StringPlan,
    averaged_operator,
    check_admissibility,
    is_fit,
    rho_constant,
    signature_str,
    simultaneous_plan,
    string_operator,
)

P_A = BoxProjection(np.array([-3.0]), np.array([-1.0]))
P_B = BoxProjection(np.array([1.0]), np.array([3.0]))


def plan_of(*strings, weights=None) -> StringPlan:
    if weights is None:
        weights = (1.0 / len(strings),) * len(strings)
    return StringPlan(strings, tuple(weights))


class TestPlanValidation:
    def test_empty_string_rejected(self):
        with pytest.raises(ValueError, match="a string must have length >= 1"):
            plan_of(())

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError, match="string indices are 1-based and must be >= 1"):
            plan_of((0, 1))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            plan_of((1,), (2,), weights=(0.5, 0.4))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            plan_of((1,), (2,), weights=(1.2, -0.2))

    def test_duplicate_strings_rejected(self):
        with pytest.raises(ValueError):
            plan_of((1, 2), (1, 2))

    def test_signature_is_order_independent(self):
        p = plan_of((1,), (2,), weights=(0.25, 0.75))
        q = plan_of((2,), (1,), weights=(0.75, 0.25))
        assert p.signature() == q.signature()

    def test_signature_distinguishes_weights(self):
        p = plan_of((1,), (2,), weights=(0.25, 0.75))
        q = plan_of((1,), (2,), weights=(0.5, 0.5))
        assert p.signature() != q.signature()

    def test_signature_computed_once(self):
        p = plan_of((2,), (1,), weights=(0.75, 0.25))
        assert p.signature() is p.signature()
        assert p.signature() == (((1,), 0.25), ((2,), 0.75))
        assert "_signature" not in repr(p)
        assert p == plan_of((2,), (1,), weights=(0.75, 0.25))

    def test_signature_str_has_no_commas(self):
        sig = plan_of((1, 2), (2, 1)).signature()
        assert "," not in signature_str(sig)

    def test_plan_document_builds_the_hand_built_plan(self):
        doc = {"strings": [[1, 2], [2]], "weights": [0.3, 0.7]}
        p = plan_of((1, 2), (2,), weights=(0.3, 0.7))
        assert _parse_plan(doc).signature() == p.signature()


class TestStringOperator:
    def test_length_one_string_is_base_operator(self):
        assert string_operator((P_A, P_B), (1,)) is P_A

    def test_application_order_first_index_innermost(self):
        op = string_operator((P_A, P_B), (1, 2))
        xs = SampleSpec(dim=1, count=50, seed=0).points()
        expected = apply(P_B, apply(P_A, xs))
        assert np.array_equal(apply(op, xs), expected)

    def test_repeated_projection_is_idempotent(self):
        op = string_operator((P_A, P_B), (1, 1))
        xs = SampleSpec(dim=1, count=100, seed=1).points()
        assert np.allclose(apply(op, xs), apply(P_A, xs), atol=DEFAULT_TOLERANCES.eq_tol)
        # idempotence of the projection itself backs this up
        assert np.all(residual(P_A, apply(P_A, xs)) <= DEFAULT_TOLERANCES.eq_tol)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            string_operator((P_A, P_B), (3,))


class TestAveragedOperator:
    def test_singleton_plan_is_operator_itself(self):
        plan = plan_of((1,), weights=(1.0,))
        assert averaged_operator(plan, (P_A, P_B)) is P_A

    def test_simultaneous_average_of_two(self):
        op = averaged_operator(simultaneous_plan(2), (P_A, P_B))
        # midpoint of the two projections at 0.5: P_A -> -1, P_B -> 1
        assert apply(op, np.array([0.5])) == pytest.approx([0.0])

    def test_common_point_is_fixed(self):
        ball1 = BallProjection(np.array([-1.0, 0.0]), np.sqrt(2.0))
        ball2 = BallProjection(np.array([1.0, 0.0]), np.sqrt(2.0))
        plan = plan_of((1, 2), (2, 1))
        z = np.array([0.0, 0.0])  # in both balls
        for t in plan.strings:
            assert residual(string_operator((ball1, ball2), t), z) <= DEFAULT_TOLERANCES.eq_tol
        assert residual(averaged_operator(plan, (ball1, ball2)), z) <= DEFAULT_TOLERANCES.eq_tol


class TestRhoConstant:
    def test_all_fne_length_one_gives_one(self):
        sched = ControlSchedule(operators=(P_A, P_B), cycle=(simultaneous_plan(2),))
        assert rho_constant(sched) == 1.0

    def test_all_nonexpansive_gives_zero(self):
        reflections = (Relaxation(P_A, 2.0), Relaxation(P_B, 2.0))
        sched = ControlSchedule(operators=reflections, cycle=(simultaneous_plan(2),))
        assert rho_constant(sched) == 0.0

    def test_all_fne_length_two_gives_half(self):
        sched = ControlSchedule(operators=(P_A, P_B), cycle=(plan_of((1, 2), (2, 1)),))
        assert rho_constant(sched) == 0.5
        # cross-check: the averaged operator satisfies the rho = 1/2 inequality
        op = sched.operator_for(sched.plan_at(0))
        assert check_rho_fne(op, 0.5, SampleSpec(dim=1, seed=2)).passed

    def test_monotone_nonincreasing_in_max_length(self):
        short = ControlSchedule(operators=(P_A, P_B), cycle=(simultaneous_plan(2),))
        padded = ControlSchedule(
            operators=(P_A, P_B),
            cycle=(simultaneous_plan(2), plan_of((1, 1), weights=(1.0,))),
        )
        assert rho_constant(padded) <= rho_constant(short)

    def test_averaged_operator_passes_rho_fne_at_rho_constant(self):
        sched = ControlSchedule(
            operators=(P_A, P_B), cycle=(plan_of((1, 2), (2, 1)), simultaneous_plan(2))
        )
        rho = rho_constant(sched)
        for op in sched.distinct_operators().values():
            assert check_rho_fne(op, rho, SampleSpec(dim=1, seed=3)).passed

    def test_unknown_alpha_propagates(self):
        from gdsa.operators import AlphaUnknownError

        twice_reflected = Relaxation(Relaxation(P_A, 2.0), 2.0)
        sched = ControlSchedule(operators=(twice_reflected,), cycle=(simultaneous_plan(1),))
        with pytest.raises(AlphaUnknownError):
            rho_constant(sched)


class TestFit:
    def test_full_cover_is_fit(self):
        assert is_fit(plan_of((1, 2)), 2)

    def test_missing_index_not_fit(self):
        assert not is_fit(plan_of((1,), (2,)), 3)

    def test_cover_with_redundancy_is_fit(self):
        assert is_fit(plan_of((1,), (2,), (1, 1), weights=(0.4, 0.4, 0.2)), 2)


PLAN_A = plan_of((1,), (2,))
PLAN_B = plan_of((1, 2), weights=(1.0,))
PLAN_C = plan_of((2, 1), weights=(1.0,))


def scanned_tight_gaps(pre, cyc, limsup):
    """Quadratic reference: from every start in one preamble + one period,
    the length of the window up to the next occurrence, maximised."""
    horizon = list(pre) + cyc * 2
    p, length = len(pre), len(cyc)
    out = {}
    for sig in limsup:
        worst = 1
        for k in range(p + length):
            nxt = next(i for i in range(k, len(horizon)) if horizon[i] == sig)
            worst = max(worst, nxt - k + 1)
        out[sig] = worst
    return out


class TestAdmissibility:
    def test_period_two_cycle_admissible(self):
        sched = ControlSchedule(operators=(P_A, P_B), cycle=(PLAN_A, PLAN_B))
        report = check_admissibility(sched)
        assert report.admissible
        assert set(report.limsup_set) == {PLAN_A.signature(), PLAN_B.signature()}
        assert all(gap <= 2 for gap in report.tight_gap_bounds.values())
        assert report.tight_gap_bounds[PLAN_A.signature()] == 2

    def test_preamble_only_plan_not_admissible(self):
        sched = ControlSchedule(operators=(P_A, P_B), cycle=(PLAN_A,), preamble=(PLAN_B,))
        report = check_admissibility(sched)
        assert not report.admissible
        assert report.violating_index == 0
        assert report.tail_admissible
        assert report.k0 == 1

    def test_aab_cycle_gap_bounds(self):
        sched = ControlSchedule(operators=(P_A, P_B), cycle=(PLAN_A, PLAN_A, PLAN_B))
        report = check_admissibility(sched)
        assert report.admissible
        # every window of length 3 contains both plans
        assert report.tight_gap_bounds == {PLAN_A.signature(): 2, PLAN_B.signature(): 3}

    def test_long_cycle_gets_exact_gaps(self):
        # 65 plans: one B, then 64 A; B recurs only once per period
        sched = ControlSchedule(operators=(P_A, P_B), cycle=(PLAN_B,) + (PLAN_A,) * 64)
        report = check_admissibility(sched)
        assert report.tight_gap_bounds == {PLAN_B.signature(): 65, PLAN_A.signature(): 2}

    @given(
        st.lists(st.sampled_from([PLAN_A, PLAN_B, PLAN_C]), max_size=6),
        st.lists(st.sampled_from([PLAN_A, PLAN_B, PLAN_C]), min_size=1, max_size=9),
    )
    def test_tight_gaps_match_the_scan(self, preamble, cycle):
        sched = ControlSchedule(operators=(P_A, P_B), cycle=tuple(cycle), preamble=tuple(preamble))
        report = check_admissibility(sched)
        if not report.admissible:
            assert report.tight_gap_bounds is None
            return
        pre = [plan.signature() for plan in preamble]
        cyc = [plan.signature() for plan in cycle]
        assert report.tight_gap_bounds == scanned_tight_gaps(pre, cyc, list(report.limsup_set))

    def test_empty_preamble_always_admissible(self):
        for cycle in [(PLAN_A,), (PLAN_B, PLAN_B), (PLAN_A, PLAN_B, PLAN_A)]:
            sched = ControlSchedule(operators=(P_A, P_B), cycle=cycle)
            assert check_admissibility(sched).admissible

    def test_preamble_plan_recurring_in_cycle_is_admissible(self):
        sched = ControlSchedule(operators=(P_A, P_B), cycle=(PLAN_A, PLAN_B), preamble=(PLAN_B,))
        report = check_admissibility(sched)
        assert report.admissible and report.violating_index is None
        # the preamble shifts A's first occurrence to step 1, a gap of 2
        assert report.tight_gap_bounds == {PLAN_A.signature(): 2, PLAN_B.signature(): 2}


class TestSchedule:
    def test_plan_indexing_preamble_then_cycle(self):
        sched = ControlSchedule(operators=(P_A, P_B), cycle=(PLAN_A, PLAN_B), preamble=(PLAN_B,))
        sigs = [sched.plan_at(k).signature() for k in range(5)]
        assert sigs == [
            PLAN_B.signature(),
            PLAN_A.signature(),
            PLAN_B.signature(),
            PLAN_A.signature(),
            PLAN_B.signature(),
        ]

    def test_operator_cache_reuses_instances(self):
        sched = ControlSchedule(operators=(P_A, P_B), cycle=(PLAN_A, PLAN_B))
        assert sched.operator_for(sched.plan_at(0)) is sched.operator_for(sched.plan_at(2))

    def test_distinct_operators_are_the_cached_ones_in_first_occurrence_order(self):
        # plan_of((2,), (1,)) has PLAN_A's signature, so the cycle repeats two plans
        sched = ControlSchedule(operators=(P_A, P_B), cycle=(PLAN_B, plan_of((2,), (1,)), PLAN_A, PLAN_B))
        distinct = sched.distinct_operators()
        assert list(distinct) == [PLAN_B.signature(), PLAN_A.signature()]
        assert distinct[PLAN_B.signature()] is sched.operator_for(PLAN_B)
        assert distinct[PLAN_A.signature()] is sched.operator_for(PLAN_A)

    def test_replaced_operators_get_a_fresh_cache(self):
        sched = ControlSchedule(operators=(P_A, P_B), cycle=(simultaneous_plan(2),))
        assert apply(sched.operator_for(sched.plan_at(0)), np.array([100.0])) == pytest.approx([1.0])
        wide = (BoxProjection([-30.0], [-10.0]), BoxProjection([10.0], [30.0]))
        swapped = replace(sched, operators=wide)
        assert apply(swapped.operator_for(swapped.plan_at(0)), np.array([100.0])) == pytest.approx([10.0])
        assert apply(sched.operator_for(sched.plan_at(0)), np.array([100.0])) == pytest.approx([1.0])

    def test_plan_index_above_m_rejected(self):
        with pytest.raises(ValueError):
            ControlSchedule(operators=(P_A,), cycle=(plan_of((2,)),))

    def test_max_string_length(self):
        sched = ControlSchedule(operators=(P_A, P_B), cycle=(PLAN_A,), preamble=(PLAN_B,))
        assert sched.max_string_length == 2
