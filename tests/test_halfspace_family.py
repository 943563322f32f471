"""The stacked kernel of all-halfspace convex combinations against the tree path.

A ``ConvexCombination`` of two or more ``HalfspaceProjection`` terms evaluates
single vectors through one stacked kernel.  It must agree with the tree's
``w_0 T_0(x) + w_1 T_1(x) + ...`` bit for bit (compared as bytes, so that a
-0.0 against a +0.0 also counts as a difference).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import import_bench, same_bits, tree_sum
from gdsa.engine import RelaxationSchedule, StopRule, run
from gdsa.operators import (
    BallProjection,
    ConvexCombination,
    HalfspaceProjection,
    Relaxation,
    apply,
)
from gdsa.strings import ControlSchedule, simultaneous_plan


def random_family(m: int, n: int, seed: int, equal: bool = False):
    """Halfspaces a_i.x <= b_i through a common interior point z, random or equal weights."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    z = rng.standard_normal(n)
    b = a @ z + rng.uniform(0.0, 1.0, m)
    w = np.ones(m) if equal else rng.uniform(0.1, 1.0, m)
    terms = tuple(zip((w / w.sum()).tolist(), (HalfspaceProjection(a[i], b[i]) for i in range(m))))
    return terms, z, rng


# a positive gap whose factor gap / <a, a> underflows to 0 at x_0 = -0.0 with
# a_0 < 0: the first leaf moves x, and x - 0.0 * a turns -0.0 into +0.0
SUBNORMAL_GAP = ConvexCombination(((0.5, HalfspaceProjection(np.array([-1.0, 1.0]), 1e-310 - 5e-324)),
                                   (0.5, HalfspaceProjection(np.array([1.0, 1.0]), 1.0))))
SUBNORMAL_GAP_POINT = np.array([-0.0, 1e-310])


@given(m=st.integers(2, 30), n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1), equal=st.booleans())
@settings(max_examples=200, deadline=None)
def test_stacked_kernel_matches_tree_bitwise(m, n, seed, equal):
    terms, z, rng = random_family(m, n, seed, equal)
    op = ConvexCombination(terms)
    assert (op._halfspaces is not None) == (n > 1)  # R^1 keeps the tree path
    if n > 1:  # equal weights are one float, unequal ones an (m, 1) column
        assert isinstance(op._halfspaces.w, float) == equal
    outside = z + 3.0 * rng.standard_normal(n)
    # on the boundary of halfspace j: a_j.x - b_j is exactly 0
    j = int(rng.integers(m))
    leaf = terms[j][1]
    on_boundary = ConvexCombination(
        terms[:j] + ((terms[j][0], HalfspaceProjection(leaf.a, float(outside @ leaf.a))),) + terms[j + 1:]
    )
    # every halfspace violated at `outside`, by about 1.0
    all_violated = ConvexCombination(tuple((w, HalfspaceProjection(t.a, float(outside @ t.a) - 1.0)) for w, t in terms))
    # inside every halfspace with x_c = -0.0 and a negative normal entry in
    # column c: the leaves keep -0.0 there, while x - 0.0 * a would give +0.0
    signed_zero = z.copy()
    c = int(rng.integers(n))
    signed_zero[c] = -0.0
    a_j = leaf.a.copy()
    a_j[c] = -abs(a_j[c]) - 0.5
    zero_terms = tuple(
        (w, HalfspaceProjection(a_j if i == j else t.a, float(signed_zero @ (a_j if i == j else t.a)) + 1.0))
        for i, (w, t) in enumerate(terms)
    )
    # a NaN entry makes every factor NaN; an infinite entry makes a row's
    # dot +-inf (violated or satisfied) or NaN
    nan_point, inf_point = outside.copy(), outside.copy()
    nan_point[c] = np.nan
    inf_point[c] = np.inf if rng.random() < 0.5 else -np.inf
    cases = [(op, z), (op, outside), (on_boundary, outside), (all_violated, outside),
             (ConvexCombination(zero_terms), signed_zero), (op, nan_point), (op, inf_point),
             (SUBNORMAL_GAP, SUBNORMAL_GAP_POINT)]
    with np.errstate(invalid="ignore", over="ignore"):
        for family, x in cases:
            expected = tree_sum(family.terms, x)
            assert same_bits(family.apply(x), expected)
            assert same_bits(apply(family, x), expected)
            if family._halfspaces is not None:
                assert same_bits(family._halfspaces.apply(x), expected)


def test_negative_zero_coordinate_kept():
    # x inside both halfspaces, with column 0 of the normals positive: every
    # term keeps x[0] = -0.0, and so does the tree's sum.
    terms = ((0.5, HalfspaceProjection(np.array([1.0, 1.0]), 5.0)),
             (0.5, HalfspaceProjection(np.array([2.0, -1.0]), 5.0)))
    x = np.array([-0.0, 1.0])
    op = ConvexCombination(terms)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HalfspaceProjection, "apply", None)  # the stacked kernel serves x, not the leaves
        out = op.apply(x)
    assert np.signbit(out[0])
    assert same_bits(out, tree_sum(terms, x))


def test_stack_of_points_unchanged():
    terms, z, rng = random_family(12, 20, seed=5)
    xs = z + 2.0 * rng.standard_normal((7, 20))
    assert same_bits(apply(ConvexCombination(terms), xs), tree_sum(terms, xs))


@pytest.mark.parametrize(
    "terms",
    [
        ((0.5, HalfspaceProjection(np.array([1.0, 1.0]), 1.0)), (0.5, BallProjection(np.zeros(2), 1.0))),
        ((0.5, HalfspaceProjection(np.array([1.0, 1.0]), 1.0)),
         (0.5, Relaxation(HalfspaceProjection(np.array([1.0, -1.0]), 0.0), 1.5))),
        ((1.0, HalfspaceProjection(np.array([1.0, 1.0]), 1.0)),),
    ],
    ids=["halfspace+ball", "halfspace+relaxed", "single-term"],
)
def test_other_combinations_take_the_tree_path(terms):
    op = ConvexCombination(terms)
    assert op._halfspaces is None
    x = np.array([3.0, -2.0])
    assert same_bits(apply(op, x), tree_sum(terms, x))


def random_system():
    """20 random halfspaces in R^50 with unequal weights, a start point outside, 40 steps."""
    terms, z, rng = random_family(20, 50, seed=9)
    return terms, z + 5.0 * rng.standard_normal(50), 40, 0.05


def benchmark_system():
    """The benchmark's cimmino system at seed 1: equal weights, its start point, all its steps."""
    workloads = import_bench("workloads")
    a, b, z = workloads.halfspace_system(1)
    m = workloads.M
    terms = tuple(zip((1.0 / m,) * m, (HalfspaceProjection(a[i], b[i]) for i in range(m))))
    return terms, workloads.start_point(1, 0, z), workloads.STEPS, workloads.EPSILON


@pytest.mark.parametrize(
    "system, lam",
    [(random_system, 1.0), (random_system, 1.5), (benchmark_system, 1.0)],
    ids=["1.0", "1.5", "benchmark"],
)
def test_simultaneous_run_matches_leaf_loop(system, lam):
    # every iterate byte-equal to the tree; the benchmark checks its own
    # cimmino solve only to rel 1e-9
    terms, x0, steps, epsilon = system()
    leaves = tuple(op for _, op in terms)
    weights = tuple(w for w, _ in terms)
    schedule = ControlSchedule(operators=leaves, cycle=(simultaneous_plan(len(leaves), weights),))
    trace = run(schedule, RelaxationSchedule(epsilon=epsilon, constant=lam), x0,
                stop=StopRule(step_tol=1e-300, window=steps, max_iters=steps))
    family = schedule.operator_for(schedule.cycle[0])._halfspaces
    assert isinstance(family.w, float) == (len(set(weights)) == 1)
    x = trace.iterates[0].copy()
    expected = [x]
    for _ in range(steps):
        tx = tree_sum(terms, x)
        x = tx if lam == 1.0 else x + lam * (tx - x)
        expected.append(x)
    assert trace.iterations == steps
    assert same_bits(trace.iterates, np.array(expected))
