"""The batched row dots (``core._row_dots``) against the per-row 1-D dots they replace.

``_HalfspaceFamily`` computes all its row dots with one batched matmul.  Each
dot must equal the 1-D ``x @ a_i`` it replaces bit for bit, and the
``x.dot(a_i)`` that a half-space leaf computes for a vector of positive
stride, so the kernel keeps the tree's bits.  Every comparison here is on
bytes: a -0.0 against a +0.0, or one ulp, counts as a difference.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import same_bits, tree_sum
from gdsa.core import _row_dots
from gdsa.engine import RelaxationSchedule, StopRule, run
from gdsa.operators import ConvexCombination, HalfspaceProjection
from gdsa.strings import ControlSchedule, simultaneous_plan


def scaled_rows(rng, m: int, n: int) -> np.ndarray:
    """Rows scaled from 1e-300 to 1e300, with signed zeros scattered through them."""
    a = rng.standard_normal((m, n)) * np.logspace(-300, 300, m)[:, None]
    zeros = rng.random((m, n)) < 0.1
    a[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    a[0] = -0.0  # a whole row of negative zeros
    return a


@pytest.mark.parametrize("n", [2, 3, 7, 1000, 4097, 20000])
@pytest.mark.parametrize("seed", [0, 1])
def test_row_dots_match_the_per_row_dots(n, seed):
    rng = np.random.default_rng(seed)
    m = 41
    a = scaled_rows(rng, m, n)
    base = rng.standard_normal(3 * n)
    for x in (base[:n].copy(), base[::3], np.abs(base[1::3])):  # contiguous, strided, positive
        assert same_bits(_row_dots(x, a), np.array([x @ row for row in a]))
        assert same_bits(_row_dots(x, a), np.array([x.dot(row) for row in a]))  # the leaf's dot
        assert same_bits(_row_dots(a, x), np.array([row @ x for row in a]))


def test_row_dots_of_a_strided_matrix_view():
    rng = np.random.default_rng(3)
    big = scaled_rows(rng, 30, 2000)
    a = big[::2, ::2]  # neither rows nor columns contiguous
    x = rng.standard_normal(1000)
    assert same_bits(_row_dots(x, a), np.array([x @ row for row in a]))
    assert same_bits(_row_dots(x, a), np.array([x.dot(row) for row in a]))
    assert same_bits(_row_dots(a, x), np.array([row @ x for row in a]))


@pytest.mark.parametrize("lam", [1.0, 1.5])
def test_cimmino_sized_run_matches_the_leaf_loop(lam):
    # the benchmark's cimmino shape: 100 half-spaces in R^1000, equal weights
    n, m, steps = 1000, 100, 20
    rng = np.random.default_rng(7)
    a = rng.standard_normal((m, n))
    z = rng.standard_normal(n)
    b = a @ z + rng.uniform(0.0, 1.0, m)
    leaves = tuple(HalfspaceProjection(a[i], b[i]) for i in range(m))
    weights = (1.0 / m,) * m
    terms = tuple(zip(weights, leaves))
    schedule = ControlSchedule(operators=leaves, cycle=(simultaneous_plan(m, weights),))
    assert schedule.operator_for(schedule.cycle[0])._halfspaces is not None
    x0 = z + 5.0 * rng.standard_normal(n)
    trace = run(schedule, RelaxationSchedule(epsilon=0.05, constant=lam), x0,
                stop=StopRule(step_tol=1e-300, window=steps, max_iters=steps))
    x = trace.iterates[0].copy()
    expected = [x]
    for _ in range(steps):
        tx = tree_sum(terms, x)
        x = tx if lam == 1.0 else x + lam * (tx - x)
        expected.append(x)
    assert trace.iterations == steps
    assert same_bits(trace.iterates, np.array(expected))


def test_family_kernel_with_scaled_rows_matches_the_tree():
    # rows from 1e-150 to 1e150, so that every <a_i, a_i> stays finite and nonzero
    rng = np.random.default_rng(11)
    n, m = 257, 24
    a = rng.standard_normal((m, n)) * np.logspace(-150, 150, m)[:, None]
    a[rng.random((m, n)) < 0.1] = -0.0
    x = rng.standard_normal(n)
    ax = np.array([x @ row for row in a])
    b = ax - np.abs(ax) * rng.uniform(-0.5, 0.5, m)  # about half of the rows violated
    terms = tuple(zip((1.0 / m,) * m, (HalfspaceProjection(a[i], b[i]) for i in range(m))))
    op = ConvexCombination(terms)
    assert op._halfspaces is not None
    assert same_bits(op.apply(x), tree_sum(terms, x))
