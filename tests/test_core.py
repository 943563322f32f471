from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_interval_problem
from gdsa.core import (
    DEFAULT_TOLERANCES,
    SampleSpec,
    Tolerances,
    as_vector,
    check_weights,
    norm,
)
from gdsa.harness import proximity_value
from gdsa.operators import ConvexCombination, Identity
from gdsa.strings import IndexString, StringPlan


def test_norm_pythagorean():
    assert norm([3.0, 4.0]) == 5.0


def test_norm_zero_vector():
    assert norm([0.0, 0.0, 0.0]) == 0.0


def test_norm_unit_scalar():
    assert norm([1.0]) == 1.0


@pytest.mark.parametrize("n", [1, 8, 9, 128, 129, 1000, 9000])
def test_norm_of_a_stack_equals_row_norms_bitwise(n):
    # the trace writer takes every perturbation norm from one stacked call
    rows = np.random.default_rng(n).standard_normal((7, n)) * np.logspace(-150, 150, 7)[:, None]
    singles = np.array([norm(row) for row in rows])
    assert norm(rows).tobytes() == singles.tobytes()


def test_check_weights_returns_floats():
    assert check_weights(np.array([0.25, 0.75]), 2) == (0.25, 0.75)


@pytest.mark.parametrize("weights", [(0.7, 0.7), (1.5, -0.5), (0.5, 0.25, 0.25), ((0.5, 0.5),)])
def test_check_weights_rejects(weights):
    with pytest.raises(ValueError):
        check_weights(weights, 2)


@pytest.mark.parametrize(
    "weights", [(np.nan, np.nan), (np.nan, 1.0), (np.inf, 0.5), (0.5, -np.inf), (np.inf, np.inf)]
)
def test_check_weights_rejects_nonfinite(weights):
    with pytest.raises(ValueError, match="finite"):
        check_weights(weights, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda w: StringPlan((IndexString((1,)), IndexString((2,))), w),
        lambda w: ConvexCombination(tuple(zip(w, (Identity(1), Identity(1))))),
        lambda w: proximity_value(two_interval_problem(), w, [0.0]),
    ],
    ids=["plan", "combination", "proximity"],
)
def test_weight_callers_share_the_rule(build):
    with pytest.raises(ValueError, match=r"sum to 1\.4, not 1"):
        build((0.7, 0.7))


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf])


def test_cauchy_schwarz_on_seeded_pairs():
    spec = SampleSpec(dim=4, count=1000, seed=11)
    xs, ys = spec.pairs()
    lhs = np.abs(np.sum(xs * ys, axis=-1))
    rhs = np.sqrt(np.sum(xs * xs, axis=-1)) * np.sqrt(np.sum(ys * ys, axis=-1))
    assert np.all(lhs <= rhs + DEFAULT_TOLERANCES.slack_tol)


def test_norm_of_difference_is_symmetric_bitwise():
    xs, ys = SampleSpec(dim=3, count=200, seed=5).pairs()
    for x, y in zip(xs, ys):
        assert norm(x - y) == norm(y - x)


@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_parallelogram_law(xl, yl):
    x, y = np.array(xl), np.array(yl)
    lhs = norm(x + y) ** 2 + norm(x - y) ** 2
    rhs = 2.0 * norm(x) ** 2 + 2.0 * norm(y) ** 2
    assert lhs == pytest.approx(rhs, abs=DEFAULT_TOLERANCES.eq_tol)


def test_tolerances_defaults_ordered():
    t = DEFAULT_TOLERANCES
    assert t.slack_tol <= t.eq_tol <= t.conv_tol
    assert t.eq_tol == 1e-10 and t.conv_tol == 1e-8
    assert t.slack_tol == 1e-12 and t.subgrad_zero_tol == 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eq_tol": -1e-10},
        {"conv_tol": 0.0},
        {"slack_tol": 1e-9},  # breaks slack <= eq
        {"eq_tol": 1e-7},  # breaks eq <= conv
    ],
)
def test_tolerances_invariants_enforced(kwargs):
    with pytest.raises(ValueError):
        Tolerances(**kwargs)


def test_sample_spec_is_reproducible():
    a = SampleSpec(dim=2, count=10, seed=42).points()
    b = SampleSpec(dim=2, count=10, seed=42).points()
    assert np.array_equal(a, b)
    c = SampleSpec(dim=2, count=10, seed=43).points()
    assert not np.array_equal(a, c)
