"""The leaves' single-vector paths against frozen copies of the stacked formulas.

``HalfspaceProjection`` and ``BallProjection`` take a scalar path for one
float64 vector, and ``BoxProjection`` calls ``ndarray.clip`` without
``np.clip``'s wrapper.  The ``old_*`` functions are the formulas every input
went through before those paths existed, kept unchanged as the reference; the
half-space's, which ``tests/test_bench_contract.py`` reads too, are in
``conftest.py``.  ``HyperplaneProjection`` has one formula for a vector and a
stack, and is held to it too.  The hyperplane, the ball and the box must match
them byte for byte.  The half-space returns a point already inside as the same
array, so where x holds a -0.0 its result can differ from ``x - 0.0 * a`` in
the sign of that zero, and only there; it must still be equal in value.  Its
stacked ``residual``, which skips the rows the set leaves fixed, must equal
``old_residual(op, xs)`` byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import old_halfspace, old_residual, same_bits
from gdsa.core import DimensionMismatchError, norm
from gdsa.engine import RelaxationSchedule, StopRule, run
from gdsa.operators import BallProjection, BoxProjection, HalfspaceProjection, HyperplaneProjection, residual
from gdsa.strings import ControlSchedule, StringPlan


def old_hyperplane(op, x):
    return x - ((x @ op.a - op.b) / op._aa)[..., None] * op.a


def old_ball(op, x):
    delta = x - op.center
    d = norm(delta)
    scale = np.where(d > op.radius, op.radius / np.where(d == 0.0, 1.0, d), 1.0)
    return op.center + scale[..., None] * delta


def has_negative_zero(x) -> bool:
    return bool(np.any((x == 0.0) & np.signbit(x)))


PLACES = ("inside", "outside", "boundary")


def random_point(data, n: int):
    """A normal and a point in R^n, with an optional -0.0 and an optional NaN entry."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    x = rng.standard_normal(n)
    if data.draw(st.booleans(), label="negative zero"):
        j = int(rng.integers(n))
        x[j] = -0.0
        a[j] = -abs(a[j]) - 0.5  # a negative normal entry: x_j - 0.0 * a_j is +0.0
    nan = data.draw(st.booleans(), label="nan")
    return a, x, rng, nan


def with_nan(x, rng):
    x = x.copy()
    x[int(rng.integers(x.size))] = np.nan
    return x


# The 1-D layouts a vector can arrive in: each maps the entries v to a view
# holding them (the broadcast view holds v[0] in every entry).
LAYOUTS = {
    "contiguous": lambda v: v.copy(),
    "every other": lambda v: np.repeat(v, 2)[::2],
    "reversed": lambda v: v[::-1].copy()[::-1],
    "row of a C stack": lambda v: np.stack([-v, v, 2.0 * v])[1],
    "row of an F stack": lambda v: np.asfortranarray(np.stack([-v, v, 2.0 * v]))[1],
    "broadcast": lambda v: np.broadcast_to(v[:1], v.shape),
}


@given(
    data=st.data(), n=st.integers(1, 2000), place=st.sampled_from(PLACES), layout=st.sampled_from(sorted(LAYOUTS)))
@settings(max_examples=300, deadline=None)
def test_halfspace_vector_path(data, n, place, layout):
    # n reaches past the unrolled tails of the BLAS dot; a reversed or a
    # zero-stride view must keep the rounding of x @ a
    a, v, rng, nan = random_point(data, n)
    x = LAYOUTS[layout](v)
    excess = float(x @ a)
    b = {"inside": excess + rng.uniform(0.1, 2.0), "outside": excess - rng.uniform(0.1, 2.0), "boundary": excess}[place]
    op = HalfspaceProjection(a, b)
    if nan:
        x = LAYOUTS[layout](with_nan(v, rng))
        nan = bool(np.isnan(x).any())  # the broadcast view keeps only v[0]
    out, ref = op.apply(x), old_halfspace(op, x)
    assert np.array_equal(out, ref, equal_nan=True)
    if not has_negative_zero(x):
        assert same_bits(out, ref)
    if place != "outside" and not nan:
        assert out is x  # inside or exactly on the boundary: the input itself
    else:
        assert out is not x


@given(data=st.data(), n=st.integers(1, 50), place=st.sampled_from(PLACES))
@settings(max_examples=300, deadline=None)
def test_hyperplane_vector_path(data, n, place):
    a, x, rng, nan = random_point(data, n)
    dot = float(x @ a)
    b = {"inside": dot + rng.uniform(0.1, 2.0), "outside": dot - rng.uniform(0.1, 2.0), "boundary": dot}[place]
    op = HyperplaneProjection(a, b)
    if nan:
        x = with_nan(x, rng)
    out = op.apply(x)
    assert same_bits(out, old_hyperplane(op, x))
    assert same_bits(out, op.apply(x[None, :])[0])  # the stack path's row
    if nan:  # a NaN entry makes the dot NaN, and the dot reaches every entry
        assert np.isnan(out).all()


@pytest.mark.parametrize(
    "x, lo, hi",
    [
        (-0.0, 0.0, 1.0),  # -0.0 on a lower bound of +0.0
        (0.0, -0.0, 1.0),
        (-0.0, -1.0, 0.0),  # -0.0 on an upper bound of +0.0
        (0.0, -1.0, -0.0),
        (-0.0, 0.0, 0.0),  # a degenerate edge
        (np.nan, 0.0, 1.0),
    ],
)
def test_box_keeps_the_bytes_of_np_clip(x, lo, hi):
    xs = np.array([x, -2.0, 0.5, 3.0])
    op = BoxProjection([lo, -1.0, -1.0, -1.0], [hi, 1.0, 1.0, 1.0])
    assert same_bits(op.apply(xs), np.clip(xs, op.lo, op.hi))
    assert same_bits(op.apply(xs[None, :]), np.clip(xs[None, :], op.lo, op.hi))
    assert same_bits(op.apply(xs.tolist()), np.clip(xs.tolist(), op.lo, op.hi))


@given(data=st.data(), n=st.integers(1, 50), place=st.sampled_from(PLACES + ("centre",)))
@settings(max_examples=300, deadline=None)
def test_ball_vector_path(data, n, place):
    _, x, rng, nan = random_point(data, n)
    center = rng.standard_normal(n)
    d = norm(x - center)
    if place == "centre":
        x, radius = center.copy(), rng.uniform(0.1, 2.0)
    else:
        radius = {"inside": d + rng.uniform(0.1, 2.0), "outside": d * rng.uniform(0.1, 0.9), "boundary": d}[place]
        radius = max(radius, 1e-3)
    op = BallProjection(center, radius)
    if nan:
        x = with_nan(x, rng)
    assert same_bits(op.apply(x), old_ball(op, x))


@pytest.mark.parametrize("n", [1, 7])
def test_stacks_keep_the_stacked_formulas(n):
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((9, n))
    xs[0, 0] = -0.0
    xs[1, 0] = np.nan
    a, center = rng.standard_normal(n), rng.standard_normal(n)
    for op, old in (
        (HalfspaceProjection(a, 0.1), old_halfspace),
        (HyperplaneProjection(a, 0.1), old_hyperplane),
        (BallProjection(center, 0.5), old_ball),
    ):
        assert same_bits(op.apply(xs), old(op, xs))


def test_other_vectors_keep_the_stacked_formulas():
    # a float32 vector must come back as float64, not as the input itself
    op = HalfspaceProjection(np.array([1.0, 2.0]), 100.0)
    x = np.array([1.0, 1.0], dtype=np.float32)
    out = op.apply(x)
    assert out.dtype == np.float64 and same_bits(out, old_halfspace(op, x))


@given(data=st.data(), n=st.integers(2, 50), shape=st.sampled_from([(7,), (1,), (3, 4)]))
@settings(max_examples=300, deadline=None)
def test_halfspace_stack_residual(data, n, shape):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    aa = float(a @ a)
    places = rng.choice(np.array(PLACES), size=shape)
    ys = rng.standard_normal(shape + (n,))
    # move each row along a until <a, x> - b is -u |a|^2 (inside), 0 or +u |a|^2
    u = rng.uniform(0.1, 2.0, size=shape) * np.select([places == "inside", places == "outside"], [-1.0, 1.0], 0.0)
    xs = ys - ((ys @ a) / aa - u)[..., None] * a
    zeros = rng.random(xs.shape) < 0.1
    xs[zeros] = np.where(rng.random(xs.shape) < 0.5, 0.0, -0.0)[zeros]
    # b from the stack's own dots puts the first boundary row exactly on the boundary
    on = np.flatnonzero(places.ravel() == "boundary")
    b = float((xs @ a).ravel()[on[0]]) if on.size else rng.standard_normal()
    op = HalfspaceProjection(a, b)
    out = residual(op, xs)
    assert same_bits(out, old_residual(op, xs))
    if on.size:
        assert out.ravel()[on[0]] == 0.0


def test_halfspace_stack_residual_with_infinite_and_nan_rows():
    op = HalfspaceProjection([1.0, 2.0, -1.0], 0.5)
    inf, nan = np.inf, np.nan
    xs = np.array([
        [-inf, 0.0, 0.0],  # <a, x> = -inf: excess 0, and inf - inf makes the residual NaN
        [0.0, 0.0, inf],  # -inf through a negative normal entry
        [inf, 0.0, 0.0],  # excess +inf
        [inf, -inf, 0.0],  # a NaN dot
        [nan, 0.0, 0.0],
        [0.0, 0.0, 0.0],  # inside
        [1.0, 1.0, 0.0],  # outside
    ])
    with np.errstate(all="ignore"):
        out, ref = residual(op, xs), old_residual(op, xs)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(residual(op, xs.reshape(7, 1, 3)), ref.reshape(7, 1))
    assert np.isnan(out[:5]).all() and out[5] == 0.0 and out[6] > 0.0


def test_halfspace_residual_keeps_its_checks_and_vector_float():
    op = HalfspaceProjection([1.0, 2.0], 0.5)
    with pytest.raises(DimensionMismatchError):
        residual(op, np.zeros((4, 3)))
    with pytest.raises(DimensionMismatchError):
        residual(op, np.zeros(3))
    for x in ([0.0, 0.0], [1.0, 1.0]):
        r = residual(op, x)
        assert type(r) is float and r == old_residual(op, np.array(x))


def strings_plans(m: int):
    """Contiguous blocks, interleaved blocks and one ART string, 1-based."""
    contiguous = tuple(tuple(range(5 * j + 1, 5 * j + 6)) for j in range(4))
    interleaved = tuple(tuple(range(j + 1, m + 1, 4)) for j in range(4))
    return (
        StringPlan(contiguous, (0.25,) * 4),
        StringPlan(interleaved, (0.25,) * 4),
        StringPlan((tuple(range(1, m + 1)),), (1.0,)),
    )


def test_strings_run_matches_old_row_loop():
    n, m, lam, steps = 50, 20, 0.9, 30
    rng = np.random.default_rng(21)
    a = rng.standard_normal((m, n))
    z = rng.standard_normal(n)
    b = a @ z + rng.uniform(0.1, 1.0, m)
    leaves = tuple(HalfspaceProjection(a[i], b[i]) for i in range(m))
    plans = strings_plans(m)
    schedule = ControlSchedule(operators=leaves, cycle=plans)
    trace = run(schedule, RelaxationSchedule(epsilon=0.05, constant=lam), z + 5.0 * rng.standard_normal(n),
                stop=StopRule(step_tol=1e-300, window=steps, max_iters=steps))
    x = trace.iterates[0].copy()
    expected = [x]
    for k in range(steps):
        plan = plans[k % len(plans)]
        tx = None
        for string, w in zip(plan.strings, plan.weights):
            y = x
            for i in string:
                y = old_halfspace(leaves[i - 1], y)
            # a one-string plan is its string operator, unweighted
            tx = y if len(plan.strings) == 1 else (w * y if tx is None else tx + w * y)
        x = x + lam * (tx - x)
        expected.append(x)
    assert trace.iterations == steps
    assert same_bits(trace.iterates, np.array(expected))
