"""The trace writer's number kernel against format(v, ".17g"), byte for byte.

``gdsa._float_text.format_17g`` computes the 17 digits of a float64 in
1e-11 <= |v| < 1e16 with integer arithmetic and lays them out as Python's
"g" does; every other value goes through format itself.  Each case here
compares the two on every value.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdsa._float_text import CELL, format_17g


def kernel_text(values) -> list[str]:
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    cells = np.empty((values.size, CELL), dtype=np.uint8)
    lens = format_17g(values, cells)
    return [cells[i, :n].tobytes().decode() for i, n in enumerate(lens.tolist())]


def assert_formats_as_python(values) -> None:
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    expected = [format(v, ".17g") for v in values.tolist()]
    wrong = [(v, got, want) for v, got, want in zip(values.tolist(), kernel_text(values), expected) if got != want]
    assert not wrong, f"{len(wrong)} of {values.size} differ, first: {wrong[:5]}"


def powers_of_ten() -> np.ndarray:
    # float("1e-5") is the double nearest 10**-5, which 10.0 ** -5 need not be
    return np.array([float(f"1e{j}") for j in range(-12, 18)])


def test_random_bit_patterns():
    rng = np.random.default_rng(20190)
    assert_formats_as_python(rng.integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False).view(np.float64))


def test_log_uniform_magnitudes_both_signs():
    rng = np.random.default_rng(7)
    size = 400_000
    magnitude = np.exp(rng.uniform(np.log(1e-15), np.log(1e20), size))
    assert_formats_as_python(magnitude * rng.choice([-1.0, 1.0], size))


def test_integers_times_powers_of_ten():
    rng = np.random.default_rng(3)
    size = 200_000
    ints = rng.integers(1, 10**6, size).astype(np.float64)
    assert_formats_as_python(ints * 10.0 ** rng.integers(-15, 18, size))
    assert_formats_as_python(np.arange(1, 100_001, dtype=np.float64))


def test_neighbours_of_powers_of_ten():
    p = powers_of_ten()
    below, above = np.nextafter(p, 0.0), np.nextafter(p, np.inf)
    values = np.concatenate([p, below, above, np.nextafter(below, 0.0), np.nextafter(above, np.inf)])
    assert_formats_as_python(np.concatenate([values, -values]))


@pytest.mark.parametrize(
    "value",
    [1e-4, 9.9999999999999991e-05, 1.0000000000000001e-4, 1e17, 99999999999999999.0, 9.9999999999999995e-05,
     1e16, 9999999999999998.0, 1e-5, 1e-11, 9.999999999999999e-12, 2.0**52, 2.0**53, 2.0**52 - 0.5],
)
def test_notation_switches_and_round_ups(value):
    assert_formats_as_python([value, -value])


@pytest.mark.parametrize(
    "value, text",
    [
        (1234567890123456.75, "1234567890123456.8"),
        (1234567890123456.25, "1234567890123456.2"),
        (4503599627370495.5, "4503599627370495.5"),
        (-1234567890123456.25, "-1234567890123456.2"),
    ],
)
def test_ties_round_half_even(value, text):
    assert kernel_text([value]) == [text] == [format(value, ".17g")]


def test_zeros_subnormals_and_non_finite():
    assert_formats_as_python(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, -np.inf, np.nan]
    )
    assert kernel_text([0.0, -0.0]) == ["0", "-0"]


@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_any_floats(values):
    assert_formats_as_python(values)
