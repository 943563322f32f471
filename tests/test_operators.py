from __future__ import annotations

import numpy as np
import pytest

from gdsa.core import DEFAULT_TOLERANCES, SampleSpec
from gdsa.harness import operator_from_json
from gdsa.operators import (
    AlphaUnknownError,
    BallProjection,
    BoxProjection,
    Composition,
    ConvexCombination,
    FixedPointWitness,
    HalfspaceProjection,
    HyperplaneProjection,
    Identity,
    Relaxation,
    apply,
    check_cutter,
    check_nonexpansive,
    check_rho_fne,
    projection_witness_points,
    propagate_alpha,
    residual,
)

BALL = BallProjection(np.zeros(2), 1.0)


def random_primitives(dim: int, count: int, seed: int) -> list:
    """A seeded bag of random half-space/ball/box projections in R^dim."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        kind = rng.integers(0, 3)
        if kind == 0:
            a = rng.normal(size=dim)
            while np.allclose(a, 0.0):
                a = rng.normal(size=dim)
            ops.append(HalfspaceProjection(a, float(rng.normal())))
        elif kind == 1:
            ops.append(BallProjection(rng.uniform(-2, 2, dim), float(rng.uniform(0.5, 2.0))))
        else:
            lo = rng.uniform(-3, 0, dim)
            ops.append(BoxProjection(lo, lo + rng.uniform(0.5, 3.0, dim)))
    return ops


class TestClosedForms:
    def test_halfspace_drops_violating_coordinate(self):
        op = HalfspaceProjection(np.array([1.0, 0.0]), 0.0)
        assert np.allclose(apply(op, [2.0, 3.0]), [0.0, 3.0])

    def test_halfspace_boundary_point_is_fixed(self):
        op = HalfspaceProjection(np.array([1.0, 0.0]), 0.0)
        assert np.array_equal(apply(op, [0.0, 5.0]), [0.0, 5.0])

    def test_hyperplane_projects_from_both_sides(self):
        op = HyperplaneProjection(np.array([0.0, 2.0]), 2.0)
        assert np.allclose(apply(op, [3.0, 4.0]), [3.0, 1.0])
        assert np.allclose(apply(op, [3.0, -4.0]), [3.0, 1.0])

    def test_ball_radial_scaling(self):
        assert np.allclose(apply(BALL, [3.0, 4.0]), [0.6, 0.8])

    def test_ball_interior_fixed(self):
        assert np.array_equal(apply(BALL, [0.5, 0.0]), [0.5, 0.0])

    def test_box_clamps_componentwise(self):
        op = BoxProjection(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
        assert np.allclose(apply(op, [2.0, -3.0]), [1.0, 0.0])

    def test_reflection_of_ball_projection(self):
        op = Relaxation(BALL, 2.0)
        assert np.allclose(apply(op, [3.0, 4.0]), [-1.8, -2.4])

    def test_zero_relaxation_is_identity(self):
        op = Relaxation(BALL, 0.0)
        x = np.array([3.0, 4.0])
        assert np.array_equal(apply(op, x), x)

    def test_batched_apply_matches_pointwise(self):
        xs = SampleSpec(dim=2, count=50, seed=1).points()
        op = ConvexCombination(((0.25, BALL), (0.75, HalfspaceProjection(np.array([1.0, 1.0]), 1.0))))
        batched = apply(op, xs)
        for i, x in enumerate(xs):
            assert np.allclose(batched[i], apply(op, x))

    def test_dimension_mismatch_raises(self):
        from gdsa.core import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            apply(BALL, [1.0, 2.0, 3.0])


class TestResidual:
    def test_interior_point_fixed(self):
        assert residual(BALL, [0.5, 0.0]) == 0.0

    def test_distance_to_sphere(self):
        assert residual(BALL, [2.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_distance_to_halfspace_boundary(self):
        op = HalfspaceProjection(np.array([1.0, 0.0]), 0.0)
        assert residual(op, [3.0, 0.0]) == pytest.approx(3.0, abs=1e-15)


class TestRelaxationAlgebra:
    def test_endpoints_exact_on_samples(self):
        xs = SampleSpec(dim=2, count=100, seed=2).points()
        assert np.array_equal(apply(Relaxation(BALL, 0.0), xs), xs)
        assert np.array_equal(apply(Relaxation(BALL, 1.0), xs), apply(BALL, xs))

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 1.5, 2.0])
    def test_fixed_points_preserved(self, lam):
        witness = projection_witness_points(BALL)
        for z in witness.points:
            assert residual(Relaxation(BALL, lam), z) <= DEFAULT_TOLERANCES.eq_tol

    def test_double_relaxation_multiplies(self):
        xs = SampleSpec(dim=2, count=200, seed=3).points()
        nested = Relaxation(Relaxation(BALL, 0.8), 1.5)
        flat = Relaxation(BALL, 1.2)
        assert np.allclose(apply(nested, xs), apply(flat, xs), atol=DEFAULT_TOLERANCES.eq_tol)

    def test_lambda_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Relaxation(BALL, 2.5)
        with pytest.raises(ValueError):
            Relaxation(BALL, -0.1)


class TestInequalityChecks:
    def test_projection_is_nonexpansive(self):
        assert check_nonexpansive(BALL, SampleSpec(dim=2, seed=4)).passed

    def test_reflection_is_nonexpansive(self):
        # pairs straddle the ball: the sampling box covers interior and exterior
        report = check_nonexpansive(Relaxation(BALL, 2.0), SampleSpec(dim=2, seed=5))
        assert report.passed

    def test_identity_max_violation_zero(self):
        report = check_nonexpansive(Identity(2), SampleSpec(dim=2, seed=6))
        assert report.passed and report.max_violation == 0.0

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0])
    def test_all_relaxations_of_fne_are_nonexpansive(self, lam):
        assert check_nonexpansive(Relaxation(BALL, lam), SampleSpec(dim=2, seed=7)).passed

    def test_projection_is_one_fne(self):
        assert check_rho_fne(BALL, 1.0, SampleSpec(dim=2, seed=8)).passed

    def test_composition_of_two_projections_is_half_fne(self):
        comp = Composition((BALL, HalfspaceProjection(np.array([0.0, 1.0]), 0.5)))
        assert check_rho_fne(comp, 0.5, SampleSpec(dim=2, seed=9)).passed

    def test_combination_of_projections_is_one_fne(self):
        comb = ConvexCombination(((0.5, BALL), (0.5, BoxProjection(np.array([0.0, 0.0]), np.array([2.0, 2.0])))))
        assert check_rho_fne(comb, 1.0, SampleSpec(dim=2, seed=10)).passed

    @pytest.mark.parametrize("m", [2, 3])
    def test_random_compositions_pass_at_one_over_m(self, m):
        for seed in range(4):
            ops = random_primitives(2, m, seed=100 + seed)
            assert check_rho_fne(Composition(tuple(ops)), 1.0 / m, SampleSpec(dim=2, seed=seed)).passed

    def test_random_combinations_pass_at_one(self):
        rng = np.random.default_rng(77)
        for seed in range(4):
            ops = random_primitives(2, 3, seed=200 + seed)
            w = rng.dirichlet(np.ones(3))
            w = w / w.sum()
            comb = ConvexCombination(tuple(zip(w, ops)))
            assert check_rho_fne(comb, 1.0, SampleSpec(dim=2, seed=seed)).passed

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            check_rho_fne(BALL, -0.5)

    def test_ball_is_cutter_at_center(self):
        witness = FixedPointWitness(np.zeros((1, 2)))
        assert check_cutter(BALL, witness, SampleSpec(dim=2, seed=11)).passed

    def test_identity_cutter_value_zero(self):
        witness = FixedPointWitness(np.array([[3.0, -1.0]]))
        report = check_cutter(Identity(2), witness, SampleSpec(dim=2, seed=12))
        assert report.passed and report.max_violation == 0.0

    def test_underrelaxed_cutter_still_cutter(self):
        witness = FixedPointWitness(np.zeros((1, 2)))
        assert check_cutter(Relaxation(BALL, 0.5), witness, SampleSpec(dim=2, seed=13)).passed

    def test_every_primitive_passes_fne_and_cutter_on_own_points(self):
        for op in random_primitives(2, 6, seed=300):
            assert check_rho_fne(op, 1.0, SampleSpec(dim=2, seed=14)).passed
            witness = projection_witness_points(op)
            assert check_cutter(op, witness, SampleSpec(dim=2, seed=15)).passed


class TestAlphaPropagation:
    def test_primitive_alpha_is_one(self):
        assert propagate_alpha(BALL) == 1.0
        assert propagate_alpha(Identity(2)) == 1.0

    def test_relaxation_scales_alpha(self):
        assert propagate_alpha(Relaxation(BALL, 2.0)) == 2.0
        assert propagate_alpha(Relaxation(BALL, 0.5)) == 0.5
        assert propagate_alpha(Relaxation(Relaxation(BALL, 0.5), 0.5)) == 0.25

    def test_composition_alpha_two_projections(self):
        comp = Composition((BALL, BoxProjection(np.array([0.0, 0.0]), np.array([1.0, 1.0]))))
        alpha = propagate_alpha(comp)
        assert alpha == pytest.approx(4.0 / 3.0, abs=1e-15)
        # cross-check numerically: alpha = 4/3 corresponds to rho = 1/2
        rho = (2.0 - alpha) / alpha
        assert check_rho_fne(comp, rho, SampleSpec(dim=2, seed=16)).passed

    def test_combination_alpha_is_weighted_mean(self):
        comb = ConvexCombination(((0.5, BALL), (0.5, Relaxation(BALL, 1.5))))
        assert propagate_alpha(comb) == 1.25
        assert check_rho_fne(comb, 0.6, SampleSpec(dim=2, seed=18)).passed

    @pytest.mark.parametrize("seed", range(20))
    def test_random_relaxed_combination_meets_its_alpha(self, seed):
        rng = np.random.default_rng(seed)
        leaves = random_primitives(3, 3, seed=400 + seed)
        comb = ConvexCombination(
            tuple(zip(rng.dirichlet(np.ones(3)), (Relaxation(op, rng.uniform(0.2, 2.0)) for op in leaves)))
        )
        alpha = propagate_alpha(comb)
        assert check_rho_fne(comb, (2.0 - alpha) / alpha, SampleSpec(dim=3, seed=seed)).passed

    def test_combination_of_equal_alphas_keeps_alpha(self):
        comb = ConvexCombination(tuple((0.1, Relaxation(BALL, 1.7)) for _ in range(10)))
        assert propagate_alpha(comb) == propagate_alpha(Relaxation(BALL, 1.7))

    def test_over_relaxed_nesting_refused(self):
        with pytest.raises(AlphaUnknownError):
            propagate_alpha(Relaxation(Relaxation(BALL, 2.0), 2.0))

    def test_declared_alpha_overrides(self):
        op = BallProjection(np.zeros(2), 1.0, declared_alpha=2.0)
        assert propagate_alpha(op) == 2.0

    def test_zero_relaxation_alpha_is_one(self):
        assert propagate_alpha(Relaxation(BALL, 0.0)) == 1.0


class TestWitness:
    def test_witness_verification_rejects_non_fixed_points(self):
        witness = FixedPointWitness(np.array([[5.0, 0.0]]))
        with pytest.raises(ValueError):
            witness.verify(BALL)

    def test_projection_witness_points_are_fixed(self):
        witness = projection_witness_points(BALL)
        assert witness.verify(BALL) <= DEFAULT_TOLERANCES.eq_tol

    def test_empty_witness_rejected(self):
        with pytest.raises(ValueError):
            FixedPointWitness(np.zeros((0, 2)))


BALL_DOC = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}

# one document of every operator kind, nested, and the tree it must build
TREE_DOC = {
    "kind": "combination",
    "terms": [
        {"weight": 0.25, "op": {"kind": "relaxation", "lam": 1.5, "inner": BALL_DOC}},
        {
            "weight": 0.75,
            "op": {
                "kind": "composition",
                "ops": [
                    {"kind": "halfspace", "a": [1.0, -1.0], "b": 0.5},
                    {"kind": "hyperplane", "a": [0.5, 2.0], "b": -1.0},
                    {"kind": "box", "lo": [-1.0, -2.0], "hi": [1.5, 0.5]},
                    {"kind": "identity", "dim": 2},
                    BALL_DOC,
                ],
            },
        },
    ],
}
TREE = ConvexCombination(
    (
        (0.25, Relaxation(BALL, 1.5)),
        (
            0.75,
            Composition(
                (
                    HalfspaceProjection(np.array([1.0, -1.0]), 0.5),
                    HyperplaneProjection(np.array([0.5, 2.0]), -1.0),
                    BoxProjection(np.array([-1.0, -2.0]), np.array([1.5, 0.5])),
                    Identity(2),
                    BALL,
                )
            ),
        ),
    )
)


class TestJson:
    def test_document_builds_the_hand_built_tree(self):
        xs = SampleSpec(dim=2, count=100, seed=17).points()
        parsed = apply(operator_from_json(TREE_DOC), xs)
        assert parsed.tobytes() == apply(TREE, xs).tobytes()

    @pytest.mark.parametrize(
        "doc",
        [TREE_DOC, *(t["op"] for t in TREE_DOC["terms"]), *TREE_DOC["terms"][1]["op"]["ops"]],
        ids=lambda doc: doc["kind"],
    )
    def test_alpha_key_is_declared_alpha(self, doc):
        op = operator_from_json({**doc, "alpha": 0.5})
        assert op.declared_alpha == 0.5
        assert propagate_alpha(op) == 0.5
        assert operator_from_json(doc).declared_alpha is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            operator_from_json({"kind": "parabola"})

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "ball", "center": [0.0, 0.0], "radius": -1.0},
            {"kind": "box", "lo": [1.0], "hi": [0.0]},
            {"kind": "halfspace", "a": [0.0, 0.0], "b": 1.0},
            {"kind": "combination", "terms": [{"weight": 0.4, "op": {"kind": "identity", "dim": 1}}]},
        ],
    )
    def test_invalid_parameters_rejected(self, doc):
        with pytest.raises(ValueError):
            operator_from_json(doc)
