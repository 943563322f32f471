from __future__ import annotations

import importlib
import json
import sys
import time
from fractions import Fraction
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import overlapping_ball_problem, simultaneous_schedule, two_ball_problem, two_interval_problem
from gdsa import harness
from gdsa.cli import main
from gdsa.core import DEFAULT_TOLERANCES, DimensionMismatchError, SampleSpec, Tolerances, norm
from gdsa.engine import IterationTrace, PerturbationSchedule, RelaxationSchedule, StopRule, run
from gdsa.harness import (
    ConfigError,
    GridSpec,
    OracleIterationCapError,
    ProblemInstance,
    certified_c_witness,
    fixed_point_oracle,
    load_config,
    parse_config,
    proximity_argmin_oracle,
    proximity_value,
    write_summary_json,
    write_trace_csv,
)
from gdsa.operators import (
    BallProjection,
    BoxProjection,
    Composition,
    ConvexCombination,
    HalfspaceProjection,
    HyperplaneProjection,
    Identity,
    Relaxation,
    propagate_alpha,
    residual,
)
from gdsa.strings import ControlSchedule, StringPlan, signature_str, simultaneous_plan
from gdsa.superiorize import L1Norm, SuperiorizationSchedule, superiorized_run


class TestProximity:
    def test_zero_on_intersection(self, overlapping):
        assert proximity_value(overlapping, (0.5, 0.5), [0.0, 0.0]) == 0.0

    def test_two_interval_midpoint_value(self, two_interval):
        assert proximity_value(two_interval, (0.5, 0.5), [0.0]) == pytest.approx(0.5)

    def test_two_interval_at_one(self, two_interval):
        # distance 2 to the left interval, 0 to the right
        assert proximity_value(two_interval, (0.5, 0.5), [1.0]) == pytest.approx(1.0)

    def test_weights_validated(self, two_interval):
        with pytest.raises(ValueError):
            proximity_value(two_interval, (0.7, 0.7), [0.0])
        with pytest.raises(ValueError):
            proximity_value(two_interval, (1.5, -0.5), [0.0])


class TestProximityArgmin:
    def test_two_interval_argmin_is_zero(self, two_interval):
        z = proximity_argmin_oracle(two_interval, (0.5, 0.5))
        assert abs(z[0]) <= 1e-8

    def test_consistent_problem_reaches_zero_value(self, overlapping):
        z = proximity_argmin_oracle(overlapping, (0.5, 0.5), GridSpec(-4, 4, 41))
        assert proximity_value(overlapping, (0.5, 0.5), z) <= DEFAULT_TOLERANCES.eq_tol

    def test_two_ball_argmin_is_midpoint(self, two_ball):
        z = proximity_argmin_oracle(two_ball, (0.5, 0.5), GridSpec(-4, 4, 41))
        assert np.allclose(z, [0.0, 1.0], atol=1e-8)

    def test_dimension_limit(self):
        big = ProblemInstance(dim=4, projectors=(Identity(4),))
        with pytest.raises(ValueError):
            proximity_argmin_oracle(big, (1.0,))


class TestFixedPointOracle:
    def test_ball_projection_one_step(self):
        ball = BallProjection(np.zeros(2), 1.0)
        assert np.allclose(fixed_point_oracle(ball, [5.0, 0.0]), [1.0, 0.0])

    def test_two_interval_averaged(self, interval_schedule):
        z = fixed_point_oracle(interval_schedule.operator_for(interval_schedule.plan_at(0)), [7.3])
        assert abs(z[0]) <= DEFAULT_TOLERANCES.conv_tol / 10

    @pytest.mark.parametrize("make", [two_interval_problem, two_ball_problem, overlapping_ball_problem])
    def test_stack_matches_single_calls(self, make):
        problem = make()
        schedule = simultaneous_schedule(problem)
        op = schedule.operator_for(schedule.plan_at(0))
        starts = GridSpec(-5, 5, 7).mesh(problem.dim)
        stacked = fixed_point_oracle(op, starts)
        singles = np.stack([fixed_point_oracle(op, x0) for x0 in starts])
        assert np.array_equal(stacked, singles)

    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_stack_rows_pass_the_residual_test_and_agree_up_to_rounding(self, n):
        # a stack goes through the stacked formulas, so its rows may differ from
        # separate calls in the last bits (by about 1e-14 here); both pass the
        # same residual test, so they may lie up to that test's tolerance apart
        rng = np.random.default_rng(3)
        z = rng.standard_normal(n)
        sets = [HalfspaceProjection(a, float(a @ z) + rng.uniform(0.0, 1.0)) for a in rng.standard_normal((4, n))]
        a = rng.standard_normal(n)
        sets.append(HyperplaneProjection(a, float(a @ z)))
        op = ConvexCombination(tuple((0.2, s) for s in sets))
        starts = 10.0 * rng.standard_normal((5, n))
        tol = DEFAULT_TOLERANCES.conv_tol / 100.0
        stacked = fixed_point_oracle(op, starts)
        singles = np.stack([fixed_point_oracle(op, x0) for x0 in starts])
        assert np.all(residual(op, stacked) <= tol)
        assert np.all(norm(stacked - singles) <= tol)

    def test_reflection_is_refused_at_once(self):
        reflection = Relaxation(HyperplaneProjection([1.0], 0.0), 2.0)
        start = time.perf_counter()
        with pytest.raises(OracleIterationCapError):
            fixed_point_oracle(reflection, [1.0])
        assert time.perf_counter() - start < 1.0

    def test_iteration_cap_raises(self, monkeypatch):
        # alpha = 1.9 passes the up-front check; x -> -0.9 x needs about 200 steps
        slow = Relaxation(HyperplaneProjection([1.0], 0.0), 1.9)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_ORACLE_PICARD_CAP", 10)
            with pytest.raises(OracleIterationCapError):
                fixed_point_oracle(slow, [1.0])
        assert fixed_point_oracle(slow, [1.0])[0] == pytest.approx(0.0, abs=1e-9)

    def test_combination_with_a_reflection_converges(self):
        reflection = Relaxation(HyperplaneProjection([1.0], 0.0), 2.0)
        comb = ConvexCombination(((0.5, reflection), (0.5, BoxProjection([-1.0], [1.0]))))
        assert propagate_alpha(comb) == 1.5
        assert np.array_equal(fixed_point_oracle(comb, [3.0]), [0.0])

    def test_identity_returns_start(self):
        z = fixed_point_oracle(Identity(2), [0.3, -0.4])
        assert np.array_equal(z, [0.3, -0.4])

    def test_oracle_cross_validation_singleton_problems(self):
        # problems whose simultaneous target set is a single point
        cases = [
            (two_interval_problem(), (0.5, 0.5), [7.3]),
            (two_ball_problem(), (0.5, 0.5), [3.0, 4.0]),
            (two_ball_problem(), (0.3, 0.7), [3.0, 4.0]),
            (
                ProblemInstance(
                    dim=1,
                    projectors=(
                        BoxProjection(np.array([-3.0]), np.array([-1.0])),
                        BoxProjection(np.array([2.0]), np.array([5.0])),
                    ),
                ),
                (0.5, 0.5),
                [-4.0],
            ),
        ]
        for problem, weights, x0 in cases:
            sched = simultaneous_schedule(problem, weights)
            fp = fixed_point_oracle(sched.operator_for(sched.plan_at(0)), x0)
            argmin = proximity_argmin_oracle(problem, weights, GridSpec(-6, 6, 49))
            assert np.allclose(fp, argmin, atol=10 * DEFAULT_TOLERANCES.conv_tol)

    def test_certified_witness_two_interval(self, interval_schedule):
        z = certified_c_witness(interval_schedule, [7.3])
        assert z is not None and abs(z[0]) <= 1e-8

    def test_certified_witness_is_none_when_picard_hits_its_cap(self, interval_schedule, monkeypatch):
        monkeypatch.setattr(harness, "_ORACLE_PICARD_CAP", 1)
        assert certified_c_witness(interval_schedule, [7.3]) is None


@pytest.mark.parametrize(
    "build",
    [
        lambda a, b: ProblemInstance(dim=1, projectors=(a, b)),
        lambda a, b: ControlSchedule(operators=(a, b), cycle=(simultaneous_plan(2),)),
        lambda a, b: ConvexCombination(((0.5, a), (0.5, b))),
        lambda a, b: Composition((a, b)),
    ],
    ids=["problem", "schedule", "combination", "composition"],
)
def test_mixed_dimensions_raise_one_error_type(build):
    with pytest.raises(DimensionMismatchError):
        build(Identity(1), Identity(2))


CONFIG_DOC = {
    "problem": {
        "dim": 1,
        "sets": [
            {"kind": "box", "lo": [-3.0], "hi": [-1.0]},
            {"kind": "box", "lo": [1.0], "hi": [3.0]},
        ],
    },
    "schedule": {"cycle": [{"strings": [[1], [2]], "weights": [0.5, 0.5]}]},
    "relaxation": {"epsilon": 0.05, "constant": 1.0},
    "seed": 17,
    "x0": [7.3],
    "stop": {"step_tol": 1e-8, "window": 10, "max_iters": 10000},
}
SETS = CONFIG_DOC["problem"]["sets"]


def with_key(doc: dict, key: str, value) -> dict:
    """A copy of ``doc`` with the dotted ``key`` set to ``value``; a list index is a number."""
    doc = json.loads(json.dumps(doc))
    *path, last = key.split(".")
    node = doc
    for part in path:
        node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
    node[last] = value
    return doc


# Every place the config reads a float, or an entry of a number array: the
# dotted key, a valid value, and how the value sits under the key.
NUMBER_SLOTS = {
    "step_tol": ("stop.step_tol", 1e-8, lambda v: v),
    "relaxation_epsilon": ("relaxation", 0.05, lambda v: {"epsilon": v, "constant": 1.0}),
    "relaxation_constant": ("relaxation", 1.0, lambda v: {"constant": v}),
    "relaxation_base": ("relaxation", 1.0, lambda v: {"base": v}),
    "relaxation_slope": ("relaxation", 0.0, lambda v: {"base": 1.0, "slope": v}),
    "relaxation_cycle": ("relaxation", 0.5, lambda v: {"cycle": [1.0, v]}),
    "eq_tol": ("tolerances.eq_tol", 1e-10, lambda v: v),
    "conv_tol": ("tolerances.conv_tol", 1e-8, lambda v: v),
    "slack_tol": ("tolerances.slack_tol", 1e-12, lambda v: v),
    "subgrad_zero_tol": ("tolerances.subgrad_zero_tol", 1e-12, lambda v: v),
    "perturbation_beta0": ("perturbation", 0.5, lambda v: {"beta0": v}),
    "perturbation_decay": ("perturbation", 0.9, lambda v: {"decay": v}),
    "perturbation_directions": ("perturbation", 1.0, lambda v: {"directions": [[v]]}),
    "superiorization_beta0": ("superiorization", 0.5, lambda v: {"objective": {"kind": "l1"}, "beta0": v}),
    "superiorization_decay": ("superiorization", 0.9, lambda v: {"objective": {"kind": "l1"}, "decay": v}),
    "objective_weight": (
        "superiorization", 1.0, lambda v: {"objective": {"kind": "wsqnorm", "center": [0.0], "weight": v}}),
    "objective_center": ("superiorization", 0.0, lambda v: {"objective": {"kind": "wsqnorm", "center": [v]}}),
    "piece_b": (
        "superiorization", 0.0, lambda v: {"objective": {"kind": "max_affine", "pieces": [{"a": [1.0], "b": v}]}}),
    "piece_a": (
        "superiorization", 1.0, lambda v: {"objective": {"kind": "max_affine", "pieces": [{"a": [v], "b": 0.0}]}}),
    # an extra set, outside every plan
    "halfspace_b": ("problem.sets", 0.0, lambda v: [*SETS, {"kind": "halfspace", "a": [1.0], "b": v}]),
    "halfspace_a": ("problem.sets", 1.0, lambda v: [*SETS, {"kind": "halfspace", "a": [v], "b": 0.0}]),
    "hyperplane_b": ("problem.sets", 0.0, lambda v: [*SETS, {"kind": "hyperplane", "a": [1.0], "b": v}]),
    "ball_radius": ("problem.sets", 1.0, lambda v: [*SETS, {"kind": "ball", "center": [0.0], "radius": v}]),
    "ball_center": ("problem.sets", 0.0, lambda v: [*SETS, {"kind": "ball", "center": [v], "radius": 1.0}]),
    "box_lo": ("problem.sets", -1.0, lambda v: [*SETS, {"kind": "box", "lo": [v], "hi": [1.0]}]),
    "box_hi": ("problem.sets", 1.0, lambda v: [*SETS, {"kind": "box", "lo": [-1.0], "hi": [v]}]),
    "lam": ("problem.sets", 0.5, lambda v: [*SETS, {"kind": "relaxation", "inner": SETS[0], "lam": v}]),
    "alpha": ("problem.sets", 1.0, lambda v: [*SETS, {**SETS[0], "alpha": v}]),
    "term_weight": (
        "problem.sets", 1.0, lambda v: [*SETS, {"kind": "combination", "terms": [{"weight": v, "op": SETS[0]}]}]),
    "plan_weight": ("schedule.cycle", 1.0, lambda v: [{"strings": [[1, 2]], "weights": [v]}]),
    "x0": ("x0", 7.3, lambda v: [v]),
}


class TestConfig:
    def test_parse_full_document(self):
        config = parse_config(json.loads(json.dumps(CONFIG_DOC)))
        assert config.problem.m == 2
        assert config.schedule.m == 2
        assert config.relax.constant == 1.0
        assert config.seed == 17
        assert config.plan_weights() == (0.5, 0.5)

    def test_plan_weights_follow_simultaneous_plan(self):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["schedule"]["cycle"] = [{"strings": [[2], [1]], "weights": [0.75, 0.25]}]
        config = parse_config(doc)
        assert config.plan_weights() == (0.25, 0.75)

    @pytest.mark.parametrize(
        "cycle, expected",
        [
            ([{"strings": [[3], [1], [2]], "weights": [0.5, 0.3, 0.2]}], (0.3, 0.2, 0.5)),
            ([{"strings": [[1], [3]], "weights": [0.6, 0.4]}], (1 / 3,) * 3),
            ([{"strings": [[1], [2], [3, 1]], "weights": [0.2, 0.3, 0.5]}], (1 / 3,) * 3),
            (
                [
                    {"strings": [[1], [2], [3]], "weights": [0.2, 0.3, 0.5]},
                    {"strings": [[1, 2, 3]], "weights": [1.0]},
                ],
                (1 / 3,) * 3,
            ),
        ],
        ids=["fit_out_of_order", "unfit", "fit_with_a_longer_string", "two_plans"],
    )
    def test_plan_weights_match_the_coverage_rule(self, cycle, expected):
        # the rule before is_fit: one cycle plan of length-1 strings covering every set
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["problem"]["sets"] = [*SETS, {"kind": "box", "lo": [-1.0], "hi": [1.0]}]
        doc["schedule"]["cycle"] = cycle
        config = parse_config(doc)
        plan = config.schedule.cycle[0]
        old = config.problem.equal_weights()
        if len(cycle) == 1 and all(len(s) == 1 for s in plan.strings):
            if sorted(s[0] for s in plan.strings) == [1, 2, 3]:
                by_index = {s[0]: w for s, w in zip(plan.strings, plan.weights)}
                old = tuple(by_index[i] for i in (1, 2, 3))
        assert config.plan_weights() == old == expected

    def test_missing_field_raises_config_error(self):
        doc = json.loads(json.dumps(CONFIG_DOC))
        del doc["relaxation"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_invalid_operator_raises_config_error(self):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["problem"]["sets"][0] = {"kind": "box", "lo": [1.0], "hi": [0.0]}
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_perturbation_and_superiorization_exclusive(self):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["perturbation"] = {"beta0": 0.5, "decay": 0.9}
        doc["superiorization"] = {"objective": {"kind": "l1"}}
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_objective_dimension_checked(self):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["superiorization"] = {
            "objective": {"kind": "wsqnorm", "center": [0.0, 0.0], "weight": 1.0}
        }
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_include_resolution(self, tmp_path):
        (tmp_path / "problem.json").write_text(json.dumps(CONFIG_DOC["problem"]))
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["problem"] = {"include": "problem.json"}
        (tmp_path / "config.json").write_text(json.dumps(doc))
        config = load_config(tmp_path / "config.json")
        assert config.problem.m == 2

    def test_include_cycle_raises_config_error(self, tmp_path):
        (tmp_path / "b.json").write_text(json.dumps({"dim": 1, "sets": [{"include": "b.json"}]}))
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["problem"] = {"include": "b.json"}
        with pytest.raises(ConfigError, match="includes itself"):
            parse_config(doc, tmp_path)

    def test_resolved_config_never_aliases_the_callers_document(self, tmp_path):
        (tmp_path / "problem.json").write_text(json.dumps(CONFIG_DOC["problem"]))
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["perturbation"] = {"directions": [[1.0], [-1.0]]}
        doc["superiorization_note"] = {"tags": ["a", None, True, 1, 2.5, []]}  # unknown key, kept in raw
        original = json.loads(json.dumps(doc))
        raw = parse_config(doc).raw
        assert raw == original and harness.config_hash(raw) == harness.config_hash(original)

        def containers(node):
            if isinstance(node, dict):
                yield node
                for v in node.values():
                    yield from containers(v)
            elif isinstance(node, list):
                yield node
                for v in node:
                    yield from containers(v)

        assert not {id(c) for c in containers(raw)} & {id(c) for c in containers(doc)}
        raw["x0"][0] = 0.0
        raw["perturbation"]["directions"][0][0] = 0.0
        assert doc == original
        doc["problem"] = {"include": "problem.json"}
        included = parse_config(doc, tmp_path).raw
        assert included["problem"] == CONFIG_DOC["problem"] and included["x0"] is not doc["x0"]

    def test_json_nested_past_the_recursion_limit_raises_config_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(path)

    def test_missing_include_raises(self, tmp_path):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["problem"] = {"include": "nope.json"}
        (tmp_path / "config.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(tmp_path / "config.json")

    @pytest.mark.parametrize(
        "extra, expected",
        [
            (  # only the required keys: every value is its dataclass default
                {},
                dict(
                    seed=0,
                    relax=RelaxationSchedule(constant=1.0),
                    tolerances=Tolerances(),
                    stop=StopRule(step_tol=Tolerances().conv_tol),
                    perturb=PerturbationSchedule(seed=0),
                    sup=SuperiorizationSchedule(),
                ),
            ),
            (  # the perturbation seed and the stop tolerance follow the documented keys
                {"seed": 17, "tolerances": {"conv_tol": 1e-6}},
                dict(
                    seed=17,
                    relax=RelaxationSchedule(constant=1.0),
                    tolerances=Tolerances(conv_tol=1e-6),
                    stop=StopRule(step_tol=1e-6),
                    perturb=PerturbationSchedule(seed=17),
                    sup=SuperiorizationSchedule(),
                ),
            ),
            (  # every documented key set
                {
                    "relaxation": {"epsilon": 0.1, "base": 0.9, "slope": 0.5},
                    "seed": 17,
                    "stop": {"step_tol": 1e-6, "window": 5, "max_iters": 500},
                    "tolerances": {
                        "eq_tol": 1e-9,
                        "conv_tol": 1e-7,
                        "slack_tol": 1e-11,
                        "subgrad_zero_tol": 1e-13,
                    },
                    "perturbation": {"beta0": 0.25, "decay": 0.8, "seed": 5, "directions": [[1.0]]},
                    "superiorization": {
                        "objective": {"kind": "l1"},
                        "beta0": 0.3,
                        "decay": 0.7,
                        "steps": 3,
                    },
                },
                dict(
                    seed=17,
                    relax=RelaxationSchedule(epsilon=0.1, base=0.9, slope=0.5),
                    tolerances=Tolerances(1e-9, 1e-7, 1e-11, 1e-13),
                    stop=StopRule(step_tol=1e-6, window=5, max_iters=500),
                    perturb=PerturbationSchedule(0.25, 0.8, 5, directions=(np.array([1.0]),)),
                    sup=SuperiorizationSchedule(beta0=0.3, decay=0.7, steps=3),
                ),
            ),
        ],
        ids=["required-keys", "seed-and-conv-tol", "every-key"],
    )
    def test_parsed_values(self, extra, expected):
        doc = {
            "problem": CONFIG_DOC["problem"],
            "schedule": CONFIG_DOC["schedule"],
            "relaxation": {"constant": 1.0},
            "x0": [7.3],
            "perturbation": {},
            "superiorization": {"objective": {"kind": "l1"}},
            **extra,
        }
        perturbed = parse_config({k: v for k, v in doc.items() if k != "superiorization"})
        superiorized = parse_config({k: v for k, v in doc.items() if k != "perturbation"})
        for config in (perturbed, superiorized):
            assert config.seed == expected["seed"]
            assert config.relax == expected["relax"]
            assert config.tolerances == expected["tolerances"]
            assert config.stop == expected["stop"]
        assert perturbed.perturb == expected["perturb"]
        assert perturbed.sup is None and superiorized.perturb is None
        assert superiorized.sup == expected["sup"]
        assert isinstance(superiorized.objective, L1Norm)

    @pytest.mark.parametrize("key", ["relaxation", "stop", "tolerances", "perturbation", "superiorization"])
    @pytest.mark.parametrize("block", [None, [], 3])
    def test_non_object_block_raises_config_error(self, key, block):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc[key] = block
        with pytest.raises(ConfigError):
            parse_config(doc)

    @pytest.mark.parametrize(
        "relaxation, expected",
        [
            ({"constant": 1.5}, RelaxationSchedule(constant=1.5)),
            ({"cycle": [1, 0.5]}, RelaxationSchedule(cycle=(1.0, 0.5))),
            ({"base": 1}, RelaxationSchedule(base=1.0, slope=0.0)),
            ({"constant": 1.0, "slope": 3.0}, RelaxationSchedule(constant=1.0)),
            ({"constant": 1.0, "lam": 3.0}, RelaxationSchedule(constant=1.0)),
        ],
        ids=["constant", "cycle", "base-without-slope", "slope-without-base", "unknown-key"],
    )
    def test_relaxation_block(self, relaxation, expected):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["relaxation"] = relaxation
        relax = parse_config(doc).relax
        assert relax == expected
        assert all(type(getattr(relax, f)) in (float, type(None)) for f in ("constant", "base", "slope"))

    def test_config_hash_is_stable(self):
        c1 = parse_config(json.loads(json.dumps(CONFIG_DOC)))
        c2 = parse_config(json.loads(json.dumps(CONFIG_DOC)))
        assert c1.hash == c2.hash


def reference_trace_csv(trace, fejer_slack_min=None) -> bytes:
    """The per-value trace writer that write_trace_csv must match byte for byte."""

    def fmt(v) -> str:
        return format(float(v), ".17g")

    superiorized = trace.phi_values is not None
    dim = trace.iterates.shape[-1]
    header = ["k"] + [f"x{i}" for i in range(dim)]
    header += ["step_norm", "lambda", "plan_signature", "perturb_norm", "fejer_slack_min"]
    if superiorized:
        header += ["phi_value", "perturb_l1_budget_remaining"]
    lines = [",".join(header)]
    n = trace.iterations
    for k in range(n + 1):
        row = [str(k)] + [fmt(v) for v in trace.iterates[k]]
        if k < n:
            p = trace.perturbations[k] if trace.perturbations is not None else 0.0
            row += [
                fmt(trace.step_norms[k]),
                fmt(trace.lambdas[k]),
                signature_str(trace.plan_signatures[k]),
                fmt(p),
                fmt(fejer_slack_min[k]) if fejer_slack_min is not None else "",
            ]
        else:
            row += ["", "", "", "", ""]
        if superiorized:
            row.append(fmt(trace.phi_values[k]))
            row.append(fmt(trace.perturb_budget_remaining[k]) if k < n else "")
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")


# -0.0, the smallest subnormal and a huge value, each placed in some column 0
SPECIAL = np.array([-0.0, 5e-324, 1.5e300])


def mixed_trace(kind: str, dim: int):
    """A short run over a box, a ball and two half-spaces under three plans."""
    rng = np.random.default_rng(dim)
    sets = (
        BoxProjection(-np.ones(dim), np.ones(dim)),
        BallProjection(0.5 * np.ones(dim), 2.0),
        HalfspaceProjection(rng.standard_normal(dim), 0.3),
        HalfspaceProjection(rng.standard_normal(dim), 0.2),
    )
    cycle = (
        simultaneous_plan(4),
        StringPlan(((1,), (2,), (3,), (4,)), (0.1, 0.2, 0.3, 0.4)),
        StringPlan(((1, 2, 3, 4),), (1.0,)),
    )
    schedule = ControlSchedule(operators=sets, cycle=cycle)
    relax = RelaxationSchedule(epsilon=0.05, constant=0.9)
    stop = StopRule(step_tol=1e-300, window=1, max_iters=40)
    x0 = 6.0 * rng.standard_normal(dim)
    if kind == "superiorized":
        sup = SuperiorizationSchedule(beta0=1.0, decay=0.9, steps=2)
        return superiorized_run(schedule, relax, L1Norm(), sup, x0, stop=stop)
    perturb = PerturbationSchedule(beta0=0.5, decay=0.9, seed=3) if kind == "perturbed" else None
    return run(schedule, relax, x0, perturb=perturb, stop=stop)


def mixed_values(rng, *shape) -> np.ndarray:
    """Log-uniform magnitudes from 1e-14 to 1e17 of both signs, with zeros:
    every layout of the writer's number kernel, and cells that fall back."""
    values = np.exp(rng.uniform(np.log(1e-14), np.log(1e17), shape)) * rng.choice([-1.0, 1.0], shape)
    values.reshape(-1)[::11] = 0.0
    return values


def synthetic_trace(rows: int, kind: str, dim: int = 4) -> IterationTrace:
    """A trace of ``rows`` rows (rows - 1 steps) under two alternating plans."""
    rng = np.random.default_rng(rows)
    n = rows - 1
    plans = (simultaneous_plan(4).signature(), StringPlan(((1, 2, 3, 4),), (1.0,)).signature())
    iterates = mixed_values(rng, rows, dim)
    iterates[0, :3] = SPECIAL[: min(3, dim)]
    superiorized = kind == "superiorized"
    return IterationTrace(
        iterates=iterates,
        step_norms=np.abs(mixed_values(rng, n)),
        lambdas=rng.uniform(0.05, 1.95, n),
        plan_signatures=tuple(plans[k % 2] for k in range(n)),
        # the norms of n random shift vectors; zero steps give shape (0,)
        perturbations=None if kind == "plain" else norm(mixed_values(rng, n, dim)),
        converged=False,
        phi_values=np.abs(mixed_values(rng, rows)) if superiorized else None,
        perturb_budget_remaining=np.abs(mixed_values(rng, n)) if superiorized else None,
    )


def import_bench(name: str):
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(bench))


class TestTraceCsvBytes:
    @pytest.mark.parametrize("dim", [1, 3, 100])
    @pytest.mark.parametrize("fejer", [False, True], ids=["fejer_empty", "fejer_filled"])
    @pytest.mark.parametrize("kind", ["plain", "perturbed", "superiorized"])
    def test_matches_the_per_value_writer(self, tmp_path, kind, fejer, dim):
        trace = mixed_trace(kind, dim)
        assert trace.iterations >= 3
        iterates = trace.iterates.copy()
        iterates[:3] = np.resize(SPECIAL, (3, dim))
        trace = replace(trace, iterates=iterates)
        slacks = None
        if fejer:
            slacks = np.random.default_rng(1).standard_normal(trace.iterations)
            slacks[:3] = SPECIAL
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, fejer_slack_min=slacks)
        assert path.read_bytes() == reference_trace_csv(trace, slacks)

    # the writer formats blocks of 128 rows: the final row, whose step cells
    # are empty, falls on each side of a block edge
    @pytest.mark.parametrize("rows", [1, 127, 128, 129, 300], ids=["zero-step", "127", "128", "129", "300"])
    @pytest.mark.parametrize("fejer", [False, True], ids=["fejer_empty", "fejer_filled"])
    @pytest.mark.parametrize("kind", ["plain", "perturbed", "superiorized"])
    def test_block_edges(self, tmp_path, kind, fejer, rows):
        trace = synthetic_trace(rows, kind)
        slacks = mixed_values(np.random.default_rng(0), rows - 1) if fejer else None
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, fejer_slack_min=slacks)
        assert path.read_bytes() == reference_trace_csv(trace, slacks)

    @pytest.mark.parametrize(
        "column", ["lambdas", "plan_signatures", "phi_values", "perturb_budget_remaining", "phi_alone", "fejer"]
    )
    def test_a_column_of_another_length_is_refused(self, tmp_path, column):
        # the trace refuses its own columns as it is built, the writer its slack argument
        trace = synthetic_trace(10, "superiorized")
        slacks = np.zeros(trace.iterations + (column == "fejer"))
        with pytest.raises(ValueError):
            if column == "phi_alone":  # phi values without the budget column
                trace = replace(trace, perturb_budget_remaining=None)
            elif column != "fejer":
                trace = replace(trace, **{column: getattr(trace, column)[:-1]})
            write_trace_csv(trace, tmp_path / "trace.csv", fejer_slack_min=slacks)
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("seed", [1, 101])
    def test_benchmark_cli_config(self, tmp_path, seed):
        # the real superiorized traces: exponent-form cells and cells that fall back
        path = tmp_path / "config.json"
        path.write_text(json.dumps(import_bench("workloads").cli_config(seed)))
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        config = load_config(path)
        trace = superiorized_run(
            config.schedule, config.relax, config.objective, config.sup, config.x0,
            stop=config.stop, tolerances=config.tolerances,
        )
        assert (tmp_path / "out" / "trace.csv").read_bytes() == reference_trace_csv(trace)

    def test_benchmark_budget_column_is_exact(self):
        # beta0 = 1, decay = 0.995: after step k, decay^(k+1) / (1 - decay) remains; a
        # difference of two totals would lose 10 of the 17 digits by the last rows
        config = parse_config(import_bench("workloads").cli_config(1))
        trace = superiorized_run(
            config.schedule, config.relax, config.objective, config.sup, config.x0,
            stop=config.stop, tolerances=config.tolerances,
        )
        assert trace.iterations == 4060
        # the exact value as an unreduced ratio num / den, which spares a gcd per row
        base = Fraction(config.sup.beta0) / (1 - Fraction(config.sup.decay))
        num, den = base.numerator, base.denominator
        p, q = config.sup.decay.as_integer_ratio()
        tol = Fraction("4.5e-16")
        for remaining in trace.perturb_budget_remaining.tolist():
            num, den = num * p, den * q
            a, b = remaining.as_integer_ratio()
            # |a/b - num/den| <= tol * num/den
            assert abs(a * den - num * b) * tol.denominator <= tol.numerator * num * b

    @pytest.mark.parametrize("dim", [1, 3])
    def test_unperturbed_trace_writes_zero_shift_norms(self, tmp_path, dim):
        trace = mixed_trace("plain", dim)
        assert trace.perturbations is None
        zeros = replace(trace, perturbations=np.zeros(trace.iterations))
        write_trace_csv(trace, tmp_path / "none.csv")
        write_trace_csv(zeros, tmp_path / "zeros.csv")
        assert (tmp_path / "none.csv").read_bytes() == (tmp_path / "zeros.csv").read_bytes()


class TestPersistence:
    def test_csv_round_structure(self, tmp_path, interval_schedule, unit_relax, default_stop):
        trace = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["k", "x0", "step_norm", "lambda", "plan_signature", "perturb_norm", "fejer_slack_min"]
        assert len(lines) == trace.iterations + 2  # header + iterates
        # full 17-significant-digit rendering round-trips exactly
        assert float(lines[1].split(",")[1]) == trace.iterates[0][0]

    def test_csv_identical_bytes_for_identical_runs(self, tmp_path, interval_schedule, unit_relax, default_stop):
        t1 = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        t2 = run(interval_schedule, unit_relax, [7.3], stop=default_stop)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(t1, p1)
        write_trace_csv(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_summary_contents(self, tmp_path, interval_schedule, unit_relax, default_stop):
        config = parse_config(json.loads(json.dumps(CONFIG_DOC)))
        trace = run(config.schedule, config.relax, config.x0, stop=config.stop)
        doc = write_summary_json(tmp_path / "summary.json", config, trace, fejer_min_slack=0.0)
        assert set(doc) >= {"config_hash", "seed", "iters", "final_residuals", "fejer_min_slack", "phi_final"}
        assert doc["seed"] == 17
        assert max(doc["final_residuals"].values()) <= 1e-8
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == doc


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG_DOC))
    return path


class TestCli:
    def test_run_writes_outputs(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out), "--quiet"]) == 0
        assert (out / "trace.csv").exists() and (out / "summary.json").exists()

    def test_run_is_byte_deterministic(self, config_file, tmp_path):
        main(["run", str(config_file), "--out", str(tmp_path / "o1"), "--quiet"])
        main(["run", str(config_file), "--out", str(tmp_path / "o2"), "--quiet"])
        assert (tmp_path / "o1" / "trace.csv").read_bytes() == (tmp_path / "o2" / "trace.csv").read_bytes()

    PERTURBED_2D = {
        "problem": {"dim": 2, "sets": [
            {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            {"kind": "halfspace", "a": [1.0, 1.0], "b": 0.5},
        ]},
        "schedule": {"cycle": [{"strings": [[1], [2]], "weights": [0.5, 0.5]}]},
        "relaxation": {"epsilon": 0.05, "constant": 1.0},
        "perturbation": {"beta0": 0.5, "decay": 0.9},
        "seed": 3,
        "x0": [4.0, -2.5],
    }

    @pytest.mark.parametrize(
        "base, flags, stated",
        [
            ({}, ["--seed", "7"], {"seed": 7}),
            ({}, ["--seed", "8"], {"seed": 8}),
            ({"perturbation": {"beta0": 0.5, "seed": 5}}, ["--seed", "7"],
             {"seed": 7, "perturbation": {"beta0": 0.5, "seed": 7}}),
            ({}, ["--tol", "1e-4"], {"tolerances": {"conv_tol": 1e-4}, "stop": {"step_tol": 1e-4}}),
            ({}, ["--max-iters", "5"], {"stop": {"max_iters": 5}}),
        ],
        ids=["seed_7", "seed_8", "perturbation_seed", "tol", "max_iters"],
    )
    def test_an_override_flag_is_hashed_as_the_config_that_states_it(self, tmp_path, base, flags, stated):
        def run_doc(name, doc, *argv):
            path, out = tmp_path / f"{name}.json", tmp_path / name
            path.write_text(json.dumps(doc))
            assert main(["run", str(path), "--out", str(out), "--quiet", *argv]) == 0
            return json.loads((out / "summary.json").read_text()), (out / "trace.csv").read_bytes()

        doc = {**self.PERTURBED_2D, **base}
        stated_doc = {**doc, **stated}
        plain, flagged = run_doc("plain", doc), run_doc("flagged", doc, *flags)
        # the flag's run writes what a file stating its value writes, config_hash included
        assert flagged == run_doc("stated", stated_doc)
        assert flagged[0]["config_hash"] == harness.config_hash(stated_doc)
        assert flagged[0]["config_hash"] != plain[0]["config_hash"] and flagged[1] != plain[1]

    def test_verify_passes(self, config_file, capsys):
        assert main(["verify", str(config_file)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "cutter" in out

    def test_out_of_range_lambda_exits_2(self, config_file, tmp_path):
        doc = json.loads(config_file.read_text())
        doc["relaxation"]["constant"] = 2.0  # equals 1 + rho, outside the closed-minus-eps range
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad), "--quiet"]) == 2

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "malformed.json"
        bad.write_text("{not json")
        assert main(["run", str(bad), "--quiet"]) == 2
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"problem": CONFIG_DOC["problem"]}))
        assert main(["run", str(missing), "--quiet"]) == 2

    def test_nan_plan_weights_exit_2(self, config_file, tmp_path, capsys):
        doc = json.loads(config_file.read_text())
        doc["schedule"]["cycle"][0]["weights"] = [float("nan"), float("nan")]
        bad = tmp_path / "nan_weights.json"
        bad.write_text(json.dumps(doc))  # written as the JSON extension NaN
        assert main(["run", str(bad), "--quiet"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("stop.step_tol", float("nan")),
            ("stop.max_iters", float("inf")),
            ("tolerances.conv_tol", float("inf")),
            ("relaxation.constant", float("nan")),
            ("perturbation", {"beta0": float("nan")}),
            ("superiorization", {"objective": {"kind": "l1"}, "beta0": float("nan")}),
            ("superiorization", {"objective": {"kind": "wsqnorm", "center": [0.0], "weight": float("inf")}}),
            ("superiorization", {"objective": {"kind": "max_affine", "pieces": [{"a": [1.0], "b": float("nan")}]}}),
            # an extra set, outside every plan
            ("problem.sets", [*SETS, {"kind": "halfspace", "a": [1.0], "b": float("nan")}]),
            ("problem.sets", [*SETS, {"kind": "hyperplane", "a": [1.0], "b": float("inf")}]),
            ("problem.sets", [*SETS, {"kind": "ball", "center": [0.0], "radius": float("inf")}]),
        ],
        ids=[
            "step_tol", "max_iters", "conv_tol", "lam", "perturbation_beta0", "superiorization_beta0",
            "wsqnorm_weight", "max_affine_offset", "halfspace_b", "hyperplane_b", "ball_radius",
        ],
    )
    def test_non_finite_number_exits_2(self, config_file, tmp_path, command, key, value, capsys):
        doc = json.loads(config_file.read_text())
        *path, last = key.split(".")
        node = doc
        for part in path:
            node = node.setdefault(part, {})
        node[last] = value
        bad = tmp_path / "non_finite.json"
        bad.write_text(json.dumps(doc))  # written as the JSON extensions NaN and Infinity
        assert main([command, str(bad), "--quiet"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_objective_exits_1(self, tmp_path, capsys):
        # a valid config whose objective overflows at x0: a failed run, not a malformed config
        doc = {
            "problem": {"dim": 2, "sets": [{"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}]},
            "schedule": {"cycle": [{"strings": [[1]], "weights": [1.0]}]},
            "relaxation": {"epsilon": 0.05, "constant": 1.0},
            "superiorization": {"objective": {"kind": "wsqnorm", "center": [0.0, 0.0], "weight": 1e300}},
            "x0": [1e10, 1e10],
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        parse_config(doc)  # the config itself is well formed
        with np.errstate(over="ignore"):
            assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_oracle_emits_feasible_point_for_consistent_problem(self, tmp_path, capsys):
        doc = {
            "problem": {
                "dim": 2,
                "sets": [
                    {"kind": "ball", "center": [-1.0, 0.0], "radius": 1.4142135623730951},
                    {"kind": "ball", "center": [1.0, 0.0], "radius": 1.4142135623730951},
                ],
            },
            "schedule": {"cycle": [{"strings": [[1], [2]], "weights": [0.5, 0.5]}]},
            "relaxation": {"epsilon": 0.05, "constant": 1.0},
            "x0": [3.0, 3.0],
        }
        path = tmp_path / "consistent.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert max(out["set_residuals_at_argmin"]) <= DEFAULT_TOLERANCES.eq_tol

    def test_oracle_reports_constrained_min(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["superiorization"] = {"objective": {"kind": "wsqnorm", "center": [0.0], "weight": 1.0}}
        path = tmp_path / "sup.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["constrained_min"][0]) <= 1e-6

    def test_oracle_on_a_reflection_exits_1_at_once(self, tmp_path, capsys):
        doc = {
            "problem": {
                "dim": 1,
                "sets": [
                    {"kind": "relaxation", "lam": 2.0, "inner": {"kind": "hyperplane", "a": [1.0], "b": 0.0}}
                ],
            },
            "schedule": {"cycle": [{"strings": [[1]], "weights": [1.0]}]},
            "relaxation": {"epsilon": 0.05, "constant": 0.9},
            "x0": [1.0],
        }
        path = tmp_path / "reflection.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["oracle", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert "alpha" in capsys.readouterr().err

    def test_sweep_runs_each_value(self, config_file, capsys):
        assert main(["sweep", str(config_file), "--param", "relaxation.constant", "--values", "0.5,1.0,1.5"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 4

    def test_sweep_bad_path_exits_2(self, config_file):
        assert main(["sweep", str(config_file), "--param", "no.such.key", "--values", "1"]) == 2

    def test_sweep_path_through_a_non_object_exits_2(self, config_file, capsys):
        assert main(["sweep", str(config_file), "--param", "seed.value", "--values", "1"]) == 2
        assert "sweep path 'seed.value' not found" in capsys.readouterr().err

    def test_sweep_bare_word_reaches_the_parser_as_a_string(self, config_file, capsys):
        assert main(["sweep", str(config_file), "--param", "relaxation.constant", "--values", "fast"]) == 2
        assert "expected a number, got 'fast'" in capsys.readouterr().err

    def test_sweep_out_writes_each_run_and_prints_the_same_table(self, config_file, tmp_path, capsys):
        argv = ["sweep", str(config_file), "--param", "relaxation.constant", "--values", "0.5,1.0"]
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert main([*argv, "--out", str(tmp_path / "sweep")]) == 0
        assert capsys.readouterr().out == table
        for i in range(2):
            run_dir = tmp_path / "sweep" / f"sweep_{i}"
            assert (run_dir / "trace.csv").stat().st_size > 0
            assert json.loads((run_dir / "summary.json").read_text())["iters"] > 0

    def test_run_prints_its_two_progress_lines(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / 'trace.csv'} and {out / 'summary.json'}",
            f"iters={summary['iters']} converged={summary['converged']} final_x={summary['final_x']}",
        ]

    def test_oracle_uses_equal_weights_when_the_first_plan_is_not_simultaneous(self, tmp_path, capsys):
        # the string (1, 2) names no per-set weights; equal weights put the argmin at 0
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["schedule"]["cycle"] = [{"strings": [[1, 2]], "weights": [1.0]}]
        path = tmp_path / "string.json"
        path.write_text(json.dumps(doc))
        assert load_config(path).plan_weights() == (0.5, 0.5)
        assert main(["oracle", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["proximity_argmin"][0]) <= 1e-6
        assert out["proximity_min_value"] == pytest.approx(0.5)

    def test_max_affine_objective_of_another_dimension_exits_2(self, config_file, tmp_path, capsys):
        doc = json.loads(config_file.read_text())
        doc["superiorization"] = {"objective": {"kind": "max_affine", "pieces": [{"a": [1.0, 0.0], "b": 0.0}]}}
        path = tmp_path / "max_affine.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "objective dimension 2 differs from problem dimension 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize(
        "bad_set",
        [
            {"kind": "box", "lo": [-3.0], "hi": [-1.0], "alpha": float("nan")},
            {"kind": "box", "lo": [-3.0], "hi": [-1.0], "alpha": 0.0},
            {"kind": "box", "lo": [-3.0], "hi": [-1.0], "alpha": 2.5},
            {
                "kind": "relaxation",
                "lam": 1.5,
                "inner": {"kind": "relaxation", "lam": 1.5, "inner": {"kind": "box", "lo": [-3.0], "hi": [-1.0]}},
            },
        ],
        ids=["alpha_nan", "alpha_0", "alpha_2.5", "nested_past_2"],
    )
    def test_bad_alpha_outside_the_schedule_operators_exits_2(self, tmp_path, command, bad_set, capsys):
        # no run reaches the third set: schedule.operators names the two boxes
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["problem"]["sets"] = [*SETS, bad_set]
        doc["schedule"]["operators"] = SETS
        path = tmp_path / "bad_alpha.json"
        path.write_text(json.dumps(doc))  # NaN is written as the JSON extension NaN
        assert main([command, str(path), "--quiet"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_include_cycle_exits_2(self, tmp_path, command, capsys):
        (tmp_path / "b.json").write_text(json.dumps({"dim": 1, "sets": [{"include": "b.json"}]}))
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["problem"] = {"include": "b.json"}
        path = tmp_path / "a.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "--quiet"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--seed", "1"],
            ["oracle", "--out", "d"],
            ["oracle", "--max-iters", "10"],
            ["oracle", "--quiet"],
            ["verify", "--out", "d"],
        ],
        ids=["oracle_seed", "oracle_out", "oracle_max_iters", "oracle_quiet", "verify_out"],
    )
    def test_a_flag_the_subcommand_does_not_read_is_refused(self, config_file, argv, capsys):
        command, *flags = argv
        with pytest.raises(SystemExit) as exc:
            main([command, str(config_file), *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_verify_fails_on_false_alpha_declaration(self, tmp_path, capsys):
        # a reflection wrongly declared firmly nonexpansive must be caught
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["schedule"]["operators"] = [
            {
                "kind": "relaxation",
                "lam": 2.0,
                "inner": {"kind": "box", "lo": [-3.0], "hi": [-1.0]},
                "alpha": 1.0,
            },
            {"kind": "box", "lo": [1.0], "hi": [3.0]},
        ]
        doc["relaxation"]["constant"] = 0.9  # keep the schedule in range for rho=1
        path = tmp_path / "lying.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_fails_on_inadmissible_schedule(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["schedule"]["preamble"] = [{"strings": [[1, 2]], "weights": [1.0]}]
        path = tmp_path / "inadmissible.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        assert "limsup-admissible" in capsys.readouterr().out

    def test_verify_reports_a_set_that_is_not_idempotent(self, tmp_path, capsys):
        # a half-relaxed projection is a valid operator, but its images are not fixed points
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["problem"]["sets"][0] = {
            "kind": "relaxation",
            "lam": 0.5,
            "inner": {"kind": "box", "lo": [-3.0], "hi": [-1.0]},
        }
        path = tmp_path / "relaxed_set.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] set 1: cutter  witness point is not fixed" in out
        assert "[ok  ] set 2: cutter" in out and "fejer monitor" in out

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("schedule.cycle.0.strings", [[1.7], [2.2]]),
            ("problem.dim", 1.5),
            ("problem.sets", [*SETS, {"kind": "identity", "dim": 1.5}]),
            ("seed", 3.9),
            ("perturbation", {"seed": 3.9}),
            ("stop.window", 2.5),
            ("stop.max_iters", 100.9),
            ("superiorization", {"objective": {"kind": "l1"}, "steps": 1.5}),
            # a JSON boolean or a numeric string is no integer either
            ("schedule.cycle.0.strings", [[True], [2]]),
            ("schedule.cycle.0.strings", [["1"], [2]]),
            ("problem.dim", True),
            ("problem.dim", "1"),
            ("problem.sets", [*SETS, {"kind": "identity", "dim": True}]),
            ("problem.sets", [*SETS, {"kind": "identity", "dim": "1"}]),
            ("seed", True),
            ("seed", "1"),
            ("perturbation", {"seed": True}),
            ("perturbation", {"seed": "1"}),
            ("stop.window", True),
            ("stop.window", "2"),
            ("stop.max_iters", True),
            ("stop.max_iters", "5"),
            ("superiorization", {"objective": {"kind": "l1"}, "steps": True}),
            ("superiorization", {"objective": {"kind": "l1"}, "steps": "1"}),
        ],
        ids=["string_index", "problem_dim", "identity_dim", "seed", "perturbation_seed", "window",
             "max_iters", "superiorization_steps",
             "string_index_true", "string_index_string", "problem_dim_true", "problem_dim_string",
             "identity_dim_true", "identity_dim_string", "seed_true", "seed_string",
             "perturbation_seed_true", "perturbation_seed_string", "window_true", "window_string",
             "max_iters_true", "max_iters_string", "superiorization_steps_true", "superiorization_steps_string"],
    )
    def test_fractional_integer_exits_2(self, config_file, tmp_path, command, key, value, capsys):
        doc = json.loads(config_file.read_text())
        *path, last = key.split(".")
        node = doc
        for part in path:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[last] = value
        bad = tmp_path / "fractional.json"
        bad.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(bad), "--quiet", *out]) == 2
        assert "error: expected an integer, got " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [{"consistent": True, "known_points": [[5.0]]}, {"consistent": "no", "known_points": [[0.0]]}],
        ids=["outside_point", "string_flag"],
    )
    def test_consistency_keys_are_ignored(self, config_file, tmp_path, extra):
        doc = json.loads(config_file.read_text())
        doc["problem"].update(extra)
        flagged = tmp_path / "flagged.json"
        flagged.write_text(json.dumps(doc))
        assert main(["verify", str(flagged)]) == 0
        outputs = []
        for path, out in [(config_file, tmp_path / "plain"), (flagged, tmp_path / "flagged")]:
            assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary.pop("config_hash") == harness.config_hash(json.loads(path.read_text()))
            outputs.append(((out / "trace.csv").read_bytes(), summary))
        assert outputs[0] == outputs[1]

    def test_integral_floats_are_accepted_as_integers(self):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["schedule"]["cycle"][0]["strings"] = [[1.0], [2.0]]
        doc.update(seed=3.0, stop={"window": 2.0, "max_iters": 100000.0})
        config = parse_config(doc)
        assert config.schedule.cycle[0].strings[1] == (2,)
        assert (config.seed, config.stop.window, config.stop.max_iters) == (3, 2, 100000)
        assert type(config.stop.max_iters) is int

    @pytest.mark.parametrize("slot", NUMBER_SLOTS.values(), ids=NUMBER_SLOTS.keys())
    def test_a_string_or_boolean_number_exits_2(self, tmp_path, slot, capsys):
        key, good, place = slot
        parse_config(with_key(CONFIG_DOC, key, place(good)))  # the slot holds a valid value
        for value in (repr(good), True, False):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(with_key(CONFIG_DOC, key, place(value))))
            for command in (["run", "--out", str(tmp_path / "out")], ["verify"]):
                assert main([command[0], str(bad), "--quiet", *command[1:]]) == 2
                assert f"error: expected a number, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_a_boolean_among_floats_exits_2(self, tmp_path, command, capsys):
        # numpy would read [4.0, true] as [4.0, 1.0]
        doc = {
            "problem": {"dim": 2, "sets": [{"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}]},
            "schedule": {"cycle": [{"strings": [[1]], "weights": [1.0]}]},
            "relaxation": {"constant": 1.0},
            "x0": [4.0, True],
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path), "--quiet", *out]) == 2
        assert "error: expected a number, got True" in capsys.readouterr().err

    def test_an_int_in_a_float_key_parses(self, tmp_path):
        ints = json.loads(json.dumps(CONFIG_DOC))
        ints["problem"]["sets"] = [{"kind": "box", "lo": [-3], "hi": [-1]}, {"kind": "box", "lo": [1], "hi": [3]}]
        ints.update(x0=[7], relaxation={"epsilon": 0.05, "cycle": [1, 1]})
        ints["stop"]["step_tol"] = 1
        floats = json.loads(json.dumps(CONFIG_DOC))
        floats.update(x0=[7.0], relaxation={"epsilon": 0.05, "cycle": [1.0, 1.0]})
        floats["stop"]["step_tol"] = 1.0
        traces = []
        for name, doc in (("ints", ints), ("floats", floats)):
            config = parse_config(doc)
            assert config.x0.dtype == np.float64 and type(config.stop.step_tol) is float
            assert config.relax.cycle == (1.0, 1.0) and type(config.relax.cycle[0]) is float
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            assert main(["run", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name), "--quiet"]) == 0
            traces.append((tmp_path / name / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    @pytest.mark.parametrize(
        "extra, argv",
        [
            ({"seed": -1}, ["run"]),
            ({"seed": -1}, ["verify"]),
            ({"seed": -1}, ["oracle"]),
            ({"perturbation": {"seed": -1}}, ["run"]),
            ({"perturbation": {"seed": -1}}, ["verify"]),
            ({"perturbation": {"seed": -1}}, ["oracle"]),
            ({}, ["run", "--seed", "-1"]),
            ({}, ["verify", "--seed", "-1"]),
            ({}, ["sweep", "--param", "seed", "--values", "-1"]),
        ],
        ids=["seed_run", "seed_verify", "seed_oracle", "perturbation_seed_run", "perturbation_seed_verify",
             "perturbation_seed_oracle", "flag_run", "flag_verify", "sweep"],
    )
    def test_a_negative_seed_exits_2(self, tmp_path, extra, argv, capsys):
        path = tmp_path / "negative_seed.json"
        path.write_text(json.dumps({**CONFIG_DOC, **extra}))
        command, *flags = argv
        assert main([command, str(path), *flags]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "verify", "oracle"])
    def test_a_direction_of_another_dimension_exits_2(self, tmp_path, command, capsys):
        # R^2 with a one-entry direction: the run used to broadcast it over
        # both coordinates and fail only when writing trace.csv
        doc = {
            "problem": {"dim": 2, "sets": [
                {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                {"kind": "halfspace", "a": [1.0, 1.0], "b": 0.5},
            ]},
            "schedule": {"cycle": [{"strings": [[1], [2]], "weights": [0.5, 0.5]}]},
            "relaxation": {"epsilon": 0.05, "constant": 1.0},
            "x0": [4.0, -2.5],
            "perturbation": {"directions": [[1.0]]},
        }
        path = tmp_path / "short_direction.json"
        path.write_text(json.dumps(doc))
        flags = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path), *flags]) == 2
        assert "perturbation direction dimension 1 differs from problem dimension 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match="direction dimension 3 differs"):
            parse_config(with_key(doc, "perturbation.directions", [[1.0, 0.0, 0.0]]))
        doc["perturbation"]["directions"] = [[1.0, 0.0], [0.0, -1.0]]
        assert len(parse_config(doc).perturb.directions) == 2

    @pytest.mark.parametrize("command", ["run", "verify", "oracle"])
    def test_schedule_operators_of_another_dimension_exit_2(self, tmp_path, command, capsys):
        # R^3 operators on an R^2 problem: unchecked, verify would print its
        # checks and fail mid-run, run and oracle only once the iteration trips
        doc = {
            "problem": {"dim": 2, "sets": [
                {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                {"kind": "halfspace", "a": [1.0, 1.0], "b": 0.5},
            ]},
            "schedule": {
                "operators": [
                    {"kind": "box", "lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
                    {"kind": "halfspace", "a": [1.0, 1.0, 1.0], "b": 0.5},
                ],
                "cycle": [{"strings": [[1], [2]], "weights": [0.5, 0.5]}],
            },
            "relaxation": {"epsilon": 0.05, "constant": 1.0},
            "x0": [4.0, -2.5],
        }
        path = tmp_path / "wide_operators.json"
        path.write_text(json.dumps(doc))
        flags = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "schedule operator dimension 3 differs from problem dimension 2" in err
        assert not (tmp_path / "out").exists()
        del doc["schedule"]["operators"]
        assert parse_config(doc).schedule.dim == 2

    def test_each_seed_holder_refuses_a_negative_seed(self):
        config = parse_config(json.loads(json.dumps(CONFIG_DOC)))
        for make in (
            lambda: replace(config, seed=-1),
            lambda: PerturbationSchedule(seed=-1),
            lambda: SampleSpec(dim=1, seed=-1),
        ):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                make()

    def test_oracle_above_dimension_3_exits_2(self, tmp_path, capsys):
        doc = {
            "problem": {"dim": 4, "sets": [{"kind": "box", "lo": [-1.0] * 4, "hi": [1.0] * 4}]},
            "schedule": {"cycle": [{"strings": [[1]], "weights": [1.0]}]},
            "relaxation": {"epsilon": 0.05, "constant": 1.0},
            "x0": [2.0] * 4,
        }
        path = tmp_path / "dim4.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 2
        assert "oracle restricted to dimension <= 3" in capsys.readouterr().err

    def test_max_iters_override_stops_the_run(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out), "--max-iters", "3", "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iters"] == 3 and summary["converged"] is False
        assert len((out / "trace.csv").read_text().splitlines()) == 3 + 2  # header + 4 iterates

    @pytest.mark.parametrize(
        "override",
        [["--max-iters", "0"], ["--tol", "1e-11"]],  # the tol would fall below eq_tol 1e-10
        ids=["max_iters_0", "tol_below_eq_tol"],
    )
    def test_invalid_override_exits_2(self, config_file, tmp_path, override):
        assert main(["run", str(config_file), "--out", str(tmp_path / "out"), "--quiet", *override]) == 2
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_perturbed_run(self, tmp_path):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["perturbation"] = {"beta0": 0.5, "decay": 0.9}
        doc["x0"] = [40.0]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        main(["run", str(path), "--out", str(tmp_path / "s1"), "--seed", "1", "--quiet"])
        main(["run", str(path), "--out", str(tmp_path / "s2"), "--seed", "2", "--quiet"])
        main(["run", str(path), "--out", str(tmp_path / "s1b"), "--seed", "1", "--quiet"])
        b1 = (tmp_path / "s1" / "trace.csv").read_bytes()
        b2 = (tmp_path / "s2" / "trace.csv").read_bytes()
        b1b = (tmp_path / "s1b" / "trace.csv").read_bytes()
        assert b1 == b1b and b1 != b2

    def test_superiorized_run_csv_has_phi_columns(self, tmp_path):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["superiorization"] = {"objective": {"kind": "wsqnorm", "center": [0.0], "weight": 1.0}}
        path = tmp_path / "sup.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        header = (out / "trace.csv").read_text().split("\n")[0]
        assert "phi_value" in header and "perturb_l1_budget_remaining" in header
        summary = json.loads((out / "summary.json").read_text())
        assert summary["phi_final"] is not None


class TestRandomSampleOptimality:
    def test_limit_beats_random_points_in_proximity(self, two_interval, two_ball, unit_relax, default_stop):
        rng = np.random.default_rng(99)
        for problem, x0 in ((two_interval, [7.3]), (two_ball, [3.0, 4.0])):
            schedule = simultaneous_schedule(problem)
            trace = run(schedule, unit_relax, x0, stop=default_stop)
            weights = problem.equal_weights()
            f_limit = proximity_value(problem, weights, trace.final)
            samples = rng.uniform(-5, 5, size=(1000, problem.dim))
            f_samples = proximity_value(problem, weights, samples)
            assert np.all(f_limit <= f_samples + DEFAULT_TOLERANCES.slack_tol)
