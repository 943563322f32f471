"""Every input check that rejects a malformed value, one case per ``raise``.

Each case names the call, the exception type it must raise and a fragment of
that raise's own message.  The message pins the case to its statement: with
the check gone, the call either succeeds or fails later with another message,
so the case fails.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from gdsa.core import DimensionMismatchError, SampleSpec, as_vector
from gdsa.engine import IterationTrace, PerturbationSchedule, RelaxationRangeError, RelaxationSchedule, StopRule
from gdsa.harness import (
    ConfigError,
    GridSpec,
    ProblemInstance,
    _parse_objective,
    _parse_plan,
    constrained_min_oracle,
    operator_from_json,
    parse_config,
)
from gdsa.operators import (
    AlphaUnknownError,
    BoxProjection,
    Composition,
    ConvexCombination,
    FixedPointWitness,
    Identity,
    Operator,
    propagate_alpha,
)
from gdsa.strings import ControlSchedule, StringPlan, simultaneous_plan, string_operator
from gdsa.superiorize import (
    L1Norm,
    MaxOfAffine,
    SuperiorizationSchedule,
    WeightedSquaredNorm,
    strict_fejer_monitor,
)

UNIT_BOX = BoxProjection([0.0], [1.0])
UNIT_SQUARE = BoxProjection([0.0, 0.0], [1.0, 1.0])


def config(**blocks) -> dict:
    """A valid one-set config with some blocks replaced."""
    doc = {
        "problem": {"dim": 1, "sets": [{"kind": "box", "lo": [0.0], "hi": [1.0]}]},
        "schedule": {"cycle": [{"strings": [[1]], "weights": [1.0]}]},
        "relaxation": {"constant": 1.0},
        "x0": [2.0],
    }
    return {**doc, **blocks}


def trace(steps: int) -> IterationTrace:
    return IterationTrace(
        iterates=np.zeros((steps + 1, 1)),
        step_norms=np.zeros(steps),
        lambdas=np.ones(steps),
        plan_signatures=((),) * steps,
        perturbations=None,
        converged=False,
    )


def superiorized_config():
    return parse_config(config(superiorization={"objective": {"kind": "l1"}}))


class _Unknown(Operator):
    dim = 1


CASES = {
    "as_vector shape": (lambda: as_vector([[1.0, 2.0]]), ValueError, "expected a 1-D vector"),
    "as_vector dimension": (lambda: as_vector([1.0], dim=2), DimensionMismatchError, "expected dimension 2"),
    "SampleSpec dim": (lambda: SampleSpec(dim=0), ValueError, "dim must be >= 1"),
    "SampleSpec count": (lambda: SampleSpec(dim=1, count=0), ValueError, "count must be >= 1"),
    "SampleSpec low < high": (lambda: SampleSpec(dim=1, low=1.0, high=1.0), ValueError, "low < high"),
    "RelaxationSchedule epsilon": (
        lambda: RelaxationSchedule(epsilon=0.0, constant=1.0), ValueError, "epsilon must lie"),
    "RelaxationSchedule without a kind": (
        lambda: RelaxationSchedule(), ValueError, "specify exactly one of constant, cycle, or base\\(\\+slope\\)"),
    "RelaxationSchedule empty cycle": (
        lambda: RelaxationSchedule(cycle=()), ValueError, "cyclic relaxation schedule must be nonempty"),
    "RelaxationSchedule.validate empty range": (
        lambda: RelaxationSchedule(epsilon=1.0, constant=1.0).validate(0.5),
        RelaxationRangeError, "empty relaxation range"),
    "PerturbationSchedule decay": (lambda: PerturbationSchedule(decay=1.0), ValueError, "decay must lie"),
    "PerturbationSchedule empty directions": (
        lambda: PerturbationSchedule(directions=()), ValueError, "direction list must be nonempty"),
    "IterationTrace length mismatch": (
        lambda: IterationTrace(np.zeros((3, 1)), np.zeros(1), np.ones(1), ((),), None, False),
        ValueError, "iterations \\+ 1 iterates"),
    "IterationTrace lambdas per step": (
        lambda: IterationTrace(np.zeros((3, 1)), np.zeros(2), np.ones(1), ((),) * 2, None, False),
        ValueError, "one lambda and one plan signature per step, 2 each"),
    "IterationTrace plan signatures per step": (
        lambda: IterationTrace(np.zeros((3, 1)), np.zeros(2), np.ones(2), ((),), None, False),
        ValueError, "one lambda and one plan signature per step, 2 each"),
    "IterationTrace phi values without budget": (
        lambda: IterationTrace(np.zeros((3, 1)), np.zeros(2), np.ones(2), ((),) * 2, None, False, np.zeros(3)),
        ValueError, "phi_values and perturb_budget_remaining are set together or not at all"),
    "IterationTrace phi values per iterate": (
        lambda: IterationTrace(
            np.zeros((3, 1)), np.zeros(2), np.ones(2), ((),) * 2, None, False, np.zeros(2), np.zeros(2)),
        ValueError, "a superiorized trace holds 3 phi values and 2 budget values"),
    "IterationTrace shift vectors": (
        lambda: IterationTrace(np.zeros((3, 2)), np.zeros(2), np.ones(2), ((),) * 2, np.zeros((2, 2)), False),
        ValueError, "one shift norm per step, shape \\(2,\\)"),
    "IterationTrace negative shift norm": (
        lambda: IterationTrace(np.zeros((3, 1)), np.zeros(2), np.ones(2), ((),) * 2, np.array([0.5, -0.1]), False),
        ValueError, "perturbation norms must be finite and nonnegative"),
    "IterationTrace non-finite shift norm": (
        lambda: IterationTrace(np.zeros((3, 1)), np.zeros(2), np.ones(2), ((),) * 2, np.array([0.5, np.nan]), False),
        ValueError, "perturbation norms must be finite and nonnegative"),
    "StopRule window": (lambda: StopRule(window=0), ValueError, "invalid stopping rule parameters"),
    "ProblemInstance without sets": (
        lambda: ProblemInstance(dim=1, projectors=()), ValueError, "at least one set"),
    "GridSpec low < high": (lambda: GridSpec(low=1.0, high=1.0), ValueError, "grid requires low < high"),
    "GridSpec points": (lambda: GridSpec(points=1), ValueError, "at least 2 points"),
    "constrained_min_oracle above dimension 3": (
        lambda: constrained_min_oracle(
            ProblemInstance(dim=4, projectors=(BoxProjection(np.zeros(4), np.ones(4)),)),
            (1.0,), L1Norm(), GridSpec(points=2)),
        ValueError, "oracle restricted to dimension <= 3"),
    "config without x0 key": (
        lambda: parse_config({k: v for k, v in config().items() if k != "x0"}),
        ConfigError, "config is missing 'x0'"),
    "superiorization without objective key": (
        lambda: parse_config(config(superiorization={"steps": 1})),
        ConfigError, "superiorization needs an 'objective'"),
    "perturbation and superiorization blocks": (
        lambda: parse_config(config(perturbation={}, superiorization={"objective": {"kind": "l1"}})),
        ConfigError, "choose either 'perturbation' or 'superiorization', not both"),
    "ExperimentConfig perturb and sup": (
        lambda: replace(superiorized_config(), perturb=PerturbationSchedule()),
        ConfigError, "choose either 'perturbation' or 'superiorization', not both"),
    "ExperimentConfig objective without sup": (
        lambda: replace(superiorized_config(), sup=None), ConfigError, "'objective' and 'sup' are set together"),
    "ExperimentConfig sup without objective": (
        lambda: replace(superiorized_config(), objective=None), ConfigError, "'objective' and 'sup' are set together"),
    "ExperimentConfig schedule of another dimension": (
        lambda: replace(
            parse_config(config()),
            schedule=ControlSchedule(operators=(UNIT_SQUARE,), cycle=(simultaneous_plan(1),)),
            x0=[5.0, 5.0],
        ),
        DimensionMismatchError, "schedule operator dimension 2 differs from problem dimension 1"),
    "ExperimentConfig x0 of another length": (
        lambda: replace(parse_config(config()), x0=[5.0, 5.0]),
        DimensionMismatchError, "expected dimension 1, got 2"),
    "ExperimentConfig objective of another dimension": (
        lambda: replace(superiorized_config(), objective=WeightedSquaredNorm([0.0, 0.0])),
        DimensionMismatchError, "objective dimension 2 differs from problem dimension 1"),
    "ExperimentConfig perturbation directions of another dimension": (
        lambda: replace(parse_config(config()), perturb=PerturbationSchedule(directions=([1.0, 0.0],))),
        DimensionMismatchError, "perturbation direction dimension 2 differs from problem dimension 1"),
    "ExperimentConfig declared alpha of a set no plan reaches": (
        lambda: replace(
            parse_config(config()),
            problem=ProblemInstance(dim=1, projectors=(UNIT_BOX, BoxProjection([0.0], [1.0], declared_alpha=2.5))),
        ),
        ValueError, "declared_alpha must be in \\(0, 2\\], got 2.5"),
    "problem without sets key": (
        lambda: parse_config(config(problem={"dim": 1})), ConfigError, "problem needs 'dim' and 'sets'"),
    "schedule without cycle key": (
        lambda: parse_config(config(schedule={})), ConfigError, "schedule needs a 'cycle'"),
    "plan without weights key": (
        lambda: _parse_plan({"strings": [[1]]}), ValueError, "needs 'strings' and 'weights'"),
    "Identity dim": (lambda: Identity(0), ValueError, "dimension must be >= 1"),
    "empty ConvexCombination": (lambda: ConvexCombination(()), ValueError, "at least one term"),
    "empty Composition": (lambda: Composition(()), ValueError, "at least one operator"),
    "propagate_alpha declared out of range": (
        lambda: propagate_alpha(BoxProjection([0.0], [1.0], declared_alpha=2.5)),
        ValueError, "declared_alpha must be in"),
    "propagate_alpha unknown node": (
        lambda: propagate_alpha(_Unknown()), AlphaUnknownError, "alpha unknown for node type _Unknown"),
    "FixedPointWitness non-finite": (
        lambda: FixedPointWitness([[np.nan]]), ValueError, "witness points must be finite"),
    "operator_from_json unknown kind": (
        lambda: operator_from_json({"kind": "ellipsoid"}), ValueError, "unknown operator kind 'ellipsoid'"),
    "operator_from_json non-object": (
        lambda: operator_from_json([1.0]), ValueError, "operator document must be an object"),
    "_parse_objective non-object": (
        lambda: _parse_objective([1.0]), ValueError, "objective document must be an object"),
    "_parse_objective unknown kind": (
        lambda: _parse_objective({"kind": "huber"}), ValueError, "unknown objective kind 'huber'"),
    "empty StringPlan": (lambda: StringPlan((), ()), ValueError, "at least one string"),
    "string_operator empty string": (
        lambda: string_operator((UNIT_BOX,), ()), ValueError, "a string must have length >= 1"),
    "string_operator index below 1": (
        lambda: string_operator((UNIT_BOX,), (0,)), ValueError, "string indices are 1-based and must be >= 1"),
    "ControlSchedule without operators": (
        lambda: ControlSchedule(operators=(), cycle=(simultaneous_plan(1),)),
        ValueError, "at least one base operator"),
    "ControlSchedule empty cycle": (
        lambda: ControlSchedule(operators=(UNIT_BOX,), cycle=()), ValueError, "cycle must be nonempty"),
    "ControlSchedule plan past m": (
        lambda: ControlSchedule(operators=(UNIT_BOX,), cycle=(StringPlan(((1, 2),), (1.0,)),)),
        ValueError, "plan references operator 2 but m=1"),
    "plan_at(-1)": (
        lambda: ControlSchedule(operators=(UNIT_BOX,), cycle=(simultaneous_plan(1),)).plan_at(-1),
        IndexError, "schedule index must be >= 0"),
    "empty MaxOfAffine": (lambda: MaxOfAffine(()), ValueError, "at least one affine piece"),
    "MaxOfAffine mixed dimensions": (
        lambda: MaxOfAffine((([1.0], 0.0), ([1.0, 0.0], 0.0))), DimensionMismatchError,
        r"max of affine mixes dimensions \[1, 2\]"),
    "SuperiorizationSchedule steps": (
        lambda: SuperiorizationSchedule(steps=0), ValueError, "steps must be a positive integer"),
    "strict_fejer_monitor k0": (
        lambda: strict_fejer_monitor(trace(3), [0.0], k0=-1), ValueError, "k0 must be >= 0"),
    "strict_fejer_monitor witness of another dimension": (
        lambda: strict_fejer_monitor(trace(3), [0.0, 0.0]),
        DimensionMismatchError, "witness dimension 2 differs from problem dimension 1"),
    "ConvexCombination mixed dimensions": (
        lambda: ConvexCombination(((0.5, UNIT_BOX), (0.5, UNIT_SQUARE))),
        DimensionMismatchError, r"convex combination mixes dimensions \[1, 2\]"),
    "Composition mixed dimensions": (
        lambda: Composition((UNIT_SQUARE, UNIT_BOX)), DimensionMismatchError, r"composition mixes dimensions \[1, 2\]"),
    "ControlSchedule mixed dimensions": (
        lambda: ControlSchedule(operators=(UNIT_BOX, UNIT_SQUARE), cycle=(simultaneous_plan(2),)),
        DimensionMismatchError, r"control schedule mixes dimensions \[1, 2\]"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_malformed_input_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()
