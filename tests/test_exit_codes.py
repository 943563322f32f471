"""The exit-code contract of the ``gdsa`` CLI, one row per invocation.

0 success; 1 a verification failure, a diverging run or an oracle out of
budget; 2 a malformed config or a flag the subcommand does not read.  A row
writes its config to ``config.json`` in a fresh directory, calls ``cli.main``
(one row runs ``python -m gdsa.cli``) and checks the code and fragments of
stderr and stdout.  A failing row prints nothing to stdout unless it names a
fragment, and leaves no ``out`` directory, where ``run`` writes by default.
A ``run`` that exits 0 writes ``trace.csv`` as ``.17g`` text next to
``summary.json``, and a row may ask that its ``trace.csv`` equal, or differ
from, another row's.  A row with a ``legacy`` id runs under that id in
``TestCli`` of ``test_harness.py``, where it was once a test of its own
(:func:`legacy_tests`).
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np
import pytest

import gdsa
from conftest import CONFIG_DOC, R2_DOC, SETS, with_key
from gdsa import harness
from gdsa.cli import main
from gdsa.harness import parse_config


class Row(NamedTuple):
    argv: tuple  # the subcommand and its flags; the config path follows the subcommand
    code: int
    base: Union[dict, str] = CONFIG_DOC  # the config document, or the raw text of the file
    change: dict = {}  # dotted key -> value, set in a copy of base in turn
    err: str = ""  # a fragment of stderr
    out: tuple = ()  # fragments of stdout; a failing row without any prints nothing
    same: dict = {}  # row key -> whether that row's trace.csv equals this row's
    row0: dict = {}  # trace.csv column -> its value on the row k = 0
    seconds: Optional[float] = None  # a bound on the wall time of the call
    errstate: dict = {}  # the np.errstate of a row that overflows on purpose
    patch: dict = {}  # harness attribute -> its value during the call
    process: bool = False  # run `python -m gdsa.cli` in a fresh interpreter
    files: dict = {}  # file name -> the document written next to config.json
    legacy: str = ""  # the TestCli test id this row runs under


# The subcommands that load a config, each with the flags it requires.
LOADERS = {
    "run": ("run",),
    "verify": ("verify",),
    "sweep": ("sweep", "--param", "seed", "--values", "1"),
    "oracle": ("oracle",),
}


def malformed(name: str, change: dict, err: str, base=CONFIG_DOC, legacy: str = "", files: dict = {}) -> dict:
    """Rows of a config that every loading subcommand refuses with exit 2;
    ``{cmd}`` in ``legacy`` stands for the subcommand."""
    return {
        f"{name}-{cmd}": Row(argv, 2, base, change, err, legacy=legacy.format(cmd=cmd), files=files)
        for cmd, argv in LOADERS.items()
    }


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

# Every place the config reads an integer: the dotted key, and how the value
# sits under the key.  Each refuses a fractional float, a boolean and a string.
INTEGER_SLOTS = {
    "string_index": ("schedule.cycle.0.strings", lambda v: [[v], [2]]),
    "problem_dim": ("problem.dim", lambda v: v),
    "identity_dim": ("problem.sets", lambda v: [*SETS, {"kind": "identity", "dim": v}]),
    "seed": ("seed", lambda v: v),
    "perturbation_seed": ("perturbation", lambda v: {"seed": v}),
    "window": ("stop.window", lambda v: v),
    "max_iters": ("stop.max_iters", lambda v: v),
    "superiorization_steps": ("superiorization", lambda v: {"objective": {"kind": "l1"}, "steps": v}),
}
NOT_INTEGERS = {"": 1.7, "_true": True, "_string": "1"}

NAN, INF = float("nan"), float("inf")
# A non-finite number, written as the JSON extension NaN or Infinity.
NON_FINITE = {
    "step_tol": ("stop.step_tol", NAN, "invalid stopping rule parameters"),
    "max_iters": ("stop.max_iters", INF, "expected an integer, got inf"),
    "conv_tol": ("tolerances.conv_tol", INF, "Tolerances.conv_tol must be finite and strictly positive"),
    "lam": ("relaxation.constant", NAN, "relaxation values must be finite"),
    "perturbation_beta0": ("perturbation", {"beta0": NAN}, "beta0 must be finite and nonnegative"),
    "superiorization_beta0": (
        "superiorization", {"objective": {"kind": "l1"}, "beta0": NAN}, "beta0 must be finite and strictly positive"),
    "wsqnorm_weight": (
        "superiorization", {"objective": {"kind": "wsqnorm", "center": [0.0], "weight": INF}},
        "weight must be finite and positive"),
    "max_affine_offset": (
        "superiorization", {"objective": {"kind": "max_affine", "pieces": [{"a": [1.0], "b": NAN}]}},
        "affine offsets must be finite"),
    # an extra set, outside every plan
    "halfspace_b": ("problem.sets", [*SETS, {"kind": "halfspace", "a": [1.0], "b": NAN}],
        "HalfspaceProjection needs a finite offset b"),
    "hyperplane_b": ("problem.sets", [*SETS, {"kind": "hyperplane", "a": [1.0], "b": INF}],
        "HyperplaneProjection needs a finite offset b"),
    "ball_radius": (
        "problem.sets", [*SETS, {"kind": "ball", "center": [0.0], "radius": INF}],
        "ball radius must be finite and positive"),
}

BOX = SETS[0]
# A third set that no run reaches, since schedule.operators names the two boxes.
BAD_ALPHAS = {
    "alpha_nan": {**BOX, "alpha": NAN},
    "alpha_0": {**BOX, "alpha": 0.0},
    "alpha_2.5": {**BOX, "alpha": 2.5},
    "nested_past_2": {"kind": "relaxation", "lam": 1.5, "inner": {"kind": "relaxation", "lam": 1.5, "inner": BOX}},
}

R3_BOX = {"kind": "box", "lo": [-1.0] * 3, "hi": [1.0] * 3}
R2_BOX = R2_DOC["problem"]["sets"][0]
SUPERIORIZED = {
    "l1": {"kind": "l1"},
    "wsqnorm": {"kind": "wsqnorm", "center": [0.3, -0.2], "weight": 2.0},
    "max_affine": {"kind": "max_affine", "pieces": [{"a": [1.0, 0.0], "b": 0.0}, {"a": [-0.5, 1.0], "b": 0.3}]},
}
ONE_SET_R2 = {  # a box in R^2, one plan of one string
    "problem": {"dim": 2, "sets": [R2_BOX]},
    "schedule": {"cycle": [{"strings": [[1]], "weights": [1.0]}]},
    "relaxation": {"epsilon": 0.05, "constant": 1.0},
    "x0": [4.0, -2.5],
}
REFLECTION = {
    "problem": {
        "dim": 1, "sets": [{"kind": "relaxation", "lam": 2.0, "inner": {"kind": "hyperplane", "a": [1.0], "b": 0.0}}],
    },
    "schedule": {"cycle": [{"strings": [[1]], "weights": [1.0]}]},
    "relaxation": {"epsilon": 0.05, "constant": 0.9},
    "x0": [1.0],
}
DIM_4 = {
    "problem": {"dim": 4, "sets": [{"kind": "box", "lo": [-1.0] * 4, "hi": [1.0] * 4}]},
    "schedule": {"cycle": [{"strings": [[1]], "weights": [1.0]}]},
    "relaxation": {"epsilon": 0.05, "constant": 1.0},
    "x0": [2.0] * 4,
}
PERTURBED_R1 = with_key(with_key(CONFIG_DOC, "perturbation", {"beta0": 0.5, "decay": 0.9}), "x0", [40.0])

ROWS: dict[str, Row] = {
    # the R^2 config, end to end: each run writes the same bytes twice
    "r2_verify": Row(("verify",), 0, R2_DOC, out=("[ok  ] fejer monitor  min_slack=",)),
    "r2_run": Row(("run", "--quiet"), 0, R2_DOC, same={"r2_run": True}),
    "r2_perturbed": Row(
        ("run", "--quiet"), 0, R2_DOC, {"perturbation": {"beta0": 0.5, "decay": 0.9}},
        same={"r2_perturbed": True}, row0={"perturb_norm": 0.5},  # ||beta0 v_0|| = beta0
    ),
    **{
        f"r2_superiorized_{name}": Row(
            ("run", "--quiet"), 0, R2_DOC,
            {"superiorization": {"objective": objective, "beta0": 0.5, "decay": 0.9, "steps": 2}},
            same={f"r2_superiorized_{name}": True},
        )
        for name, objective in SUPERIORIZED.items()
    },
    # problem.consistent and problem.known_points are unknown keys: the run is unchanged
    "r2_ignored_keys": Row(
        ("run", "--quiet"), 0, R2_DOC, {"problem.consistent": True, "problem.known_points": [[5.0, 5.0]]},
        same={"r2_run": True},
    ),
    "r2_sweep": Row(
        ("sweep", "--param", "relaxation.constant", "--values", "0.5,1.0"), 0, R2_DOC, out=("max_residual",)),
    "r2_oracle": Row(("oracle",), 0, R2_DOC, out=('"proximity_argmin"',)),
    "run_writes_outputs": Row(("run", "--quiet"), 0, legacy="test_run_writes_outputs"),
    "run_is_byte_deterministic": Row(
        ("run", "--quiet"), 0, same={"run_is_byte_deterministic": True},
        legacy="test_run_is_byte_deterministic"),
    "seed_1": Row(
        ("run", "--quiet", "--seed", "1"), 0, PERTURBED_R1, same={"seed_1": True, "seed_2": False},
        legacy="test_seed_override_changes_perturbed_run"),
    "seed_2": Row(
        ("run", "--quiet", "--seed", "2"), 0, PERTURBED_R1, same={"seed_2": True},
        legacy="test_seed_override_changes_perturbed_run"),
    # exit 1: a check of verify fails
    "verify_false_alpha": Row(
        ("verify",), 1, change={
            "schedule.operators": [{"kind": "relaxation", "lam": 2.0, "inner": BOX, "alpha": 1.0}, SETS[1]],
            "relaxation.constant": 0.9,  # in range for rho = 1
        },
        out=("[FAIL] plan 1:0.5|2:0.5: 1-firmly nonexpansive",), legacy="test_verify_fails_on_false_alpha_declaration"),
    "verify_inadmissible": Row(
        ("verify",), 1, change={"schedule.preamble": [{"strings": [[1, 2]], "weights": [1.0]}]},
        out=("[FAIL] schedule: limsup-admissible",), legacy="test_verify_fails_on_inadmissible_schedule"),
    "verify_not_idempotent": Row(
        ("verify",), 1, change={"problem.sets.0": {"kind": "relaxation", "lam": 0.5, "inner": BOX}},
        out=("[FAIL] set 1: cutter  witness point is not fixed", "[ok  ] set 2: cutter", "fejer monitor"),
        legacy="test_verify_reports_a_set_that_is_not_idempotent"),
    "verify_lambda_out_of_range": Row(
        ("verify", "--quiet"), 1, change={"relaxation.constant": 2.0},
        out=("[FAIL] relaxation schedule within range  relaxation value 2 outside [0.05, 1.95]",)),
    # exit 1: the run diverges, or the oracle runs out of budget
    "superiorized_overflow": Row(
        ("run", "--quiet"), 1, ONE_SET_R2,
        {"superiorization": {"objective": {"kind": "wsqnorm", "center": [0.0, 0.0], "weight": 1e300}},
         "x0": [1e10, 1e10]},
        "error: objective evaluated to a non-finite value", errstate={"over": "ignore"},
        legacy="test_non_finite_objective_exits_1"),
    # steering checks phi at every iterate it steers from; the last one is checked after the loop
    "superiorized_overflow_at_the_final_iterate": Row(
        ("run", "--quiet"), 1, ONE_SET_R2,
        {"problem.sets": [{"kind": "box", "lo": [1e6, 1e6], "hi": [2e6, 2e6]}],
         "superiorization": {"objective": {"kind": "wsqnorm", "center": [0.0, 0.0], "weight": 1e300}},
         "x0": [0.0, 0.0], "stop.max_iters": 1},
        "error: objective evaluated to a non-finite value", errstate={"over": "ignore"}),
    "non_finite_iterate": Row(
        ("run", "--quiet"), 1, ONE_SET_R2,
        {"problem.sets": [{"kind": "halfspace", "a": [1e300, 1e300], "b": 0.0}],
         "perturbation": {"beta0": 1e10, "decay": 0.5}},
        "error: non-finite iterate at step 0", errstate={"over": "ignore", "invalid": "ignore"}),
    "max_iters_reached": Row(("run", "--quiet", "--max-iters", "3"), 0),  # "converged": false, not a failure
    "oracle_out_of_budget": Row(
        ("oracle",), 1, err="error: no fixed point within 1 plain iterations", patch={"_ORACLE_PICARD_CAP": 1}),
    "oracle_on_a_reflection": Row(
        ("oracle",), 1, REFLECTION, err="alpha", seconds=1.0, legacy="test_oracle_on_a_reflection_exits_1_at_once"),
    # exit 2: the config, or the run it states, is malformed
    "lambda_out_of_range": Row(
        ("run", "--quiet"), 2, change={"relaxation.constant": 2.0},  # 1 + rho: outside the range closed minus eps
        err="error: relaxation value 2 outside [0.05, 1.95] (rho=1)", legacy="test_out_of_range_lambda_exits_2"),
    **malformed("not_json", {}, "error: cannot read config", "{not json", legacy="test_malformed_config_exits_2"),
    **malformed(
        "missing_keys", {}, "error: config is missing 'schedule'", {"problem": CONFIG_DOC["problem"]},
        legacy="test_malformed_config_exits_2"),
    "not_json_as_a_module": Row(("verify",), 2, "{not json", err="error: cannot read config", process=True),
    **malformed(
        "nan_plan_weights", {"schedule.cycle.0.weights": [NAN, NAN]}, "error: plan weights must be finite",
        legacy="test_nan_plan_weights_exit_2"),
    **malformed("epsilon_out_of_range", {"relaxation.epsilon": 1.5}, "error: epsilon must lie in (0, 1]"),
    **malformed(
        "boolean_x0", {"x0": [4.0, True]}, "error: expected a number, got True", R2_DOC,  # not read as [4.0, 1.0]
        legacy="test_a_boolean_among_floats_exits_2[{cmd}]"),
    **malformed(
        "include_cycle", {"problem": {"include": "config.json"}}, "error: config includes itself",
        legacy="test_include_cycle_exits_2[{cmd}]"),
    **malformed(
        "include_two_file_cycle", {"problem": {"include": "a.json"}}, "error: config includes itself",
        files={"a.json": {"include": "b.json"}, "b.json": {"include": "a.json"}}),
    # one file reached along two branches is no cycle: both sets are box.json
    "include_diamond": Row(
        ("run", "--quiet"), 0, change={"problem.sets": [{"include": "left.json"}, {"include": "right.json"}]},
        files={"left.json": {"include": "box.json"}, "right.json": {"include": "box.json"}, "box.json": SETS[1]}),
    **malformed(
        "negative_seed", {"seed": -1}, "error: seed must be >= 0", legacy="test_a_negative_seed_exits_2[seed_{cmd}]"),
    **malformed(
        "negative_perturbation_seed", {"perturbation": {"seed": -1}}, "error: seed must be >= 0",
        legacy="test_a_negative_seed_exits_2[perturbation_seed_{cmd}]"),
    **{
        f"negative_seed_flag_{cmd}": Row(
            (cmd, "--seed", "-1"), 2, err="error: seed must be >= 0",
            legacy=f"test_a_negative_seed_exits_2[flag_{cmd}]")
        for cmd in ("run", "verify")
    },
    "negative_seed_sweep": Row(
        ("sweep", "--param", "seed", "--values", "-1"), 2, err="error: seed must be >= 0",
        legacy="test_a_negative_seed_exits_2[sweep]"),
    **malformed(
        "both_run_kinds", {"perturbation": {"beta0": 0.5}, "superiorization": {"objective": {"kind": "l1"}}},
        "error: choose either 'perturbation' or 'superiorization', not both", R2_DOC),
    **malformed(
        "no_objective", {"superiorization": {"steps": 1}}, "error: superiorization needs an 'objective'", R2_DOC),
    **malformed(
        "objective_dimension",
        {"superiorization": {"objective": {"kind": "max_affine", "pieces": [{"a": [1.0, 0.0], "b": 0.0}]}}},
        "error: objective dimension 2 differs from problem dimension 1",
        legacy="test_max_affine_objective_of_another_dimension_exits_2"),
    **malformed("x0_dimension", {"x0": [4.0, -2.5, 1.0]}, "error: expected dimension 2, got 3", R2_DOC),
    **malformed(
        "direction_dimension", {"perturbation": {"directions": [[1.0]]}},
        "error: perturbation direction dimension 1 differs from problem dimension 2", R2_DOC,
        legacy="test_a_direction_of_another_dimension_exits_2[{cmd}]"),
    **malformed(
        "schedule_operators_dimension",
        {"schedule.operators": [R3_BOX, {"kind": "halfspace", "a": [1.0] * 3, "b": 0.5}]},
        "error: schedule operator dimension 3 differs from problem dimension 2", R2_DOC,
        legacy="test_schedule_operators_of_another_dimension_exit_2[{cmd}]"),
    # the terms of a combination and the factors of a composition share one dimension
    **malformed(
        "combination_dimensions",
        {"problem.sets.1": {"kind": "combination", "terms": [{"weight": 0.5, "op": op} for op in (R2_BOX, R3_BOX)]}},
        "error: convex combination mixes dimensions [2, 3]", R2_DOC),
    **malformed(
        "composition_dimensions", {"problem.sets.1": {"kind": "composition", "ops": [R2_BOX, R3_BOX]}},
        "error: composition mixes dimensions [2, 3]", R2_DOC),
    "oracle_above_dimension_3": Row(
        ("oracle",), 2, DIM_4, err="error: oracle restricted to dimension <= 3",
        legacy="test_oracle_above_dimension_3_exits_2"),
    "max_iters_0": Row(
        ("run", "--quiet", "--max-iters", "0"), 2, err="error: invalid stopping rule parameters",
        legacy="test_invalid_override_exits_2[max_iters_0]"),
    "tol_below_eq_tol": Row(
        ("run", "--quiet", "--tol", "1e-11"), 2, err="error: required: slack_tol <= eq_tol <= conv_tol",
        legacy="test_invalid_override_exits_2[tol_below_eq_tol]"),
    # sweep: the dotted path must lead through objects to a key; a bare word is a string
    "sweep_bad_path": Row(
        ("sweep", "--param", "no.such.key", "--values", "1"), 2, err="error: sweep path 'no.such.key' not found",
        legacy="test_sweep_bad_path_exits_2"),
    "sweep_path_through_a_number": Row(
        ("sweep", "--param", "seed.value", "--values", "1"), 2, err="error: sweep path 'seed.value' not found",
        legacy="test_sweep_path_through_a_non_object_exits_2"),
    "sweep_bare_word": Row(
        ("sweep", "--param", "relaxation.constant", "--values", "fast"), 2, err="error: expected a number, got 'fast'",
        legacy="test_sweep_bare_word_reaches_the_parser_as_a_string"),
    # argparse refuses a flag the subcommand does not read
    **{
        f"flag_{cmd}_{flag[2:].replace('-', '_')}": Row(
            (cmd, flag, *values), 2, err="unrecognized arguments",
            legacy=f"test_a_flag_the_subcommand_does_not_read_is_refused[{cmd}_{flag[2:].replace('-', '_')}]")
        for cmd, flag, *values in (
            ("oracle", "--seed", "1"), ("oracle", "--out", "d"), ("oracle", "--max-iters", "10"), ("oracle", "--quiet"),
            ("verify", "--out", "d"),
        )
    },
}


# The families of malformed configs, each case under every loading subcommand.
for name, (key, value, err) in NON_FINITE.items():
    ROWS.update(malformed(
        f"non_finite_{name}", {key: value}, f"error: {err}", legacy=f"test_non_finite_number_exits_2[{name}-{{cmd}}]"))
for slot, (key, place) in INTEGER_SLOTS.items():
    for suffix, value in NOT_INTEGERS.items():
        ROWS.update(malformed(
            f"not_integer_{slot}{suffix}", {key: place(value)}, f"error: expected an integer, got {value!r}",
            legacy=f"test_fractional_integer_exits_2[{slot}{suffix}-{{cmd}}]"))
for slot, (key, good, place) in NUMBER_SLOTS.items():
    for value in (repr(good), True, False):
        ROWS.update(malformed(
            f"not_a_number_{slot}_{value!r}", {key: place(value)}, f"error: expected a number, got {value!r}",
            legacy=f"test_a_string_or_boolean_number_exits_2[{slot}]"))
for name, value in {"number": 5, "empty": "", "list": ["box.json"]}.items():
    ROWS.update(malformed(
        f"include_{name}", {"problem": {"include": value}}, f"error: include must name a file, got {value!r}"))
for name, bad_set in BAD_ALPHAS.items():
    ROWS.update(malformed(
        f"bad_alpha_{name}", {"problem.sets": [*SETS, bad_set], "schedule.operators": SETS}, "alpha",
        legacy=f"test_bad_alpha_outside_the_schedule_operators_exits_2[{name}-{{cmd}}]"))


def assert_17g_text(path: Path) -> None:
    """Each number cell of ``trace.csv`` is ``format(v, ".17g")``; a superiorized
    trace has a phi value on every row."""
    header, *rows = csv.reader(path.read_text().splitlines())
    label = header.index("plan_signature")
    cells = [c for row in rows for i, c in enumerate(row) if i != label and c]
    assert cells and [c for c in cells if c != format(float(c), ".17g")] == []
    if "phi_value" in header:
        assert all(row[header.index("phi_value")] for row in rows)


def invoke(row: Row, where: Path, monkeypatch, capsys) -> tuple:
    """The exit code, stdout and stderr of ``row``'s call, its config written to ``where``."""
    where.mkdir(parents=True, exist_ok=True)
    doc = row.base
    for key, value in row.change.items():
        doc = with_key(doc, key, value)
    config = where / "config.json"
    config.write_text(doc if isinstance(doc, str) else json.dumps(doc))  # NaN, Infinity: the JSON extensions
    for name, included in row.files.items():
        (where / name).write_text(json.dumps(included))
    argv = [row.argv[0], str(config), *row.argv[1:]]
    if row.process:
        env = {**os.environ, "PYTHONPATH": str(Path(gdsa.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-m", "gdsa.cli", *argv], capture_output=True, text=True, env=env)
        return done.returncode, done.stdout, done.stderr
    with monkeypatch.context() as patch, np.errstate(**row.errstate):
        for name, value in row.patch.items():
            patch.setattr(harness, name, value)
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
        assert row.seconds is None or time.perf_counter() - start < row.seconds
    return (code, *capsys.readouterr())


def check(key: str, where: Path, monkeypatch, capsys) -> None:
    row = ROWS[key]
    code, out, err = invoke(row, where, monkeypatch, capsys)
    assert code == row.code, f"{key}: {err}"
    assert row.err in err, key
    assert all(fragment in out for fragment in row.out), (key, out)
    if row.code:
        assert row.out or out == "", (key, out)
        assert not (where / "out").exists(), key
    trace = where / "out" / "trace.csv"
    if row.argv[0] == "run" and not row.code:
        assert_17g_text(trace)
        assert trace.with_name("summary.json").exists(), key
    for other, equal in row.same.items():
        ref = where / "same" / other
        assert invoke(ROWS[other], ref, monkeypatch, capsys)[0] == 0
        assert ((ref / "out" / "trace.csv").read_bytes() == trace.read_bytes()) is equal, (key, other)
    if row.row0:
        first = next(csv.DictReader(trace.read_text().splitlines()))
        assert all(abs(float(first[column]) - value) <= 1e-12 for column, value in row.row0.items()), first


@pytest.mark.parametrize("key", [key for key, row in ROWS.items() if not row.legacy])
def test_exit_code(key, tmp_path, monkeypatch, capsys):
    check(key, tmp_path, monkeypatch, capsys)


def _legacy_test(params: dict):
    """A test method that runs, for its parameter, the rows ``params`` names."""
    if list(params) == [""]:
        def test(self, tmp_path, monkeypatch, capsys):
            for i, key in enumerate(params[""]):
                check(key, tmp_path / str(i), monkeypatch, capsys)
        return test

    @pytest.mark.parametrize("param", list(params))
    def test(self, param, tmp_path, monkeypatch, capsys):
        for i, key in enumerate(params[param]):
            check(key, tmp_path / str(i), monkeypatch, capsys)
    return test


def legacy_tests() -> dict:
    """The rows that have a ``legacy`` id, as test methods named after it."""
    groups: dict = {}
    for key, row in ROWS.items():
        if row.legacy:
            name, _, param = row.legacy.partition("[")
            groups.setdefault(name, {}).setdefault(param.rstrip("]"), []).append(key)
    return {name: _legacy_test(params) for name, params in groups.items()}


def test_every_number_slot_takes_its_valid_value():
    for key, good, place in NUMBER_SLOTS.values():
        parse_config(with_key(CONFIG_DOC, key, place(good)))
