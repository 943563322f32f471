"""`gdsa verify`, the sampled checks and the Picard oracle against frozen copies
of the code they replaced.

`gdsa verify` draws its ``SampleSpec`` once, applies each operator once to each
half of the draw and hands those images to every check.  The functions below
are the bodies every check and every verify went through before that: one
fresh draw and fresh images per check.  They are kept here, unchanged, as the
reference; output, exit codes and reports must match them bit for bit.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdsa import harness
from gdsa.cli import _apply_overrides, main
from gdsa.core import DEFAULT_TOLERANCES, SampleSpec, as_vector, norm
from gdsa.engine import NonFiniteIterateError, RelaxationRangeError, fejer_monitor, run
from gdsa.harness import (
    ConfigError,
    OracleIterationCapError,
    certified_c_witness,
    fixed_point_oracle,
    load_config,
)
from gdsa.operators import (
    BallProjection,
    BoxProjection,
    CheckReport,
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
)
from gdsa.strings import check_admissibility, rho_constant, signature_str
from gdsa.superiorize import NonFiniteObjectiveError

BENCH = Path(__file__).resolve().parent.parent / "bench"


# -- frozen reference -------------------------------------------------------


def old_check_nonexpansive(op, samples=None, tolerances=DEFAULT_TOLERANCES):
    samples = samples or SampleSpec(dim=op.dim)
    xs, ys = samples.pairs()
    tx, ty = apply(op, xs), apply(op, ys)
    viol = norm(tx - ty) - norm(xs - ys)
    worst = float(np.max(viol))
    return CheckReport("nonexpansive", worst <= tolerances.slack_tol, worst, samples.count)


def old_check_rho_fne(op, rho, samples=None, tolerances=DEFAULT_TOLERANCES):
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    samples = samples or SampleSpec(dim=op.dim)
    xs, ys = samples.pairs()
    tx, ty = apply(op, xs), apply(op, ys)
    lhs = np.sum((tx - ty) ** 2, axis=-1)
    gap = np.sum(((xs - tx) - (ys - ty)) ** 2, axis=-1)
    viol = lhs - (np.sum((xs - ys) ** 2, axis=-1) - rho * gap)
    worst = float(np.max(viol))
    return CheckReport(
        f"rho_fne(rho={rho:g})", worst <= tolerances.slack_tol, worst, samples.count
    )


def old_check_cutter(op, witness, samples=None, tolerances=DEFAULT_TOLERANCES):
    samples = samples or SampleSpec(dim=op.dim)
    xs = samples.points()
    tx = apply(op, xs)
    worst = -np.inf
    for z in witness.points:
        worst = max(worst, float(np.max(np.sum((z - tx) * (xs - tx), axis=-1))))
    return CheckReport(
        "cutter", worst <= tolerances.slack_tol, worst, samples.count * len(witness.points)
    )


def old_fixed_point_oracle(op, x0, tolerances=DEFAULT_TOLERANCES, max_iters=10_000_000):
    if propagate_alpha(op) >= 2.0:
        raise OracleIterationCapError(
            "plain iteration need not converge for alpha >= 2 (a reflection)"
        )
    x = np.asarray(x0, dtype=float)
    if x.ndim == 1:
        x = as_vector(x, dim=op.dim)
    tol = tolerances.conv_tol / 100.0
    for _ in range(max_iters):
        tx = apply(op, x)
        done = norm(tx - x) <= tol
        if np.all(done):
            return tx
        x = np.where(np.expand_dims(done, -1), x, tx)
    raise OracleIterationCapError(f"no fixed point within {max_iters} plain iterations")


def old_certified_fejer(config):
    witness_point = certified_c_witness(config.schedule, config.x0, config.tolerances)
    if witness_point is None:
        return None
    trace = run(config.schedule, config.relax, config.x0, stop=config.stop)
    witness = FixedPointWitness(witness_point[None, :])
    rho = rho_constant(config.schedule)
    return fejer_monitor(trace, witness, config.relax.epsilon, rho, config.tolerances)


def old_cmd_verify(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    tol = config.tolerances
    failures = 0

    def report(name: str, passed: bool, detail: str = "") -> None:
        nonlocal failures
        status = "ok  " if passed else "FAIL"
        if not passed:
            failures += 1
        if not args.quiet or not passed:
            print(f"[{status}] {name}" + (f"  {detail}" if detail else ""))

    sample = SampleSpec(dim=config.problem.dim, seed=config.seed)
    for i, proj in enumerate(config.problem.projectors, start=1):
        ne = old_check_nonexpansive(proj, sample, tol)
        report(f"set {i}: nonexpansive", ne.passed, f"max_violation={ne.max_violation:.3e}")
        fne = old_check_rho_fne(proj, 1.0, sample, tol)
        report(f"set {i}: firmly nonexpansive", fne.passed, f"max_violation={fne.max_violation:.3e}")
        try:
            witness = projection_witness_points(proj, tolerances=tol)
        except ValueError as exc:
            report(f"set {i}: cutter", False, str(exc))
            continue
        cut = old_check_cutter(proj, witness, sample, tol)
        report(f"set {i}: cutter", cut.passed, f"max_violation={cut.max_violation:.3e}")

    adm = check_admissibility(config.schedule)
    report(
        "schedule: limsup-admissible",
        adm.admissible,
        f"limsup={len(adm.limsup_set)} plans, k0={adm.k0}",
    )

    rho = rho_constant(config.schedule)
    for sig, op in config.schedule.distinct_operators().items():
        label = signature_str(sig)
        ne = old_check_nonexpansive(op, sample, tol)
        report(f"plan {label}: nonexpansive", ne.passed, f"max_violation={ne.max_violation:.3e}")
        alpha = propagate_alpha(op)
        rho_op = (2.0 - alpha) / alpha
        fne = old_check_rho_fne(op, rho_op, sample, tol)
        report(
            f"plan {label}: {rho_op:g}-firmly nonexpansive",
            fne.passed,
            f"max_violation={fne.max_violation:.3e}",
        )

    try:
        config.relax.validate(rho)
        report("relaxation schedule within range", True, f"rho={rho:g}")
    except RelaxationRangeError as exc:
        report("relaxation schedule within range", False, str(exc))
        return 1 if failures else 0

    fejer = old_certified_fejer(config)
    if fejer is None:
        report("fejer monitor", True, "skipped: no certified witness at this scale")
    else:
        report("fejer monitor", fejer.passed, f"min_slack={fejer.min_slack:.3e}")

    return 1 if failures else 0


class _Args:
    seed = max_iters = tol = None
    quiet = False

    def __init__(self, config: Path) -> None:
        self.config = str(config)


def old_verify(path: Path) -> tuple[int, str]:
    """Exit code and stdout of the reference ``gdsa verify`` (as ``cli.main`` maps errors)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = old_cmd_verify(_Args(path))
        except (NonFiniteIterateError, NonFiniteObjectiveError, OracleIterationCapError):
            code = 1
        except (ConfigError, RelaxationRangeError, ValueError):
            code = 2
    return code, out.getvalue()


def new_verify(path: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", str(path)])
    return code, out.getvalue()


# -- configs ----------------------------------------------------------------


def leaf_docs(dim: int, seed: int = 0) -> list[dict]:
    """Box, ball, half-space and hyperplane through a common point."""
    rng = np.random.default_rng([seed, dim])
    z = rng.standard_normal(dim)
    center = z + rng.standard_normal(dim)
    a_half, a_hyper = rng.standard_normal(dim), rng.standard_normal(dim)
    return [
        {"kind": "box", "lo": (z - rng.uniform(0.5, 2.0, dim)).tolist(), "hi": (z + rng.uniform(0.5, 2.0, dim)).tolist()},
        {"kind": "ball", "center": center.tolist(), "radius": 1.2 * float(np.linalg.norm(center - z))},
        {"kind": "halfspace", "a": a_half.tolist(), "b": float(a_half @ z) + 0.5},
        {"kind": "hyperplane", "a": a_hyper.tolist(), "b": float(a_hyper @ z)},
    ]


def leaf_config(dim: int) -> dict:
    """The four leaves under combination and composition plans."""
    return {
        "problem": {"dim": dim, "sets": leaf_docs(dim)},
        "schedule": {
            "cycle": [
                {"strings": [[1], [2], [3], [4]], "weights": [0.1, 0.2, 0.3, 0.4]},
                {"strings": [[1, 2], [3, 4]], "weights": [0.5, 0.5]},
                {"strings": [[1, 2, 3, 4]], "weights": [1.0]},
            ]
        },
        "relaxation": {"epsilon": 0.05, "constant": 0.9},
        "seed": 5,
        "x0": (4.0 * np.random.default_rng(dim).standard_normal(dim)).tolist(),
        "stop": {"step_tol": 1e-9, "window": 10, "max_iters": 20_000},
    }


def node_config(dim: int) -> dict:
    """Relaxation, combination and composition nodes as the scheduled operators."""
    box, ball, half, hyper = leaf_docs(dim, seed=1)
    doc = leaf_config(dim)
    doc["problem"]["sets"] = [box, ball, half, hyper]
    doc["schedule"]["operators"] = [
        {"kind": "relaxation", "lam": 1.5, "inner": box},
        {"kind": "combination", "terms": [{"weight": 0.25, "op": ball}, {"weight": 0.75, "op": half}]},
        {"kind": "composition", "ops": [hyper, box]},
        {"kind": "relaxation", "lam": 0.5, "inner": {"kind": "composition", "ops": [half, ball]}},
    ]
    doc["relaxation"] = {"epsilon": 0.05, "constant": 0.5}
    return doc


SMALL = {
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


def failing(kind: str) -> dict:
    doc = json.loads(json.dumps(SMALL))
    if kind == "false_alpha":
        doc["schedule"]["operators"] = [
            {"kind": "relaxation", "lam": 2.0, "inner": SMALL["problem"]["sets"][0], "alpha": 1.0},
            SMALL["problem"]["sets"][1],
        ]
        doc["relaxation"]["constant"] = 0.9
    elif kind == "inadmissible":
        doc["schedule"]["preamble"] = [{"strings": [[1, 2]], "weights": [1.0]}]
    elif kind == "not_idempotent":
        doc["problem"]["sets"][0] = {"kind": "relaxation", "lam": 0.5, "inner": SMALL["problem"]["sets"][0]}
    elif kind == "relaxation_range":
        doc["relaxation"]["constant"] = 2.0
    return doc


def cli_config(seed: int) -> dict:
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads").cli_config(seed)
    finally:
        sys.path.remove(str(BENCH))


def write(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# -- gdsa verify, byte for byte ---------------------------------------------


@pytest.mark.parametrize("dim", [1, 3, 100])
@pytest.mark.parametrize("build", [leaf_config, node_config], ids=["leaves", "nodes"])
def test_verify_matches_reference_on_leaves_and_nodes(tmp_path, build, dim):
    path = write(tmp_path, build(dim))
    new = new_verify(path)
    assert new == old_verify(path)
    assert new[1].count("\n") >= 13


@pytest.mark.parametrize("kind", ["false_alpha", "inadmissible", "not_idempotent", "relaxation_range"])
def test_verify_matches_reference_on_failing_paths(tmp_path, kind):
    path = write(tmp_path, failing(kind))
    new = new_verify(path)
    assert new == old_verify(path)
    if kind == "relaxation_range":  # the config does not parse, so no check runs
        assert new == (2, "")
    else:
        assert new[0] == 1 and "[FAIL]" in new[1]


@pytest.mark.parametrize("seed", [1, 11, 101])
def test_verify_matches_reference_on_the_benchmark_config(tmp_path, seed):
    path = write(tmp_path, cli_config(seed))
    assert new_verify(path) == old_verify(path)


def test_verify_applies_each_operator_once_per_half(tmp_path, monkeypatch):
    # 4 sets plus 2 plans over the same 4 leaves: 8 + 16 stacked leaf calls
    path = write(tmp_path, cli_config(1))
    calls = []
    for cls in (BoxProjection, BallProjection, HalfspaceProjection, HyperplaneProjection):
        leaf_apply = cls.__dict__["apply"]

        def counting(self, x, leaf_apply=leaf_apply):
            if np.ndim(x) == 2 and len(x) == 1000:
                calls.append(type(self).__name__)
            return leaf_apply(self, x)

        monkeypatch.setattr(cls, "apply", counting)
    assert main(["verify", str(path), "--quiet"]) == 0
    assert len(calls) == 24
    assert all(calls.count(name) == 6 for name in set(calls))


# -- invariants the sharing rests on ----------------------------------------


@given(dim=st.integers(1, 40), count=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_points_are_the_first_half_of_pairs(dim, count, seed):
    spec = SampleSpec(dim=dim, count=count, seed=seed)
    points, (xs, _) = spec.points(), spec.pairs()
    assert points.shape == xs.shape and points.tobytes() == xs.tobytes()


def random_leaf(rng, dim: int):
    kind = int(rng.integers(4))
    if kind == 0:
        lo = rng.standard_normal(dim)
        return BoxProjection(lo, lo + rng.uniform(0.0, 3.0, dim))
    if kind == 1:
        return BallProjection(rng.standard_normal(dim), float(rng.uniform(0.1, 4.0)))
    a = rng.standard_normal(dim)
    cls = HalfspaceProjection if kind == 2 else HyperplaneProjection
    return cls(a, float(rng.standard_normal()))


def random_operator(rng, dim: int, depth: int):
    """A leaf, or a relaxation, combination or composition of random operators."""
    node = int(rng.integers(5)) if depth > 0 else 0
    if node <= 1:
        return random_leaf(rng, dim) if rng.integers(8) else Identity(dim)
    if node == 2:
        return Relaxation(random_operator(rng, dim, depth - 1), float(rng.uniform(0.0, 2.0)))
    children = [random_operator(rng, dim, depth - 1) for _ in range(int(rng.integers(1, 4)))]
    if node == 3:
        w = rng.uniform(0.1, 1.0, len(children))
        return ConvexCombination(tuple(zip((w / w.sum()).tolist(), children)))
    return Composition(tuple(children))


def same_report(new: CheckReport, old: CheckReport) -> bool:
    return (
        (new.check, new.passed, new.samples) == (old.check, old.passed, old.samples)
        and np.float64(new.max_violation).tobytes() == np.float64(old.max_violation).tobytes()
    )


@given(
    dim=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 200),
    depth=st.integers(0, 3),
    rho=st.floats(0.0, 3.0),
)
@settings(max_examples=80, deadline=None)
def test_public_checks_match_the_frozen_bodies(dim, seed, count, depth, rho):
    rng = np.random.default_rng(seed)
    op = random_operator(rng, dim, depth)
    spec = SampleSpec(dim=dim, count=count, seed=seed % 1000)
    assert same_report(check_nonexpansive(op, spec), old_check_nonexpansive(op, spec))
    assert same_report(check_rho_fne(op, rho, spec), old_check_rho_fne(op, rho, spec))
    witness = FixedPointWitness(rng.standard_normal((int(rng.integers(1, 5)), dim)))
    assert same_report(check_cutter(op, witness, spec), old_check_cutter(op, witness, spec))


def test_default_samples_match_the_frozen_bodies():
    op = BallProjection([0.5, -1.0, 2.0], 1.5)
    witness = projection_witness_points(op)
    assert same_report(check_nonexpansive(op), old_check_nonexpansive(op))
    assert same_report(check_rho_fne(op, 1.0), old_check_rho_fne(op, 1.0))
    assert same_report(check_cutter(op, witness), old_check_cutter(op, witness))
    with pytest.raises(ValueError, match="nonnegative"):
        check_rho_fne(op, -0.5)


# -- the Picard oracle -------------------------------------------------------


@given(dim=st.integers(1, 20), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_fixed_point_oracle_matches_the_frozen_loop(dim, seed, rows):
    rng = np.random.default_rng(seed)
    leaves = [random_leaf(rng, dim) for _ in range(3)]
    op = ConvexCombination(tuple(zip((0.2, 0.3, 0.5), leaves)))
    starts = 5.0 * rng.standard_normal((rows, dim))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_ORACLE_PICARD_CAP", 100_000)
        for x0 in (starts[0], starts):
            new = fixed_point_oracle(op, x0)
            old = old_fixed_point_oracle(op, x0, max_iters=100_000)
            assert new.shape == old.shape and new.tobytes() == old.tobytes()


@pytest.mark.parametrize("x0", [[3.0], [[3.0], [-4.0]]], ids=["vector", "stack"])
def test_fixed_point_oracle_cap_matches_the_frozen_loop(x0, monkeypatch):
    # two disjoint intervals averaged: the first step from 3 or -4 lands on +-1, not on 0
    op = ConvexCombination(((0.5, BoxProjection([-3.0], [-1.0])), (0.5, BoxProjection([1.0], [3.0]))))
    with pytest.raises(OracleIterationCapError, match="within 1 plain"):
        old_fixed_point_oracle(op, x0, max_iters=1)
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_ORACLE_PICARD_CAP", 1)
        with pytest.raises(OracleIterationCapError, match="within 1 plain"):
            fixed_point_oracle(op, x0)
    assert fixed_point_oracle(op, x0).tobytes() == old_fixed_point_oracle(op, x0).tobytes()
