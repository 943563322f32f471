"""Command-line interface.

Subcommands:

* ``run <config.json>``     execute one experiment, write trace CSV + summary JSON
* ``verify <config.json>``  operator inequality suite, admissibility, and the
                            distance-decrease monitor on a fresh run; exit 1 on failure
* ``sweep <config.json> --param a.b.c --values v1,v2``  grid over one config field
* ``oracle <config.json>``  emit target-set witnesses and constrained minimizers

Exit codes: 0 success; 1 verification failure, a non-finite iterate or
objective, or an oracle that cannot converge; 2 malformed configuration.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .engine import (
    NonFiniteIterateError,
    RelaxationRangeError,
    fejer_monitor,
    run,
)
from .harness import (
    _ORACLE_DIM_LIMIT,
    ConfigError,
    ExperimentConfig,
    GridSpec,
    OracleIterationCapError,
    certified_c_witness,
    constrained_min_oracle,
    fixed_point_oracle,
    load_config,
    parse_config,
    proximity_argmin_oracle,
    proximity_value,
    summary_doc,
    write_summary_json,
    write_trace_csv,
)
from .core import SampleSpec
from .operators import (
    FixedPointWitness,
    Operator,
    _Draw,
    projection_witness_points,
    propagate_alpha,
    residual,
)
from .strings import check_admissibility, rho_constant, signature_str
from .superiorize import NonFiniteObjectiveError, superiorized_run

__all__ = ["main"]


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    """Apply the override flags in ``args``; a subcommand may lack some of them."""
    cfg = config
    seed, max_iters, tol = (getattr(args, name, None) for name in ("seed", "max_iters", "tol"))
    if seed is not None:
        cfg = replace(cfg, seed=seed)
        if cfg.perturb is not None:
            cfg = replace(cfg, perturb=replace(cfg.perturb, seed=seed))
    if max_iters is not None:
        cfg = replace(cfg, stop=replace(cfg.stop, max_iters=max_iters))
    if tol is not None:
        cfg = replace(
            cfg,
            tolerances=replace(cfg.tolerances, conv_tol=tol),
            stop=replace(cfg.stop, step_tol=tol),
        )
    return cfg


def _execute(config: ExperimentConfig):
    if config.objective is not None and config.sup is not None:
        return superiorized_run(
            config.schedule,
            config.relax,
            config.objective,
            config.sup,
            config.x0,
            stop=config.stop,
            tolerances=config.tolerances,
        )
    return run(config.schedule, config.relax, config.x0, perturb=config.perturb, stop=config.stop)


def _grid_for(config: ExperimentConfig) -> GridSpec:
    span = float(np.max(np.abs(config.x0)))
    reach = max(5.0, span + 1.0)
    return GridSpec(low=-reach, high=reach, points=41)


def _certified_fejer(config: ExperimentConfig, trace=None):
    """The Fejér report of an unperturbed run against a certified target point,
    or None when there is none.  The witness is sought first: without ``trace``
    the run starts only once a witness exists."""
    witness_point = certified_c_witness(config.schedule, config.x0, config.tolerances)
    if witness_point is None:
        return None
    if trace is None:
        trace = run(config.schedule, config.relax, config.x0, stop=config.stop)
    witness = FixedPointWitness(witness_point[None, :])
    rho = rho_constant(config.schedule)
    return fejer_monitor(trace, witness, config.relax.epsilon, rho, config.tolerances)


def _run_outputs(config: ExperimentConfig, out_dir: Path, quiet: bool) -> dict:
    trace = _execute(config)
    fejer = None
    if config.problem.dim <= _ORACLE_DIM_LIMIT and config.perturb is None and config.sup is None:
        fejer = _certified_fejer(config, trace)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "trace.csv"
    summary_path = out_dir / "summary.json"
    slacks, min_slack = (None, None) if fejer is None else (fejer.per_step_min, fejer.min_slack)
    write_trace_csv(trace, csv_path, fejer_slack_min=slacks)
    summary = write_summary_json(summary_path, config, trace, fejer_min_slack=min_slack)
    if not quiet:
        print(f"wrote {csv_path} and {summary_path}")
        print(
            f"iters={summary['iters']} converged={summary['converged']} "
            f"final_x={summary['final_x']}"
        )
    return summary


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    out_dir = Path(args.out) if args.out else Path(args.config).parent / "out"
    _run_outputs(config, out_dir, args.quiet)
    return 0


def _cmd_verify(args) -> int:
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

    # one draw for every check; each operator is applied once to each half
    draw = _Draw(SampleSpec(dim=config.problem.dim, seed=config.seed))

    def check_operator(name: str, op: Operator, rho: float, fne_name: str) -> np.ndarray:
        tx, ty = draw.images(op)
        ne = draw.nonexpansive(tx, ty, tol)
        report(f"{name}: nonexpansive", ne.passed, f"max_violation={ne.max_violation:.3e}")
        fne = draw.rho_fne(tx, ty, rho, tol)
        report(f"{name}: {fne_name}", fne.passed, f"max_violation={fne.max_violation:.3e}")
        return tx

    for i, proj in enumerate(config.problem.projectors, start=1):
        tx = check_operator(f"set {i}", proj, 1.0, "firmly nonexpansive")
        try:
            witness = projection_witness_points(proj, tolerances=tol)
        except ValueError as exc:  # not idempotent: its images are not fixed points
            report(f"set {i}: cutter", False, str(exc))
            continue
        cut = draw.cutter(tx, witness, tol)
        report(f"set {i}: cutter", cut.passed, f"max_violation={cut.max_violation:.3e}")

    adm = check_admissibility(config.schedule)
    report(
        "schedule: limsup-admissible",
        adm.admissible,
        f"limsup={len(adm.limsup_set)} plans, k0={adm.k0}",
    )

    rho = rho_constant(config.schedule)
    for sig, op in config.schedule.distinct_operators().items():
        alpha = propagate_alpha(op)
        rho_op = (2.0 - alpha) / alpha
        check_operator(f"plan {signature_str(sig)}", op, rho_op, f"{rho_op:g}-firmly nonexpansive")

    try:
        config.relax.validate(rho)
        report("relaxation schedule within range", True, f"rho={rho:g}")
    except RelaxationRangeError as exc:
        report("relaxation schedule within range", False, str(exc))
        return 1 if failures else 0

    fejer = _certified_fejer(config)
    if fejer is None:
        report("fejer monitor", True, "skipped: no certified witness at this scale")
    else:
        report("fejer monitor", fejer.passed, f"min_slack={fejer.min_slack:.3e}")

    return 1 if failures else 0


def _set_by_path(doc: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"sweep path {dotted!r} not found in config")
        node = node[key]
    if not isinstance(node, dict):
        raise ConfigError(f"sweep path {dotted!r} not found in config")
    node[keys[-1]] = value


def _cmd_sweep(args) -> int:
    base = load_config(args.config)
    values = []
    for tok in args.values.split(","):
        tok = tok.strip()
        try:
            values.append(json.loads(tok))
        except json.JSONDecodeError:
            values.append(tok)
    rows = []
    for i, value in enumerate(values):
        doc = copy.deepcopy(base.raw)
        _set_by_path(doc, args.param, value)
        config = _apply_overrides(parse_config(doc, Path(args.config).parent), args)
        out_dir = Path(args.out) / f"sweep_{i}" if args.out else None
        if out_dir is not None:
            summary = _run_outputs(config, out_dir, quiet=True)
        else:
            summary = summary_doc(config, _execute(config))
        rows.append((value, summary))
    if not args.quiet:
        print(f"{args.param:>24}  {'iters':>8}  {'max_residual':>13}  {'phi_final':>12}")
        for value, summary in rows:
            max_res = max(summary["final_residuals"].values())
            phi = summary["phi_final"]
            phi_s = f"{phi:.6g}" if phi is not None else "-"
            print(f"{value!r:>24}  {summary['iters']:>8}  {max_res:>13.3e}  {phi_s:>12}")
    return 0


def _cmd_oracle(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    tol = config.tolerances
    grid = _grid_for(config)
    weights = config.plan_weights()
    out: dict = {}
    argmin = proximity_argmin_oracle(config.problem, weights, grid, tol)
    out["proximity_argmin"] = [float(v) for v in argmin]
    out["proximity_min_value"] = proximity_value(config.problem, weights, argmin)
    out["set_residuals_at_argmin"] = [residual(p, argmin) for p in config.problem.projectors]
    fixed_points = {}
    for sig, op in config.schedule.distinct_operators().items():
        z = fixed_point_oracle(op, config.x0, tol)
        fixed_points[signature_str(sig)] = {
            "point": [float(v) for v in z],
            "residual": residual(op, z),
        }
    out["plan_fixed_points"] = fixed_points
    if config.objective is not None:
        zmin = constrained_min_oracle(config.problem, weights, config.objective, grid, tol)
        out["constrained_min"] = [float(v) for v in zmin]
        out["constrained_min_value"] = config.objective.evaluate(zmin)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gdsa",
        description="Dynamic string-averaging iterations with verification and oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--out": dict(default=None, help="output directory"),
        "--seed": dict(type=int, default=None, help="override the config seed"),
        "--max-iters": dict(type=int, default=None, help="override max iterations"),
        "--tol": dict(type=float, default=None, help="override conv_tol"),
        "--quiet": dict(action="store_true", help="suppress progress output"),
    }
    overrides = ("--seed", "--max-iters", "--tol", "--quiet")
    for name, fn, names in (
        ("run", _cmd_run, ("--out", *overrides)),
        ("verify", _cmd_verify, overrides),
        ("sweep", _cmd_sweep, ("--out", *overrides)),
        ("oracle", _cmd_oracle, ("--tol",)),
    ):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the experiment JSON")
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(handler=fn)
    sub.choices["sweep"].add_argument("--param", required=True, help="dotted config path")
    sub.choices["sweep"].add_argument("--values", required=True, help="comma-separated values")

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (NonFiniteIterateError, NonFiniteObjectiveError, OracleIterationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, RelaxationRangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
