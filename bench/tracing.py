"""Spans recorded from the benchmark's side of the library's public API.

Each wrapper replaces one attribute that a caller looks up (a module
function such as ``gdsa.cli.write_trace_csv`` or a method such as
``HalfspaceProjection.apply``) with a function that opens a span, calls the
original and closes the span.  ``install`` returns the originals so that
``restore`` can put them back.  Spans live in flat in-memory arrays (name,
start, end, parent, solve id, root) and are saved once, at the end.

A span's self time is its duration minus the durations of its direct
children; the self times of a root span's tree add up to the root's own
duration, which ``accounting`` checks.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Computed (not measured) floating-point operations of one leaf apply on an
# n-vector; comparisons count as one operation.
LEAF_FLOPS = {
    "halfspace": lambda n: 4 * n + 3,  # dot, excess, scale, subtract
    "hyperplane": lambda n: 4 * n + 2,
    "ball": lambda n: 5 * n + 4,  # shift, square-sum, sqrt, scale, shift back
    "box": lambda n: 2 * n,  # two clamps
}


# Largest share of the root spans' time that may fall outside every module.
UNATTRIBUTED_MAX = 0.01


class Tracer:
    """In-memory span store with one open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.solve = array("i")
        self.root = array("i")
        self._stack: list[int] = []
        self._solve = -1
        self._root = -1
        self.root_kind = ""
        # (root kind, counter name) -> total over the run
        self.counters: dict[tuple[str, str], float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self._solve)
        self.root.append(self._root if self._stack else idx)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[(self.root_kind, name)] += amount

    @contextmanager
    def root_span(self, kind: str, solve_id: int):
        """A root span ("solve" or "certify") that groups everything under it."""
        self._solve, self.root_kind = solve_id, kind
        idx = self.begin(self.name_id(kind))
        self._root = idx
        try:
            yield
        finally:
            self.finish(idx)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "solve": np.frombuffer(self.solve, dtype=np.int32),
            "root": np.frombuffer(self.root, dtype=np.int32),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def _span(tracer: Tracer, fn, name: str, after=None):
    nid = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish

    def wrapper(*args, **kwargs):
        idx = begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _leaf(tracer: Tracer, fn, kind: str):
    """Leaf apply: single vectors are the step path, stacks the certification path."""
    single = tracer.name_id("operators.leaf." + kind)
    stacked = tracer.name_id("operators.batched." + kind)
    begin, finish, count = tracer.begin, tracer.finish, tracer.count

    def apply(self, x):
        if np.ndim(x) == 1:
            idx = begin(single)
        else:
            idx = begin(stacked)
            count("operators.batched.rows", np.size(x) // np.shape(x)[-1])
        try:
            return fn(self, x)
        finally:
            finish(idx)

    return apply


def _plan(tracer: Tracer, fn):
    single = tracer.name_id("operators.plan")
    stacked = tracer.name_id("operators.batched.plan")
    begin, finish = tracer.begin, tracer.finish

    def apply(self, x):
        idx = begin(single if np.ndim(x) == 1 else stacked)
        try:
            return fn(self, x)
        finally:
            finish(idx)

    return apply


def _operator_for(tracer: Tracer, fn):
    """Counts plan-cache hits: the memo did not grow during the call."""
    nid = tracer.name_id("strings.operator_for")
    begin, finish, count = tracer.begin, tracer.finish, tracer.count

    def operator_for(self, plan):
        before = len(self._op_cache)
        idx = begin(nid)
        try:
            return fn(self, plan)
        finally:
            finish(idx)
            count("strings.plan_cache.hits", len(self._op_cache) == before)

    return operator_for


def install(tracer: Tracer, gdsa, cli=None) -> list:
    """Wrap every traced attribute; returns (owner, attribute, original) triples."""

    def trace_bytes(_args, trace):
        arrays = (trace.iterates, trace.step_norms, trace.lambdas, trace.perturbations,
                  trace.phi_values, trace.perturb_budget_remaining)
        tracer.count("engine.trace_bytes", sum(a.nbytes for a in arrays if a is not None))
        tracer.count("engine.run.steps", trace.iterations)

    def violating_steps(args, report):
        tolerances = args[4] if len(args) > 4 else gdsa.DEFAULT_TOLERANCES
        tracer.count("engine.fejer_monitor.violating_steps",
                     int(np.sum(report.per_step_min < -tolerances.slack_tol)))

    def csv_bytes(args, _result):
        tracer.count("harness.trace_csv.bytes", Path(args[1]).stat().st_size)

    targets = [
        (gdsa, "run", _span(tracer, gdsa.run, "engine.run", trace_bytes)),
        (gdsa, "fejer_monitor", _span(tracer, gdsa.fejer_monitor, "engine.fejer_monitor", violating_steps)),
        (gdsa, "distance_decay_diagnostic",
         _span(tracer, gdsa.distance_decay_diagnostic, "engine.distance_decay")),
        (gdsa.superiorize, "perturbation_directions",
         _span(tracer, gdsa.superiorize.perturbation_directions, "superiorize.directions")),
        (gdsa.ControlSchedule, "operator_for", _operator_for(tracer, gdsa.ControlSchedule.operator_for)),
        (gdsa.ControlSchedule, "plan_at", _span(tracer, gdsa.ControlSchedule.plan_at, "strings.plan_at")),
        (gdsa.StringPlan, "signature", _span(tracer, gdsa.StringPlan.signature, "strings.signature")),
        (gdsa.ConvexCombination, "apply", _plan(tracer, gdsa.ConvexCombination.apply)),
        (gdsa.Composition, "apply", _plan(tracer, gdsa.Composition.apply)),
        (gdsa.L1Norm, "evaluate", _span(tracer, gdsa.L1Norm.evaluate, "superiorize.objective.evaluate")),
        (gdsa.L1Norm, "subgradient",
         _span(tracer, gdsa.L1Norm.subgradient, "superiorize.objective.subgradient")),
    ]
    for kind, cls in (("halfspace", gdsa.HalfspaceProjection), ("hyperplane", gdsa.HyperplaneProjection),
                      ("ball", gdsa.BallProjection), ("box", gdsa.BoxProjection)):
        targets.append((cls, "apply", _leaf(tracer, cls.apply, kind)))
    if cli is not None:
        targets += [
            (cli, "main", _span(tracer, cli.main, "cli.main")),
            (cli, "run", _span(tracer, cli.run, "engine.run", trace_bytes)),
            (cli, "superiorized_run", _span(tracer, cli.superiorized_run, "engine.run", trace_bytes)),
            (cli, "fejer_monitor", _span(tracer, cli.fejer_monitor, "engine.fejer_monitor", violating_steps)),
            (cli, "load_config", _span(tracer, cli.load_config, "harness.load_config")),
            (cli, "write_trace_csv", _span(tracer, cli.write_trace_csv, "harness.write_trace_csv", csv_bytes)),
            (cli, "write_summary_json", _span(tracer, cli.write_summary_json, "harness.write_summary_json")),
        ]
    originals = []
    for owner, attr, wrapper in targets:
        originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)
    return originals


def restore(originals: list) -> None:
    for owner, attr, original in reversed(originals):
        setattr(owner, attr, original)


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def accounting(tracer: Tracer, root_kind: str) -> dict:
    """Per-module self time under the given root kind, plus the checks.

    Modules are the first component of the span name; the root span's own
    self time (benchmark code and call overhead between spans) is reported as
    ``unattributed``.  ``balanced`` holds when every span lies inside its
    parent, for every root the self times of its tree sum to the root's
    duration, and ``unattributed`` stays under UNATTRIBUTED_MAX of the root
    spans: each root wraps one call into the library, so a larger remainder
    means a span closed early or a call escaped its wrapper.
    """
    spans = tracer.arrays()
    selfs = self_times(spans)
    names = np.array(tracer.names)
    root_nid = tracer.name_id(root_kind)
    roots = np.nonzero(spans["name"] == root_nid)[0]
    in_kind = np.isin(spans["root"], roots)
    modules: dict[str, float] = defaultdict(float)
    per_name: dict[str, tuple[float, int]] = {}
    for nid in np.unique(spans["name"][in_kind]):
        mask = in_kind & (spans["name"] == nid)
        name = str(names[nid])
        module = "unattributed" if nid == root_nid else name.split(".")[0]
        total = float(selfs[mask].sum())
        modules[module] += total
        per_name[name] = (total, int(mask.sum()))
    parent = spans["parent"]
    nested = parent >= 0
    inside = bool(np.all(spans["start"][nested] >= spans["start"][parent[nested]])
                  and np.all(spans["end"][nested] <= spans["end"][parent[nested]]))
    tree_sums = np.bincount(spans["root"], weights=selfs, minlength=len(selfs))[roots]
    root_dur = (spans["end"] - spans["start"])[roots]
    worst_gap = float(np.max(np.abs(tree_sums - root_dur))) if len(roots) else 0.0
    counts_by_solve = _per_solve_counts(spans, in_kind, len(names))
    return {
        "roots": len(roots),
        "root_seconds": float(root_dur.sum()),
        "modules": dict(modules),
        "per_name": per_name,
        "balanced": (inside and worst_gap <= 1e-6
                     and modules["unattributed"] <= UNATTRIBUTED_MAX * float(root_dur.sum())),
        "counts_repeat": bool(len(counts_by_solve) == 0 or np.all(counts_by_solve == counts_by_solve[0])),
    }


def _per_solve_counts(spans, in_kind, n_names) -> np.ndarray:
    """Span counts per (solve, name); each row should repeat exactly."""
    solve, name = spans["solve"][in_kind], spans["name"][in_kind]
    if len(solve) == 0:
        return np.zeros((0, n_names))
    ids, row = np.unique(solve, return_inverse=True)
    table = np.zeros((len(ids), n_names), dtype=np.int64)
    np.add.at(table, (row, name), 1)
    return table
