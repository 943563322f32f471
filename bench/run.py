"""gdsa benchmark: one workload, one process.

    python3 bench/run.py --workload cimmino --seed 1 --seconds 30 --trace 0

Runs one seeded workload against the library in ``src/`` for about
``--seconds`` seconds in this single process, checks every output, and
prints a human-readable report followed, on the last line, by one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones, from spans recorded around the
library's public functions and methods (see tracing.py and METRICS.md).
Exit status 0 means the benchmark ran; correctness is in the JSON.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes
import ctypes.util

# glibc otherwise moves its mmap and trim thresholds as blocks are freed, so
# whether each ~800 KB temporary costs fresh page faults depends on the
# allocation history of the process: certification on `cimmino` took 40 ms
# in some processes and 90 ms in others, more than half of it in the kernel.  Fixed thresholds make every process serve them from the heap.
_libc = ctypes.CDLL(ctypes.util.find_library("c"))
if hasattr(_libc, "mallopt"):
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: the largest glibc allows
    _libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# setup_s comes from at least MIN_SETUPS set-ups, and more where set-up is
# quick, so that set-ups take about SETUP_SHARE of the run; they are spread
# evenly over it.
MIN_SETUPS = 5
SETUP_SHARE = 0.1
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


def import_gdsa():
    """A fresh import of the library from ``src/`` (earlier copies are dropped)."""
    for name in [n for n in sys.modules if n == "gdsa" or n.startswith("gdsa.")]:
        del sys.modules[name]
    gdsa = importlib.import_module("gdsa")
    if Path(gdsa.__file__).resolve().parent != SRC / "gdsa":
        raise ImportError(f"gdsa was imported from {gdsa.__file__}, not from {SRC}")
    return gdsa


class Setup:
    """One timed set-up per call: fresh import, building the inputs, and one
    untimed warm-up solve.  Returns the library, the workload and the warm-up
    output."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name, self.seed, self.workdir = name, seed, workdir
        self.times: list[float] = []

    def __call__(self):
        t0 = time.perf_counter()
        gdsa = import_gdsa()
        wl = workloads.build(self.name, gdsa, self.seed, self.workdir)
        out = wl.solve(-1)
        self.times.append(time.perf_counter() - t0)
        return gdsa, wl, out


class Samples:
    """Per-solve timings, step counts and check failures."""

    def __init__(self) -> None:
        self.solve_s: list[float] = []
        self.certify_s: list[float] = []
        self.steps: list[int] = []
        self.failed = 0
        self.errors: list[str] = []

    def run(self, wl, i: int, tracer=None) -> None:
        """Solve i, certify it (each timed, inside root spans when traced), check it."""
        if tracer is None:
            t0 = time.perf_counter()
            out = wl.solve(i)
            t1 = time.perf_counter()
            cert = wl.certify(out)
            t2 = time.perf_counter()
        else:
            with tracer.root_span("solve", i):
                t0 = time.perf_counter()
                out = wl.solve(i)
                t1 = time.perf_counter()
            with tracer.root_span("certify", i):
                cert = wl.certify(out)
                t2 = time.perf_counter()
        steps, errors = wl.check(i, out, cert)
        self.solve_s.append(t1 - t0)
        self.certify_s.append(t2 - t1)
        self.steps.append(steps)
        if errors:
            self.failed += 1
            self.errors += errors


def measure_loop(wl, seconds: float, setup: Setup) -> Samples:
    """Solve until ``seconds`` have passed (at least once), timing the
    remaining set-ups at evenly spaced moments in between."""
    setups = max(MIN_SETUPS, math.ceil(SETUP_SHARE * seconds / setup.times[0]))
    s = Samples()
    start = time.perf_counter()
    i = 0
    while True:
        s.run(wl, i)
        i += 1
        elapsed = time.perf_counter() - start
        if len(setup.times) < setups and elapsed >= len(setup.times) * seconds / setups:
            setup()
        if elapsed >= seconds:
            break
    while len(setup.times) < setups:
        setup()
    return s


def trace_loop(wl, seconds: float, gdsa, tracer) -> tuple[Samples, Samples]:
    """Alternate untraced and traced solves until ``seconds`` have passed, so
    both sides of the tracing overhead see the same machine state."""
    untraced, traced = Samples(), Samples()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        untraced.run(wl, i)
        originals = tracing.install(tracer, gdsa, getattr(wl, "cli", None))
        try:
            traced.run(wl, i + 1, tracer)
        finally:
            tracing.restore(originals)
        i += 2
        if time.perf_counter() >= deadline:
            return untraced, traced


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples above it: value, level
    and the number of samples beyond it.

    With TAIL_BEYOND samples or fewer this is the maximum (level 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def end_to_end(setup_times, s: Samples) -> tuple[dict, list[str]]:
    solve_ms = [1e3 * t for t in s.solve_s]
    certify_ms = [1e3 * t for t in s.certify_s]
    rates = [n / t for n, t in zip(s.steps, s.solve_s)]
    tail_ms, level, beyond = tail(solve_ms)
    n = len(solve_ms)
    # Timings are gated at high percentiles (rates at p10), not at the median.
    # On the host used to size the benchmark (2 shared cores) the CPU ran for
    # seconds at a time at one of two speeds about 1.7x apart, and every run
    # spent most of its time at the slower one: across processes, per-run
    # medians moved by up to 25 % while p90 moved by under 10 %.
    metrics = {
        "setup_s": (float(np.percentile(setup_times, 90)), "s", f"n={len(setup_times)} set-ups"),
        "solve_ms_p90": (float(np.percentile(solve_ms, 90)), "ms", f"n={n} solves"),
        "solve_ms_tail": (tail_ms, "ms", f"p{level:.1f} of n={n} solves, {beyond} beyond"),
        "steps_per_s_p10": (float(np.percentile(rates, 10)), "1/s", f"per-solve rate, {sum(s.steps)} steps in n={n} solves"),
        "certify_ms_p90": (float(np.percentile(certify_ms, 90)), "ms", f"n={n} certifications"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss"),
    }
    lines = [f"{k:<17} {v:>14.6g} {u:<4} ({note})" for k, (v, u, note) in metrics.items()]
    lines += [
        f"{'solve_ms_p50':<17} {statistics.median(solve_ms):>14.6g} ms   (n={n} solves; not gated)",
        f"{'steps_per_s':<17} {sum(s.steps) / sum(s.solve_s):>14.6g} 1/s  "
        f"(total steps / total solve time; not gated)",
        f"{'certify_ms_p50':<17} {statistics.median(certify_ms):>14.6g} ms   (n={n}; not gated)",
        f"{'error_rate':<17} {s.failed / n:>14.6g} 1    ({s.failed} of n={n} solves failed a check)",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def per_layer(tracer, untraced: Samples, traced: Samples, wl) -> tuple[dict, list[str], bool]:
    solve = tracing.accounting(tracer, "solve")
    cert = tracing.accounting(tracer, "certify")
    n_s, n_c = solve["roots"], cert["roots"]
    steps = tracer.counters[("solve", "engine.run.steps")]
    us_step = 1e6 / steps
    ms_solve, ms_cert = 1e3 / n_s, 1e3 / n_c

    def self_s(acc, *prefixes):
        return sum(t for k, (t, _) in acc["per_name"].items() if k.startswith(prefixes))

    def calls(acc, span, per):
        return acc["per_name"].get(span, (0.0, 0))[1] / per

    kinds = ("halfspace", "hyperplane", "ball", "box")
    leaf_calls = {k: calls(solve, "operators.leaf." + k, 1) for k in kinds}
    leaf_s = self_s(solve, "operators.leaf.")
    flops = sum(leaf_calls[k] * tracing.LEAF_FLOPS[k](wl.dim) for k in kinds)
    op_for = calls(solve, "strings.operator_for", 1)
    counters = tracer.counters
    m = {
        "operators.leaf.self_us_per_step": (leaf_s * us_step, "us/step"),
        **{f"operators.leaf.calls.{k}": (leaf_calls[k] / n_s, "count") for k in kinds},
        "operators.leaf.computed_flops_per_step": (flops / steps, "flop/step"),
        "operators.leaf.gflops": (flops / leaf_s / 1e9 if leaf_s else 0.0, "GFLOP/s"),
        "operators.plan.self_us_per_step": (self_s(solve, "operators.plan") * us_step, "us/step"),
        "operators.batched.ms": (self_s(cert, "operators.batched.") * ms_cert, "ms"),
        "operators.batched.rows": (counters[("certify", "operators.batched.rows")] / n_c, "count"),
        "strings.operator_for.self_us_per_step": (self_s(solve, "strings.operator_for") * us_step, "us/step"),
        "strings.plan_at.calls": (calls(solve, "strings.plan_at", n_s), "count"),
        "strings.signature.calls": (calls(solve, "strings.signature", n_s), "count"),
        "strings.plan_cache.hit_ratio": (
            counters[("solve", "strings.plan_cache.hits")] / op_for if op_for else 0.0, "ratio"),
        "engine.run.self_us_per_step": (self_s(solve, "engine.run") * us_step, "us/step"),
        "engine.steps": (steps / n_s, "count"),
        "engine.trace_bytes_per_step": (counters[("solve", "engine.trace_bytes")] / steps, "B/step"),
        "engine.fejer_monitor.ms": (self_s(cert, "engine.fejer_monitor") * ms_cert, "ms"),
        "engine.distance_decay.ms": (self_s(cert, "engine.distance_decay") * ms_cert, "ms"),
        "engine.fejer_monitor.violating_steps": (
            counters[("certify", "engine.fejer_monitor.violating_steps")] / n_c, "count"),
        "superiorize.directions.self_us_per_step": (
            self_s(solve, "superiorize.directions") * us_step, "us/step"),
        "superiorize.objective.evaluate.calls": (
            calls(solve, "superiorize.objective.evaluate", n_s), "count"),
        "superiorize.objective.subgradient.calls": (
            calls(solve, "superiorize.objective.subgradient", n_s), "count"),
        "harness.load_config.ms": (self_s(solve, "harness.load_config") * ms_solve, "ms"),
        "harness.write_trace_csv.ms": (self_s(solve, "harness.write_trace_csv") * ms_solve, "ms"),
        "harness.trace_csv.bytes": (counters[("solve", "harness.trace_csv.bytes")] / n_s, "B"),
        "harness.write_summary_json.ms": (self_s(solve, "harness.write_summary_json") * ms_solve, "ms"),
        "cli.main.self_ms": (self_s(solve, "cli.main") * ms_solve, "ms"),
        # warm-up, untraced and traced certifications all count here
        "cli.verify.false_failures": (
            getattr(wl, "verify_false_failures", 0) / (1 + len(untraced.solve_s) + len(traced.solve_s)), "count"),
        "trace.overhead_ms": (1e3 * (statistics.median(traced.solve_s) - statistics.median(untraced.solve_s)), "ms"),
        "trace.unattributed_us_per_step": (solve["modules"].get("unattributed", 0.0) * us_step, "us/step"),
    }
    lines = [f"{k:<44} {v:>14.6g} {u}" for k, (v, u) in m.items()]
    for label, acc in (("solve", solve), ("certify", cert)):
        parts = ", ".join(f"{mod} {1e3 * t / acc['roots']:.3f}" for mod, t in sorted(acc["modules"].items()))
        total = 1e3 * sum(acc["modules"].values()) / acc["roots"]
        span = 1e3 * acc["root_seconds"] / acc["roots"]
        lines.append(f"accounting {label} (ms per span, n={acc['roots']}): {parts}; "
                     f"sum {total:.3f} vs span {span:.3f}; balanced={acc['balanced']} "
                     f"counts_repeat={acc['counts_repeat']}")
    lines.append(f"tracing overhead: traced solve p50 {1e3 * statistics.median(traced.solve_s):.3f} ms "
                 f"(n={len(traced.solve_s)}) vs untraced {1e3 * statistics.median(untraced.solve_s):.3f} ms "
                 f"(n={len(untraced.solve_s)})")
    ok = solve["balanced"] and cert["balanced"] and solve["counts_repeat"] and cert["counts_repeat"]
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, lines, ok


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object, report lines and extras."""
    workdir = OUT / f"{name}-{os.getpid()}"
    try:
        setup = Setup(name, seed, workdir)
        gdsa, wl, warm = setup()
        _, warm_errors = wl.check(-1, warm, wl.certify(warm))
        if not trace:
            s = measure_loop(wl, seconds, setup)
            metrics, lines = end_to_end(setup.times, s)
            ok = True
        else:
            tracer = tracing.Tracer()
            untraced, s = trace_loop(wl, seconds, gdsa, tracer)
            tracer.save(OUT / f"spans-{name}.npz")
            metrics, lines, ok = per_layer(tracer, untraced, s, wl)
            s.failed += untraced.failed
            s.errors = untraced.errors + s.errors
            s.solve_s = untraced.solve_s + s.solve_s
        errors = warm_errors + s.errors
        if isinstance(wl, workloads.CliWorkload):
            lines.append(f"trace.csv sha256 {wl.digest} ({wl.iters} steps, same on every solve: "
                         f"{not any('trace.csv' in e for e in errors)})")
            lines.append(f"gdsa verify false failures: {wl.verify_false_failures} of {1 + len(s.solve_s)} "
                         f"certifications failed only by rounding-level slacks (not counted)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": ok and s.failed == 0 and not warm_errors, "attempted": len(s.solve_s),
              "failed": s.failed, "metrics": metrics}
    return {"result": result, "lines": lines, "errors": errors,
            "trace_csv_sha256": getattr(wl, "digest", None)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gdsa benchmark (see bench/METRICS.md)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gdsa" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'gdsa'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    print(f"# gdsa benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in run["lines"]:
        print(line)
    for error in run["errors"][:20]:
        print("FAILED CHECK:", error)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
