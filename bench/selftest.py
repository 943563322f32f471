"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py

Runs each workload traced twice, at one seed and in this process, and
requires:

* accounting: in both runs, the per-module self times plus ``unattributed``
  sum to every root span, and each span lies inside its parent (the run's
  ``correct`` flag covers this and the output checks);
* exact counts: the counters below are identical in both runs, as is the
  trace.csv digest of ``superiorized-cli``.

Exits 1 if any requirement fails.
"""

from __future__ import annotations

import sys

import run  # sets the thread-count variables before numpy is imported
import workloads

EXACT = (
    "engine.steps",
    "operators.leaf.calls.halfspace",
    "operators.leaf.calls.hyperplane",
    "operators.leaf.calls.ball",
    "operators.leaf.calls.box",
    "strings.signature.calls",
    "engine.trace_bytes_per_step",
    "harness.trace_csv.bytes",
)
SEED = 7
SECONDS = 2.0


def main() -> int:
    if not (run.SRC / "gdsa" / "__init__.py").is_file():
        print(f"error: no library sources at {run.SRC / 'gdsa'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    failures = []
    for name in workloads.WORKLOADS:
        first, second = (run.measure(name, SEED, SECONDS, trace=True) for _ in range(2))
        for label, r in (("first", first), ("second", second)):
            if not r["result"]["correct"]:
                failures.append(f"{name}: {label} run not correct: {r['errors'][:3]}")
        for key in EXACT:
            a = first["result"]["metrics"][key]["value"]
            b = second["result"]["metrics"][key]["value"]
            if a != b:
                failures.append(f"{name}: {key} differs between runs: {a!r} vs {b!r}")
        if first.get("trace_csv_sha256") != second.get("trace_csv_sha256"):
            failures.append(f"{name}: trace.csv digest differs between runs")
        overhead = first["result"]["metrics"]["trace.overhead_ms"]["value"]
        print(f"{name}: accounting and exact counts checked; tracing overhead {overhead:.3f} ms/solve")
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
