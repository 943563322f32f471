"""The benchmark's seeded workloads.

Each workload builds its inputs from the seed alone, hands the library only
those inputs, and offers three calls to run.py:

* ``solve(i)``   the timed unit of user work (one run from start point i);
* ``certify(out)`` the certification a user runs after it (timed apart);
* ``check(i, out, certificate)`` untimed, independent correctness checks;
  returns the step count of the solve and a list of failure messages.

The references below use plain numpy, never the library, so a wrong
operator, plan or engine step shows as a mismatch.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import re
from pathlib import Path

import numpy as np

# Halfspace system shared by `cimmino` and `strings`: n unknowns, m sets.
N, M = 1000, 100
STEPS = 100
X0_SCALE = 5.0  # start points sit at ||x0 - z||^2 of about 2.5e4
EPSILON = 0.05
# Final iterates must match the numpy reference to this relative error.
RTOL = 1e-9

# `superiorized-cli`: one set of each leaf kind in R^100.
CLI_N = 100
CLI_FEAS_TOL = 1e-6
# `gdsa verify` compares its sampled slacks with the absolute slack_tol=1e-12
# (ROADMAP item 4).  At n=100 rounding alone reaches that at some seeds
# (1.4e-12 was seen), so a failed check whose violation is at most this much
# is reported as a false failure, not counted as an error.
VERIFY_ROUNDING = 1e-9


def halfspace_system(seed: int):
    """Rows a_i, offsets b_i = a_i.z + u_i with u_i > 0, and the feasible z."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((M, N))
    z = rng.standard_normal(N)
    b = a @ z + rng.uniform(0.1, 1.0, M)
    return a, b, z


def start_point(seed: int, i: int, z: np.ndarray) -> np.ndarray:
    """Start point of solve i; the untimed warm-up solve is i = -1."""
    return z + X0_SCALE * np.random.default_rng([seed, i + 1]).standard_normal(z.size)


def cimmino_reference(a, b, x0, lam, steps):
    """Hand-stacked simultaneous iteration with equal weights."""
    w = np.full(len(b), 1.0 / len(b))
    norms2 = np.einsum("ij,ij->i", a, a)
    x = x0.copy()
    for _ in range(steps):
        x = x - lam * ((w * np.maximum(0.0, a @ x - b) / norms2) @ a)
    return x


def strings_reference(a, b, x0, plans, lam, steps):
    """Row-by-row string averaging; ``plans`` holds (0-based strings, weights)."""
    norms2 = np.einsum("ij,ij->i", a, a)
    x = x0.copy()
    for k in range(steps):
        strings, weights = plans[k % len(plans)]
        tx = np.zeros_like(x)
        for string, w in zip(strings, weights):
            y = x
            for i in string:
                y = y - max(0.0, float(a[i] @ y) - b[i]) / norms2[i] * a[i]
            tx = tx + w * y
        x = x + lam * (tx - x)
    return x


def strings_plans():
    """Contiguous blocks, interleaved blocks, then one ART string (0-based)."""
    contiguous = [tuple(range(25 * j, 25 * (j + 1))) for j in range(4)]
    interleaved = [tuple(range(j, M, 4)) for j in range(4)]
    art = [tuple(range(M))]
    return [(contiguous, (0.25,) * 4), (interleaved, (0.25,) * 4), (art, (1.0,))]


class HalfspaceWorkload:
    """`cimmino` (one simultaneous plan) and `strings` (a cycle of three plans)."""

    dim = N

    def __init__(self, gdsa, seed: int, kind: str) -> None:
        self.seed = seed
        self.a, self.b, self.z = halfspace_system(seed)
        if kind == "cimmino":
            self.lam = 1.0
            cycle = (gdsa.simultaneous_plan(M),)
            self.plans = None
        else:
            self.lam = 0.9
            self.plans = strings_plans()
            cycle = tuple(
                gdsa.StringPlan(tuple(tuple(i + 1 for i in s) for s in strings), weights)
                for strings, weights in self.plans
            )
        self.gdsa = gdsa
        self.sets = tuple(gdsa.HalfspaceProjection(self.a[i], self.b[i]) for i in range(M))
        self.schedule = gdsa.ControlSchedule(operators=self.sets, cycle=cycle)
        self.relax = gdsa.RelaxationSchedule(epsilon=EPSILON, constant=self.lam)
        # window = max_iters: every solve takes exactly STEPS steps.
        self.stop = gdsa.StopRule(step_tol=1e-300, window=STEPS, max_iters=STEPS)
        self.witness = gdsa.FixedPointWitness(self.z[None, :])
        self.rho = gdsa.rho_constant(self.schedule)

    def solve(self, i: int):
        return self.gdsa.run(self.schedule, self.relax, start_point(self.seed, i, self.z), stop=self.stop)

    def certify(self, trace):
        fejer = self.gdsa.fejer_monitor(trace, self.witness, EPSILON, self.rho)
        decay = self.gdsa.distance_decay_diagnostic(trace, self.sets)
        return fejer, decay

    def check(self, i: int, trace, certificate):
        errors = []
        x0 = start_point(self.seed, i, self.z)
        if self.plans is None:
            ref = cimmino_reference(self.a, self.b, x0, self.lam, STEPS)
        else:
            ref = strings_reference(self.a, self.b, x0, self.plans, self.lam, STEPS)
        if trace.iterations != STEPS:
            errors.append(f"solve {i}: {trace.iterations} steps, expected {STEPS}")
        err = float(np.linalg.norm(trace.final - ref) / np.linalg.norm(ref))
        if not err <= RTOL:
            errors.append(f"solve {i}: final iterate off the numpy reference by {err:.3e} (rel)")
        _, decay = certificate
        direct = np.maximum(0.0, trace.iterates @ self.a.T - self.b) / np.linalg.norm(self.a, axis=1)
        gap = float(np.max(np.abs(decay.residuals - direct)))
        if not gap <= RTOL * max(1.0, float(np.max(direct))):
            errors.append(f"solve {i}: distance_decay residuals off by {gap:.3e}")
        return trace.iterations, errors


def cli_config(seed: int) -> dict:
    """Box, ball, halfspace and hyperplane through a common point z, L1 steering."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(CLI_N)
    lo = z - rng.uniform(0.5, 2.0, CLI_N)
    hi = z + rng.uniform(0.5, 2.0, CLI_N)
    center = z + rng.standard_normal(CLI_N)
    radius = 1.2 * float(np.linalg.norm(center - z))
    a_half, a_hyper = rng.standard_normal(CLI_N), rng.standard_normal(CLI_N)
    x0 = z + X0_SCALE * rng.standard_normal(CLI_N)
    return {
        "problem": {
            "dim": CLI_N,
            "sets": [
                {"kind": "box", "lo": lo.tolist(), "hi": hi.tolist()},
                {"kind": "ball", "center": center.tolist(), "radius": radius},
                {"kind": "halfspace", "a": a_half.tolist(), "b": float(a_half @ z) + 1.0},
                {"kind": "hyperplane", "a": a_hyper.tolist(), "b": float(a_hyper @ z)},
            ],
        },
        "schedule": {
            "cycle": [
                {"strings": [[1], [2], [3], [4]], "weights": [0.25] * 4},
                {"strings": [[1, 2, 3, 4]], "weights": [1.0]},
            ]
        },
        "relaxation": {"epsilon": EPSILON, "constant": 1.0},
        "superiorization": {"objective": {"kind": "l1"}, "beta0": 1.0, "decay": 0.995, "steps": 4},
        "seed": seed,
        "x0": x0.tolist(),
        "stop": {"step_tol": 1e-9, "window": 10, "max_iters": 50_000},
    }


def infeasibility(doc: dict, x: np.ndarray) -> float:
    """Largest distance-like violation of the four sets at x, from the raw config."""
    box, ball, half, hyper = doc["problem"]["sets"]
    viol = [
        float(np.max(np.maximum(np.asarray(box["lo"]) - x, x - np.asarray(box["hi"])))),
        float(np.linalg.norm(x - np.asarray(ball["center"]))) - ball["radius"],
        (float(np.asarray(half["a"]) @ x) - half["b"]) / float(np.linalg.norm(half["a"])),
        abs(float(np.asarray(hyper["a"]) @ x) - hyper["b"]) / float(np.linalg.norm(hyper["a"])),
    ]
    return max(0.0, *viol)


class CliWorkload:
    """`superiorized-cli`: in-process ``gdsa run`` on a written config file."""

    dim = CLI_N

    def __init__(self, gdsa, seed: int, workdir: Path) -> None:
        self.cli = importlib.import_module(f"{gdsa.__name__}.cli")  # only this workload loads it
        self.doc = cli_config(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "config.json"
        self.config.write_text(json.dumps(self.doc), encoding="utf-8")
        self.out = workdir / "out"
        self.iters = None  # fixed by the first solve; later ones must agree
        self.digest = None
        self.verify_false_failures = 0

    def solve(self, i: int):
        return self.cli.main(["run", str(self.config), "--out", str(self.out), "--quiet"])

    def certify(self, rc):
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = self.cli.main(["verify", str(self.config), "--quiet"])
        return code, report.getvalue()

    def check(self, i: int, rc, certificate):
        errors = []
        if rc != 0:
            return 0, [f"solve {i}: gdsa run exited {rc}"]
        summary = json.loads((self.out / "summary.json").read_text(encoding="utf-8"))
        digest = hashlib.sha256((self.out / "trace.csv").read_bytes()).hexdigest()
        iters = int(summary["iters"])
        if self.iters is None:
            self.iters, self.digest = iters, digest
        if not summary["converged"]:
            errors.append(f"solve {i}: not converged after {iters} steps")
        if iters != self.iters or digest != self.digest:
            errors.append(f"solve {i}: {iters} steps, trace.csv {digest[:12]}; first solve gave "
                          f"{self.iters} steps, {self.digest[:12]}")
        gap = infeasibility(self.doc, np.asarray(summary["final_x"]))
        if not gap <= CLI_FEAS_TOL:
            errors.append(f"solve {i}: final point violates a set by {gap:.3e}")
        code, report = certificate
        if code != 0:
            failed = [line for line in report.splitlines() if line.startswith("[FAIL]")]
            sizes = [re.search(r"(?:max_violation|min_slack)=(\S+)", line) for line in failed]
            if code == 1 and failed and all(m and abs(float(m[1])) <= VERIFY_ROUNDING for m in sizes):
                self.verify_false_failures += 1
            else:
                errors.append(f"solve {i}: gdsa verify exited {code}: {failed[:2]}")
        return iters, errors


WORKLOADS = ("cimmino", "strings", "superiorized-cli")


def build(name: str, gdsa, seed: int, workdir: Path):
    if name == "superiorized-cli":
        return CliWorkload(gdsa, seed, workdir)
    return HalfspaceWorkload(gdsa, seed, name)
