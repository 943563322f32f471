"""String plans, string-averaged operators, and control schedules.

A *string* is a finite index sequence ``t = (t1, ..., tq)`` over a family of
base operators ``U_1, ..., U_m``; it selects the composition
``V[t] = U_tq o ... o U_t2 o U_t1`` (t1 applied first).  A *plan* is a
weighted finite set of strings and induces the string-averaged operator
``T = sum_t w(t) V[t]``.  A *control schedule* is an eventually periodic
sequence of plans (finite preamble followed by a cycle repeated forever),
which keeps the limsup-admissibility question decidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import _as_int, _common_dim, check_weights
from .operators import (
    Composition,
    ConvexCombination,
    Operator,
    propagate_alpha,
)

__all__ = [
    "StringPlan",
    "ControlSchedule",
    "AdmissibilityReport",
    "string_operator",
    "averaged_operator",
    "rho_constant",
    "is_fit",
    "check_admissibility",
    "simultaneous_plan",
    "signature_str",
]

PlanSignature = tuple  # nested tuples of ((indices...), weight) pairs


def _index_string(indices) -> tuple[int, ...]:
    """A string ``t = (t1, ..., tq)`` as a tuple of 1-based operator indices."""
    t = tuple(_as_int(i) for i in indices)
    if not t:
        raise ValueError("a string must have length >= 1")
    if min(t) < 1:
        raise ValueError("string indices are 1-based and must be >= 1")
    return t


@dataclass(frozen=True)
class StringPlan:
    """A weighted finite set of strings, each a tuple of 1-based operator
    indices; weights are positive and sum to one."""

    strings: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]
    _signature: PlanSignature = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        strings = tuple(map(_index_string, self.strings))
        if not strings:
            raise ValueError("a plan needs at least one string")
        if len(set(strings)) != len(strings):
            raise ValueError("duplicate strings in plan")
        weights = check_weights(self.weights, len(strings), "plan weights")
        object.__setattr__(self, "strings", strings)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_signature", tuple(sorted(zip(strings, weights))))

    @property
    def q(self) -> int:
        """Length bound of this plan (longest string)."""
        return max(map(len, self.strings))

    def max_index(self) -> int:
        return max(map(max, self.strings))

    def signature(self) -> PlanSignature:
        """Order-independent structural identity: sorted (indices, weight) pairs.

        Weights compare exactly; weights intended equal must be written equal.
        Computed once, at construction.
        """
        return self._signature


def signature_str(sig: PlanSignature) -> str:
    """Compact, comma-free rendering of a plan signature for CSV/JSON keys."""
    return "|".join("-".join(map(str, idx)) + ":" + format(w, ".17g") for idx, w in sig)


def string_operator(operators: tuple[Operator, ...], t) -> Operator:
    """The string operator ``V[t] = U_tq o ... o U_t1`` (first index applied first).

    ``t`` is a sequence of 1-based indices.  A length-1 string yields the
    base operator itself.
    """
    t = _index_string(t)
    if max(t) > len(operators):
        raise IndexError(f"string index {max(t)} out of range for m={len(operators)}")
    chain = tuple(operators[i - 1] for i in t)
    return chain[0] if len(chain) == 1 else Composition(chain)


def averaged_operator(plan: StringPlan, operators: tuple[Operator, ...]) -> Operator:
    """The string-averaged operator ``sum_t w(t) V[t]`` of a plan.

    A single-string plan yields that string operator itself.
    """
    vs = [string_operator(operators, t) for t in plan.strings]
    if len(vs) == 1:
        return vs[0]
    return ConvexCombination(tuple(zip(plan.weights, vs)))


@dataclass(frozen=True, eq=False)
class ControlSchedule:
    """Eventually periodic plan sequence over a fixed operator family.

    The schedule at step k is ``preamble[k]`` while k < len(preamble) and then
    cycles through ``cycle`` forever.
    """

    operators: tuple[Operator, ...]
    cycle: tuple[StringPlan, ...]
    preamble: tuple[StringPlan, ...] = ()
    _op_cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        operators = tuple(self.operators)
        cycle = tuple(self.cycle)
        preamble = tuple(self.preamble)
        if not operators:
            raise ValueError("schedule needs at least one base operator")
        if not cycle:
            raise ValueError("schedule cycle must be nonempty")
        _common_dim("control schedule", (op.dim for op in operators))
        m = len(operators)
        for plan in preamble + cycle:
            if plan.max_index() > m:
                raise ValueError(f"plan references operator {plan.max_index()} but m={m}")
        object.__setattr__(self, "operators", operators)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "preamble", preamble)

    @property
    def dim(self) -> int:
        return self.operators[0].dim

    def all_plans(self) -> tuple[StringPlan, ...]:
        return self.preamble + self.cycle

    @property
    def max_string_length(self) -> int:
        """The bound M on string lengths over the whole schedule."""
        return max(plan.q for plan in self.all_plans())

    def plan_at(self, k: int) -> StringPlan:
        if k < 0:
            raise IndexError("schedule index must be >= 0")
        if k < len(self.preamble):
            return self.preamble[k]
        return self.cycle[(k - len(self.preamble)) % len(self.cycle)]

    def operator_for(self, plan: StringPlan) -> Operator:
        """Averaged operator of a plan, memoized by structural signature."""
        sig = plan.signature()
        op = self._op_cache.get(sig)
        if op is None:
            op = averaged_operator(plan, self.operators)
            self._op_cache[sig] = op
        return op

    def distinct_operators(self) -> dict[PlanSignature, Operator]:
        """One averaged operator per distinct plan signature in the schedule,
        in order of first occurrence."""
        return {plan.signature(): self.operator_for(plan) for plan in self.all_plans()}


def rho_constant(schedule: ControlSchedule) -> float:
    """The step-size constant ``min{ (1/M) * min_i (2 - a_i)/a_i , 1 }``.

    M is the schedule's string-length bound and a_i the relaxation
    coefficient of base operator i (via declaration or structure).  The
    admissible relaxation range of the iteration is [eps, 1 + rho - eps].
    """
    big_m = schedule.max_string_length
    alphas = [propagate_alpha(op) for op in schedule.operators]
    rho_min = min((2.0 - a) / a for a in alphas)
    return min(rho_min / big_m, 1.0)


def is_fit(plan: StringPlan, m: int) -> bool:
    """True iff the plan's strings jointly cover every index 1..m."""
    return set().union(*plan.strings) == set(range(1, m + 1))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the limsup-admissibility decision on an eventually periodic schedule.

    ``admissible`` refers to the full sequence (preamble included): every plan
    must recur with a bounded gap, which for a preamble plan means its
    signature also occurs in the cycle.  ``tail_admissible`` refers to the
    schedule restarted after the preamble (always true here), with ``k0`` the
    restart index.  ``tight_gap_bounds`` maps each recurring signature to its
    minimal recurrence gap when the schedule is admissible (None otherwise).
    """

    admissible: bool
    limsup_set: tuple[PlanSignature, ...]
    violating_index: Optional[int]
    tail_admissible: bool
    k0: int
    tight_gap_bounds: Optional[dict[PlanSignature, int]] = None


def _tight_gaps(
    pre: list[PlanSignature], cyc: list[PlanSignature], limsup: list[PlanSignature]
) -> dict[PlanSignature, int]:
    """Minimal valid recurrence gap per signature: over one preamble + two
    periods (which show every distance of the periodic tail), the largest of its
    first position + 1 and the distances between consecutive occurrences."""
    gaps: dict[PlanSignature, int] = {}
    last: dict[PlanSignature, int] = {}
    for i, sig in enumerate(pre + cyc * 2):
        gaps[sig] = max(gaps.get(sig, 0), i - last.get(sig, -1))
        last[sig] = i
    return {sig: gaps[sig] for sig in limsup}


def check_admissibility(schedule: ControlSchedule) -> AdmissibilityReport:
    """Decide limsup-admissibility of the schedule's plan sequence.

    The signatures occurring in the cycle are exactly those occurring
    infinitely often.  The full sequence is admissible iff every preamble
    signature recurs in the cycle; the tail (cycle-only) sequence is always
    admissible with restart index k0 = len(preamble).
    """
    pre = [plan.signature() for plan in schedule.preamble]
    cyc = [plan.signature() for plan in schedule.cycle]
    limsup = list(dict.fromkeys(cyc))
    violating = next((k for k, sig in enumerate(pre) if sig not in limsup), None)
    admissible = violating is None
    tight = _tight_gaps(pre, cyc, limsup) if admissible else None
    return AdmissibilityReport(
        admissible=admissible,
        limsup_set=tuple(limsup),
        violating_index=violating,
        tail_admissible=True,
        k0=len(pre),
        tight_gap_bounds=tight,
    )


def simultaneous_plan(m: int, weights=None) -> StringPlan:
    """The fully simultaneous plan: one length-1 string per base operator."""
    if weights is None:
        weights = (1.0 / m,) * m
    return StringPlan(tuple((i,) for i in range(1, m + 1)), tuple(weights))

