"""Projection operators, their closure under relaxation/averaging/composition,
and sampling-based verifiers for the operator-class inequalities.

Operator expressions are immutable trees.  Leaves are closed-form metric
projections (half-space, hyperplane, ball, box) and the identity; interior
nodes are

* ``Relaxation(T, lam)``:  ``(1 - lam) * Id + lam * T`` with lam in [0, 2],
* ``ConvexCombination``:   positive weights summing to one,
* ``Composition``:         ops applied left to right (``ops[0]`` first).

Every metric projection is firmly nonexpansive (FNE), i.e. satisfies
``<T(x) - T(y), x - y> >= ||T(x) - T(y)||^2``, and hence a nonexpansive
cutter.  ``propagate_alpha`` turns the tree structure into the relaxation
coefficient ``alpha`` for which the expression is an alpha-relaxation of
some FNE operator; the verifiers below check the implied inequalities on
seeded samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    SampleSpec,
    Tolerances,
    _check_dim,
    _common_dim,
    _frozen,
    _row_dots,
    as_vector,
    check_weights,
    norm,
)

__all__ = [
    "AlphaUnknownError",
    "Operator",
    "HalfspaceProjection",
    "HyperplaneProjection",
    "BallProjection",
    "BoxProjection",
    "Identity",
    "Relaxation",
    "ConvexCombination",
    "Composition",
    "FixedPointWitness",
    "CheckReport",
    "apply",
    "residual",
    "propagate_alpha",
    "check_nonexpansive",
    "check_rho_fne",
    "check_cutter",
    "projection_witness_points",
]


class AlphaUnknownError(ValueError):
    """The relaxation calculus does not cover this tree shape; declare alpha explicitly."""


def _is_vector(x) -> bool:
    """A single float64 vector: the leaves' scalar fast paths take only these."""
    return type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64


class Operator:
    """Base class for immutable operator expressions on R^dim.

    ``apply`` may return its argument itself (a point already in a
    half-space, the identity), so callers must not mutate the result in place.
    """

    dim: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class _AffineProjection(Operator):
    """Shared data of the projections onto {u : <a, u> <= b} and {u : <a, u> = b}."""

    a: np.ndarray
    b: float
    declared_alpha: Optional[float] = None
    _aa: float = field(init=False, repr=False)  # <a, a>, computed once

    def __post_init__(self) -> None:
        a = _frozen(as_vector(self.a).copy())
        aa = float(a @ a)
        if aa == 0.0:
            raise ValueError(f"{type(self).__name__} needs a nonzero normal")
        b = float(self.b)
        if not np.isfinite(b):
            raise ValueError(f"{type(self).__name__} needs a finite offset b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_aa", aa)

    @property
    def dim(self) -> int:
        return self.a.size


class HalfspaceProjection(_AffineProjection):
    """Metric projection onto the half-space {u : <a, u> <= b}.

    Points on the boundary are fixed (the positive-part factor is zero there).
    A single vector already inside is returned as the same array.
    """

    def apply(self, x: np.ndarray) -> np.ndarray:
        if _is_vector(x):
            # for a positive stride, ndarray.dot makes the cblas_ddot call of
            # x @ a at less call cost; for a zero or negative one @ runs
            # numpy's own loop, and dot would sum a contiguous copy, which
            # rounds differently
            e = float(x.dot(self.a) if x.strides[0] > 0 else x @ self.a) - self.b
            if e <= 0.0:
                return x
            if e > 0.0:
                return x - (e / self._aa) * self.a
            # e is NaN: the stacked formula below propagates it
        excess = np.maximum(0.0, self._gap(x))
        return x - (excess / self._aa)[..., None] * self.a

    def _gap(self, x: np.ndarray) -> np.ndarray:
        """``<a, x> - b`` by the leaf's own gemv: the excess before its clamp at 0.

        The stacked ``apply`` and the stacked ``residual`` both read it.
        """
        return x @ self.a - self.b


class HyperplaneProjection(_AffineProjection):
    """Metric projection onto the hyperplane {u : <a, u> = b}."""

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x - ((x @ self.a - self.b) / self._aa)[..., None] * self.a


@dataclass(frozen=True, eq=False)
class BallProjection(Operator):
    """Metric projection onto the closed ball of given center and radius."""

    center: np.ndarray
    radius: float
    declared_alpha: Optional[float] = None

    def __post_init__(self) -> None:
        c = _frozen(as_vector(self.center).copy())
        if not 0.0 < float(self.radius) < np.inf:
            raise ValueError("ball radius must be finite and positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        delta = x - self.center
        d = norm(delta)
        if _is_vector(x):
            return self.center + (self.radius / d if d > self.radius else 1.0) * delta
        scale = np.where(d > self.radius, self.radius / np.where(d == 0.0, 1.0, d), 1.0)
        return self.center + scale[..., None] * delta


@dataclass(frozen=True, eq=False)
class BoxProjection(Operator):
    """Componentwise clamp onto the box [lo, hi] (degenerate edges allowed)."""

    lo: np.ndarray
    hi: np.ndarray
    declared_alpha: Optional[float] = None

    def __post_init__(self) -> None:
        lo = _frozen(as_vector(self.lo).copy())
        hi = _frozen(as_vector(self.hi, dim=lo.size).copy())
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        # the method np.clip dispatches to, without its wrapper; np.maximum
        # and np.minimum can differ from it in the sign of a zero at a bound
        return np.asanyarray(x).clip(self.lo, self.hi)


@dataclass(frozen=True, eq=False)
class Identity(Operator):
    """The identity operator."""

    dim: int
    declared_alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)


@dataclass(frozen=True, eq=False)
class Relaxation(Operator):
    """``(1 - lam) * Id + lam * T`` for lam in [0, 2]; lam = 2 is the reflection.

    lam = 0 returns the input unchanged and lam = 1 returns T(x) exactly
    (no arithmetic on those paths), so relaxation endpoints are bit-faithful.
    """

    inner: Operator
    lam: float
    declared_alpha: Optional[float] = None

    def __post_init__(self) -> None:
        lam = float(self.lam)
        if not 0.0 <= lam <= 2.0:
            raise ValueError(f"relaxation parameter must be in [0, 2], got {lam}")
        object.__setattr__(self, "lam", lam)

    @property
    def dim(self) -> int:
        return self.inner.dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.lam == 0.0:
            return np.asarray(x, dtype=float)
        return _relaxed(x, self.inner.apply(x), self.lam)


def _relaxed(x: np.ndarray, tx: np.ndarray, lam: float) -> np.ndarray:
    """The relaxed step ``x + lam * (tx - x)`` from x toward its image tx;
    lam = 1 returns tx itself (no arithmetic)."""
    return tx if lam == 1.0 else x + lam * (tx - x)


class _HalfspaceFamily:
    """Stacked evaluation of ``sum_i w_i P_{H_i}(x)`` over half-spaces, for one vector x.

    Equal bit for bit to the tree's ``w_0 T_0(x) + w_1 T_1(x) + ...``.  The m
    dots are one batched matmul (``core._row_dots``) that runs the ddot of the
    leaves' ``x.dot(a_i)`` per row, x first; a gemv ``A @ x`` is not used
    because it rounds differently.

    A row is moved unless its gap ``g_i = <a_i, x> - b_i`` is at most 0, the
    leaf's own test (a NaN gap counts as moved).  A row not moved never reads
    the matrix: it is ``w_i * x``, as the leaf returns x there.  The moved
    rows are gathered and computed as ``w_i * (x - (g_i / <a_i, a_i>) * a_i)``,
    the leaf's operations in its order.

    Equal weights are stored as one Python float, since numpy multiplies by a
    scalar several times faster than by an (m, 1) column: ``w * x`` is
    computed once for the satisfied rows and the gathered rows are scaled by
    it.  Unequal weights stay an (m, 1) column, applied to the whole buffer
    in one pass.

    The axis-0 reduce adds the rows in order starting from -0.0, the exact
    additive identity, so a sum of -0.0 terms stays -0.0.  numpy adds row by
    row only when the reduced axis is not the fast one in memory, so the
    family needs dimension >= 2; in R^1 it would sum pairwise.
    """

    __slots__ = ("matrix", "b", "aa", "w")

    def __init__(self, terms: tuple[tuple[float, HalfspaceProjection], ...]) -> None:
        leaves = [op for _, op in terms]
        weights = [w for w, _ in terms]
        self.matrix = _frozen(np.stack([op.a for op in leaves]))
        self.b = _frozen(np.array([op.b for op in leaves]))
        self.aa = _frozen(np.array([op._aa for op in leaves]))
        self.w = weights[0] if len(set(weights)) == 1 else _frozen(np.array(weights)[:, None])

    def apply(self, x: np.ndarray) -> np.ndarray:
        gap = _row_dots(x, self.matrix) - self.b
        moved = ~(gap <= 0.0)
        r = self.matrix[moved]
        np.multiply((gap[moved] / self.aa[moved])[:, None], r, out=r)
        np.subtract(x, r, out=r)
        t = np.empty(self.matrix.shape)
        if isinstance(self.w, float):
            t[~moved] = self.w * x
            t[moved] = np.multiply(self.w, r, out=r)
        else:
            t[~moved] = x
            t[moved] = r
            np.multiply(self.w, t, out=t)
        return np.add.reduce(t, axis=0, initial=-0.0)


@dataclass(frozen=True, eq=False)
class ConvexCombination(Operator):
    """Weighted average ``sum_i w_i T_i`` with strictly positive weights summing to one.

    Two or more half-space terms in dimension >= 2 evaluate a single vector
    through a stacked kernel (``_HalfspaceFamily``) equal to the sum below
    bit for bit: its dots are one batched matmul of per-row ddots, the
    leaves' own rounding (a gemv would round differently), a term whose set
    holds x is ``w_i * x`` without reading its normal, equal weights are one
    float, and its sum adds the terms in order.  Stacks of vectors and every
    other mix of terms use the sum.
    """

    terms: tuple[tuple[float, Operator], ...]
    declared_alpha: Optional[float] = None
    _halfspaces: Optional[_HalfspaceFamily] = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("convex combination needs at least one term")
        weights = check_weights([w for w, _ in self.terms], what="convex combination weights")
        terms = tuple(zip(weights, (op for _, op in self.terms)))
        _common_dim("convex combination", (op.dim for _, op in terms))
        object.__setattr__(self, "terms", terms)
        if len(terms) > 1 and self.dim > 1 and all(type(op) is HalfspaceProjection for _, op in terms):
            object.__setattr__(self, "_halfspaces", _HalfspaceFamily(terms))

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self._halfspaces is not None and _is_vector(x):
            return self._halfspaces.apply(x)
        out = self.terms[0][0] * self.terms[0][1].apply(x)
        for w, op in self.terms[1:]:
            out = out + w * op.apply(x)
        return out


@dataclass(frozen=True, eq=False)
class Composition(Operator):
    """Composition applied in list order: ``ops[0]`` first, ``ops[-1]`` last."""

    ops: tuple[Operator, ...]
    declared_alpha: Optional[float] = None

    def __post_init__(self) -> None:
        ops = tuple(self.ops)
        if not ops:
            raise ValueError("composition needs at least one operator")
        _common_dim("composition", (op.dim for op in ops))
        object.__setattr__(self, "ops", ops)

    @property
    def dim(self) -> int:
        return self.ops[0].dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=float)
        for op in self.ops:
            out = op.apply(out)
        return out


def _operand(op: Operator, x) -> np.ndarray:
    """x as a float array, refused unless its last axis has the operator's dimension."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != op.dim:
        raise DimensionMismatchError(f"operator expects dimension {op.dim}, got {x.shape[-1]}")
    return x


def apply(op: Operator, x) -> np.ndarray:
    """Evaluate the operator expression at x (a vector or a stack of vectors)."""
    return op.apply(_operand(op, x))


def residual(op: Operator, x) -> float | np.ndarray:
    """||T(x) - x||, the displacement of x under the operator: a float for a
    vector, the row residuals for a stack of vectors.

    On a stack, a half-space skips the rows it leaves fixed, bit for bit: it
    evaluates ``||(x - (max(0, g) / <a, a>) a) - x||``, g = ``<a, x> - b``,
    only on the rows it moves and writes 0.0 for the others, which is what
    the formula gives there.  A row is fixed when g is finite and at most 0;
    a NaN g, and a g of -inf (an infinite entry, whose ``inf - inf`` makes
    the residual NaN), take the formula.
    """
    x = _operand(op, x)
    if type(op) is not HalfspaceProjection or x.ndim == 1:
        return norm(op.apply(x) - x)
    gap = op._gap(x)
    moved = ~((gap <= 0.0) & (gap > -np.inf))
    out = np.zeros(gap.shape)
    r = x[moved]
    # norm((r - s[:, None] * a) - r) in its elementwise order, in one buffer
    t = np.multiply((np.maximum(0.0, gap[moved]) / op._aa)[:, None], op.a)
    np.subtract(r, t, out=t)
    np.subtract(t, r, out=t)
    np.multiply(t, t, out=t)
    out[moved] = np.sqrt(np.add.reduce(t, axis=-1))
    return out


def propagate_alpha(op: Operator) -> float:
    """Best alpha in (0, 2] for which ``op`` is an alpha-relaxation of an FNE operator.

    Rules: primitives and the identity are FNE (alpha = 1); an alpha-relaxed
    FNE relaxed again by lam is (alpha * lam)-relaxed FNE (relaxations nest
    multiplicatively); a convex combination ``sum_i w_i T_i`` is
    (sum_i w_i alpha_i)-relaxed FNE, because each T_i is
    ``(1 - alpha_i/2) Id + (alpha_i/2) N_i`` with N_i nonexpansive
    (Combettes and Yamada, J. Math. Anal. Appl. 425, 2015), and the mean is
    taken as ``max - sum_i w_i (max - alpha_i)`` so that equal alphas come
    through exactly and it never exceeds the largest; a composition of m
    factors, each rho-FNE with rho = (2 - alpha)/alpha at the worst alpha,
    is (rho/m)-FNE, i.e. 2/(1 + rho/m)-relaxed FNE.  A ``declared_alpha`` set on a node overrides
    the structural rule.  Raises :class:`AlphaUnknownError` when nesting
    pushes alpha outside (0, 2].
    """
    declared = getattr(op, "declared_alpha", None)
    if declared is not None:
        declared = float(declared)
        if not 0.0 < declared <= 2.0:
            raise ValueError(f"declared_alpha must be in (0, 2], got {declared}")
        return declared
    if isinstance(op, (_AffineProjection, BallProjection, BoxProjection, Identity)):
        return 1.0
    if isinstance(op, Relaxation):
        if op.lam == 0.0:
            return 1.0  # the zero relaxation is the identity
        alpha = propagate_alpha(op.inner) * op.lam
        if not 0.0 < alpha <= 2.0:
            raise AlphaUnknownError(
                f"alpha unknown: nested relaxation yields alpha = {alpha:.6g} outside (0, 2]"
            )
        return alpha
    if isinstance(op, ConvexCombination):
        alphas = [propagate_alpha(child) for _, child in op.terms]
        top = max(alphas)
        return top - sum(w * (top - a) for (w, _), a in zip(op.terms, alphas))
    if isinstance(op, Composition):
        alpha_max = max(propagate_alpha(child) for child in op.ops)
        rho = (2.0 - alpha_max) / alpha_max / len(op.ops)
        return 2.0 / (1.0 + rho)
    raise AlphaUnknownError(f"alpha unknown for node type {type(op).__name__}")


@dataclass(frozen=True)
class FixedPointWitness:
    """Finite set of points certified to be fixed points of some operator."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("witness set must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("witness points must be finite")
        object.__setattr__(self, "points", _frozen(pts.copy()))

    def verify(self, op: Operator, tolerances: Tolerances = DEFAULT_TOLERANCES) -> float:
        """Max residual of the witnesses under op; raises if any exceeds eq_tol."""
        res = residual(op, self.points)
        worst = float(np.max(res))
        if worst > tolerances.eq_tol:
            raise ValueError(f"witness point is not fixed: residual {worst:.3e}")
        return worst


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a sampled inequality check.

    ``max_violation`` is the largest amount by which the inequality failed
    over the sample (negative values mean it held with margin); the check
    passes when that does not exceed the slack tolerance.
    """

    check: str
    passed: bool
    max_violation: float
    samples: int


class _Draw:
    """One seeded draw that every sampled check reads, and its operator-independent terms.

    ``gdsa verify`` draws once, applies each operator once to ``xs`` and once
    to ``ys`` (``images``), and hands those images to the nonexpansive,
    rho-FNE and cutter checks.  The cutter reads ``xs``, which is
    ``SampleSpec.points()``.
    """

    def __init__(self, spec: SampleSpec) -> None:
        self.count = spec.count
        self.xs, self.ys = spec.pairs()
        diff = self.xs - self.ys
        self.dist = norm(diff)
        self.sq_dist = np.sum(diff ** 2, axis=-1)

    def images(self, op: Operator) -> tuple[np.ndarray, np.ndarray]:
        return apply(op, self.xs), apply(op, self.ys)

    def nonexpansive(self, tx, ty, tolerances: Tolerances) -> CheckReport:
        viol = norm(tx - ty) - self.dist
        worst = float(np.max(viol))
        return CheckReport("nonexpansive", worst <= tolerances.slack_tol, worst, self.count)

    def rho_fne(self, tx, ty, rho: float, tolerances: Tolerances) -> CheckReport:
        lhs = np.sum((tx - ty) ** 2, axis=-1)
        gap = np.sum(((self.xs - tx) - (self.ys - ty)) ** 2, axis=-1)
        viol = lhs - (self.sq_dist - rho * gap)
        worst = float(np.max(viol))
        return CheckReport(
            f"rho_fne(rho={rho:g})", worst <= tolerances.slack_tol, worst, self.count
        )

    def cutter(self, tx, witness: FixedPointWitness, tolerances: Tolerances) -> CheckReport:
        _check_dim("witness", witness.points.shape[-1], tx.shape[-1])
        step = self.xs - tx
        worst = -np.inf
        for z in witness.points:
            worst = max(worst, float(np.max(np.sum((z - tx) * step, axis=-1))))
        return CheckReport(
            "cutter", worst <= tolerances.slack_tol, worst, self.count * len(witness.points)
        )


def check_nonexpansive(
    op: Operator,
    samples: SampleSpec | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> CheckReport:
    """Sample the nonexpansiveness inequality ||T(x) - T(y)|| <= ||x - y||."""
    draw = _Draw(samples or SampleSpec(dim=op.dim))
    return draw.nonexpansive(*draw.images(op), tolerances)


def check_rho_fne(
    op: Operator,
    rho: float,
    samples: SampleSpec | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> CheckReport:
    """Sample the rho-firm-nonexpansiveness inequality.

    ||T(x) - T(y)||^2 <= ||x - y||^2 - rho * ||(x - T(x)) - (y - T(y))||^2
    """
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    draw = _Draw(samples or SampleSpec(dim=op.dim))
    return draw.rho_fne(*draw.images(op), rho, tolerances)


def check_cutter(
    op: Operator,
    witness: FixedPointWitness,
    samples: SampleSpec | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> CheckReport:
    """Sample the cutter inequality <z - T(x), x - T(x)> <= 0 over witness points z."""
    draw = _Draw(samples or SampleSpec(dim=op.dim))
    return draw.cutter(apply(op, draw.xs), witness, tolerances)


def projection_witness_points(op: Operator, tolerances: Tolerances = DEFAULT_TOLERANCES) -> FixedPointWitness:
    """Fixed points of an idempotent operator: its images of 8 sample points at seed 7.

    Valid for the primitive projections (their image equals their fixed-point
    set); the construction is re-certified by a residual check and raises if
    the operator is not actually idempotent on the sample.
    """
    pts = apply(op, SampleSpec(dim=op.dim, count=8, seed=7).points())
    witness = FixedPointWitness(pts)
    witness.verify(op, tolerances)
    return witness

