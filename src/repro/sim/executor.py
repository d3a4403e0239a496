"""Functional execution of kernels — the correctness oracle.

Two entry points:

* :func:`run_scalar` interprets the kernel with C scalar semantics,
  one iteration at a time, and records branch statistics (used both to
  weight branchy scalar code in the timing model and as ground truth in
  equivalence tests);
* :func:`run_vector` emulates the *vectorized* execution of a plan:
  blocks of VF lanes, statement-at-a-time, if-converted masks, masked
  stores, lane-parallel reduction accumulators with a horizontal
  combine, and a scalar remainder loop.

The central invariant of the whole system — tested property-style over
the TSVC suite — is that for every legal plan both executions produce
the same buffers and live-out scalars (up to float reassociation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..analysis.reduction import REDUCTION_IDENTITY, ScalarClass
from ..ir.expr import (
    Affine,
    BinOp,
    BinOpKind,
    Compare,
    Const,
    Convert,
    Expr,
    Indirect,
    IterValue,
    Load,
    ScalarRef,
    Select,
    UnOp,
)
from ..ir.kernel import LoopKernel
from ..ir.stmt import ArrayStore, IfBlock, ScalarAssign, walk_stmts
from ..ir.types import DType
from ..settings import current
from ..vectorize.plan import VectorizationPlan
from . import ufuncs
from .ufuncs import BINOPS, CMPS, NP_DTYPE, UNOPS, cast_value


def make_buffers(kernel: LoopKernel, seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic test data for a kernel.

    Float arrays get values in (-1, 1) (so sign guards split), integer
    arrays get a permutation folded into the smallest array extent so
    indirect subscripts stay in bounds.
    """
    rng = np.random.default_rng(seed)
    if not kernel.arrays:
        return {}
    min_len = min(int(np.prod(d.extents)) for d in kernel.arrays.values())
    bufs: dict[str, np.ndarray] = {}
    for name, decl in kernel.arrays.items():
        n = int(np.prod(decl.extents))
        if decl.dtype.is_int:
            vals = (rng.permutation(n) % min_len).astype(NP_DTYPE[decl.dtype])
        else:
            vals = rng.uniform(-1.0, 1.0, size=n).astype(NP_DTYPE[decl.dtype])
        bufs[name] = vals.reshape(decl.extents)
    return bufs


def initial_scalars(kernel: LoopKernel) -> dict[str, np.generic]:
    return {
        name: NP_DTYPE[decl.dtype](decl.init)
        for name, decl in kernel.scalars.items()
    }


@dataclass
class ExecResult:
    scalars: dict[str, float]
    #: pre-order IfBlock index -> fraction of evaluations that took the
    #: then-branch (scalar runs only).
    guard_probs: dict[int, float] = field(default_factory=dict)
    iterations: int = 0


class _Ctx:
    """Evaluation context shared by the scalar and vector interpreters."""

    __slots__ = ("bufs", "scalars", "ivals")

    def __init__(self, bufs, scalars, ivals):
        self.bufs = bufs
        self.scalars = scalars
        self.ivals = ivals  # per loop level: int or int ndarray (lanes)


def _eval_index(ix, ctx: _Ctx):
    if isinstance(ix, Affine):
        val = ix.offset
        for lvl, c in enumerate(ix.coeffs):
            if c:
                val = val + c * ctx.ivals[lvl]
        return val
    assert isinstance(ix, Indirect)
    inner = _eval_index(ix.index, ctx)
    return ctx.bufs[ix.array][inner].astype(np.int64, copy=False)


def eval_expr(expr: Expr, ctx: _Ctx):
    """Evaluate an expression; works lane-parallel when indices are arrays."""
    if isinstance(expr, Const):
        return NP_DTYPE[expr.dtype](expr.value)
    if isinstance(expr, ScalarRef):
        return ctx.scalars[expr.name]
    if isinstance(expr, IterValue):
        v = ctx.ivals[expr.level]
        return np.asarray(v, dtype=np.int32) if isinstance(v, np.ndarray) else np.int32(v)
    if isinstance(expr, Load):
        idxs = tuple(_eval_index(ix, ctx) for ix in expr.subscript)
        return ctx.bufs[expr.array][idxs]
    if isinstance(expr, Convert):
        return _cast(eval_expr(expr.operand, ctx), expr.dtype)
    if isinstance(expr, UnOp):
        x = eval_expr(expr.operand, ctx)
        return UNOPS[expr.op](x)
    if isinstance(expr, BinOp):
        a = eval_expr(expr.lhs, ctx)
        b = eval_expr(expr.rhs, ctx)
        if expr.op not in (BinOpKind.SHL, BinOpKind.SHR):
            a = _cast(a, expr.dtype)
            b = _cast(b, expr.dtype)
        return _cast(BINOPS[expr.op](a, b), expr.dtype)
    if isinstance(expr, Compare):
        a = eval_expr(expr.lhs, ctx)
        b = eval_expr(expr.rhs, ctx)
        return CMPS[expr.op](a, b)
    if isinstance(expr, Select):
        c = eval_expr(expr.cond, ctx)
        t = _cast(eval_expr(expr.if_true, ctx), expr.dtype)
        f = _cast(eval_expr(expr.if_false, ctx), expr.dtype)
        out = np.where(c, t, f)
        return out if out.shape else out[()]
    raise TypeError(f"cannot evaluate {type(expr).__name__}")


def _cast(x, dtype: DType):
    return cast_value(x, NP_DTYPE[dtype])


# ---------------------------------------------------------------------------
# Scalar interpretation
# ---------------------------------------------------------------------------


class _GuardStats:
    """Taken/seen counts per guard, numbered in static pre-order.

    Guard ``n`` is the n-th ``IfBlock`` of ``walk_stmts(body)`` — the
    numbering the lowerers read ``guard_probs`` by — whichever guard
    happens to execute first.
    """

    def __init__(self, body):
        self.taken: dict[int, int] = {}
        self.seen: dict[int, int] = {}
        self._order: dict[int, int] = {}  # id(stmt) -> pre-order index
        guards = (s for s in walk_stmts(body) if isinstance(s, IfBlock))
        for n, stmt in enumerate(guards):
            self._order.setdefault(id(stmt), n)

    def index_of(self, stmt: IfBlock) -> int:
        return self._order[id(stmt)]

    def record(self, idx: int, taken: int, seen: int = 1) -> None:
        self.seen[idx] = self.seen.get(idx, 0) + seen
        self.taken[idx] = self.taken.get(idx, 0) + taken

    def probs(self) -> dict[int, float]:
        return {idx: self.taken[idx] / self.seen[idx] for idx in sorted(self.seen)}


def truncated_trips(
    kernel: LoopKernel, max_inner_iters: Optional[int]
) -> tuple[int, int]:
    """``(outer, inner)`` trips of a run truncated to ``max_inner_iters``.

    The inner loop keeps ``min(trip, max_inner_iters)`` iterations and a
    depth-2 kernel's outer loop ``min(trip, max_inner_iters // 4)``: a
    512-iteration sample is 512 × 128 = 65,536 iterations at most.
    """
    inner_trip = kernel.inner.trip
    outer_trip = 1 if kernel.depth == 1 else kernel.loops[0].trip
    if max_inner_iters is not None:
        inner_trip = min(inner_trip, max_inner_iters)
        if kernel.depth > 1:
            outer_trip = min(outer_trip, max(1, max_inner_iters // 4))
    return outer_trip, inner_trip


def run_scalar(
    kernel: LoopKernel,
    bufs: dict[str, np.ndarray],
    scalars: Optional[dict] = None,
    max_inner_iters: Optional[int] = None,
) -> ExecResult:
    """Execute the kernel with C scalar semantics, mutating ``bufs``.

    Interprets the kernel (:func:`run_scalar_interpreted`) and emits a
    diagnostics remark when the sqrt domain guard rewrote a negative
    input.  ``max_inner_iters`` truncates the inner trip count (used
    for cheap branch-probability estimation).
    """
    fires_before = ufuncs.sqrt_guard_fires()
    result = run_scalar_interpreted(kernel, bufs, scalars, max_inner_iters)
    if ufuncs.sqrt_guard_fires() > fires_before:
        _remark(
            kernel,
            "sqrt domain guard fired: negative input evaluated as sqrt(|x|)",
        )
    return result


def _remark(kernel: LoopKernel, message: str) -> None:
    from ..analysis.framework.passmanager import default_manager

    default_manager().diagnostics.remark("executor", kernel.name, message)


def run_scalar_interpreted(
    kernel: LoopKernel,
    bufs: dict[str, np.ndarray],
    scalars: Optional[dict] = None,
    max_inner_iters: Optional[int] = None,
) -> ExecResult:
    """Interpret the kernel with scalar semantics, mutating ``bufs``.

    One iteration at a time, one tree walk per statement: slow, simple,
    and the semantic ground truth of the whole system.
    """
    env = dict(scalars) if scalars is not None else initial_scalars(kernel)
    stats = _GuardStats(kernel.body)
    outer_trip, inner_trip = truncated_trips(kernel, max_inner_iters)
    total = 0
    with np.errstate(all="ignore"):
        for outer in range(outer_trip):
            for inner in range(inner_trip):
                ivals = (inner,) if kernel.depth == 1 else (outer, inner)
                ctx = _Ctx(bufs, env, ivals)
                _exec_stmts_scalar(kernel, kernel.body, ctx, stats)
                total += 1
    return ExecResult(scalars=env, guard_probs=stats.probs(), iterations=total)


def _exec_stmts_scalar(kernel, stmts, ctx: _Ctx, stats: _GuardStats) -> None:
    for stmt in stmts:
        if isinstance(stmt, ArrayStore):
            val = eval_expr(stmt.value, ctx)
            decl = kernel.arrays[stmt.array]
            idxs = tuple(int(_eval_index(ix, ctx)) for ix in stmt.subscript)
            ctx.bufs[stmt.array][idxs] = _cast(val, decl.dtype)
        elif isinstance(stmt, ScalarAssign):
            decl = kernel.scalars[stmt.name]
            ctx.scalars[stmt.name] = _cast(eval_expr(stmt.value, ctx), decl.dtype)
        elif isinstance(stmt, IfBlock):
            taken = bool(eval_expr(stmt.cond, ctx))
            stats.record(stats.index_of(stmt), int(taken))
            body = stmt.then_body if taken else stmt.else_body
            _exec_stmts_scalar(kernel, body, ctx, stats)
        else:
            raise TypeError(f"cannot execute {type(stmt).__name__}")


# ---------------------------------------------------------------------------
# Guard counts over the iteration grid
# ---------------------------------------------------------------------------


def guards_read_inputs_only(kernel: LoopKernel) -> bool:
    """True when no guard reads data the loop writes.

    That is: no guard condition loads an array the loop stores to (as
    the loaded array or as an ``Indirect`` index array), and none reads
    a scalar the loop assigns.  Every guard then sees the kernel's
    initial data on every iteration, whatever the body does.
    """
    written = kernel.arrays_written()
    assigned = kernel.assigned_scalars()
    for stmt in kernel.stmts():
        if not isinstance(stmt, IfBlock):
            continue
        for node in stmt.cond.walk():
            if isinstance(node, ScalarRef) and node.name in assigned:
                return False
            if isinstance(node, Load):
                if node.array in written:
                    return False
                if any(_indirect_arrays(ix) & written for ix in node.subscript):
                    return False
    return True


def _indirect_arrays(ix) -> set[str]:
    names: set[str] = set()
    while isinstance(ix, Indirect):
        names.add(ix.array)
        ix = ix.index
    return names


def count_guards(
    kernel: LoopKernel,
    bufs: dict[str, np.ndarray],
    max_inner_iters: Optional[int] = None,
) -> ExecResult:
    """Guard statistics of a truncated scalar run, without running it.

    Only for kernels where :func:`guards_read_inputs_only` holds: each
    guard is evaluated once, lane-parallel, over the same iteration
    grid :func:`run_scalar_interpreted` walks, and a nested guard only
    over the iterations its enclosing branch runs.  Taken and seen are
    the interpreter's integers, so ``guard_probs`` equals its dict
    exactly.  ``bufs`` is only read.
    """
    outer_trip, inner_trip = truncated_trips(kernel, max_inner_iters)
    inner = np.arange(inner_trip, dtype=np.int64)
    if kernel.depth == 1:
        ivals = (inner,)
    else:
        outer = np.arange(outer_trip, dtype=np.int64)
        ivals = (np.repeat(outer, inner_trip), np.tile(inner, outer_trip))
    stats = _GuardStats(kernel.body)
    with np.errstate(all="ignore"):
        _count_guards(kernel.body, _Ctx(bufs, initial_scalars(kernel), ivals), stats)
    return ExecResult(
        scalars={}, guard_probs=stats.probs(), iterations=outer_trip * inner_trip
    )


def _count_guards(stmts, ctx: _Ctx, stats: _GuardStats) -> None:
    n = len(ctx.ivals[-1])
    for stmt in stmts:
        if not isinstance(stmt, IfBlock):
            continue
        cond = np.asarray(eval_expr(stmt.cond, ctx)).astype(bool)
        cond = np.broadcast_to(cond, (n,))
        taken = int(np.count_nonzero(cond))
        stats.record(stats.index_of(stmt), taken, n)
        for body, mask, runs in (
            (stmt.then_body, cond, taken),
            (stmt.else_body, ~cond, n - taken),
        ):
            if runs:
                ivals = tuple(iv[mask] for iv in ctx.ivals)
                _count_guards(body, _Ctx(ctx.bufs, ctx.scalars, ivals), stats)


# ---------------------------------------------------------------------------
# Vectorized interpretation
# ---------------------------------------------------------------------------


def make_lane_env(
    kernel: LoopKernel,
    scalar_info: dict,
    env_in: dict,
    vf: int,
) -> tuple[dict, dict]:
    """Lane-expand the written scalars for a VF-lane execution.

    Reductions become identity-filled accumulators seeded in lane 0,
    privates are broadcast, parameters pass through unexpanded.
    Returns ``(lane_env, red_ops)``.
    """
    lane_env: dict = {}
    red_ops: dict[str, BinOpKind] = {}
    for name, decl in kernel.scalars.items():
        info = scalar_info.get(name)
        npdt = NP_DTYPE[decl.dtype]
        if info is not None and info.klass is ScalarClass.REDUCTION:
            assert info.op is not None
            ident = REDUCTION_IDENTITY[info.op]
            acc = np.full(vf, ident, dtype=npdt)
            acc[0] = env_in[name]
            lane_env[name] = acc
            red_ops[name] = info.op
        elif info is not None and info.klass is ScalarClass.PRIVATE:
            lane_env[name] = np.full(vf, env_in[name], dtype=npdt)
        else:
            lane_env[name] = env_in[name]  # parameter
    return lane_env, red_ops


def run_vector(
    plan: VectorizationPlan,
    bufs: dict[str, np.ndarray],
    scalars: Optional[dict] = None,
    *,
    sanitize: Optional[bool] = None,
) -> ExecResult:
    """Emulate the vectorized execution of ``plan``, mutating ``bufs``.

    Faithful to the lowering semantics: VF-lane blocks, in-order
    statements, if-conversion with masks, ordered masked scatter
    stores, lane-parallel reduction accumulators combined horizontally
    at the end, and a scalar tail for the remainder iterations.

    ``sanitize=True`` (default: the ``sanitize`` setting,
    ``REPRO_SANITIZE=1``) runs
    the vector-safety sanitizer first: the plan's claimed dependence
    distances are cross-checked against the dynamically evaluated
    addresses and a :class:`~repro.analysis.framework.sanitizer.SanitizerError`
    is raised on any disagreement, before any buffer is mutated.
    """
    if sanitize is None:
        sanitize = current().sanitize
    if sanitize:
        from ..analysis.framework.sanitizer import check_plan

        check_plan(plan, bufs)
    kernel = plan.kernel
    vf = plan.vf
    env_in = dict(scalars) if scalars is not None else initial_scalars(kernel)
    lane_env, red_ops = make_lane_env(kernel, plan.scalar_info, env_in, vf)

    inner_trip = kernel.inner.trip
    vec_trip = inner_trip - inner_trip % vf
    outer_trip = 1 if kernel.depth == 1 else kernel.loops[0].trip

    tail_env = _TailEnv(lane_env, set(red_ops))
    tail_stats = _GuardStats(kernel.body)
    total = 0
    with np.errstate(all="ignore"):
        for outer in range(outer_trip):
            for start in range(0, vec_trip, vf):
                lanes = np.arange(start, start + vf)
                ivals = (lanes,) if kernel.depth == 1 else (outer, lanes)
                ctx = _Ctx(bufs, lane_env, ivals)
                _exec_stmts_vector(kernel, kernel.body, ctx, None, vf)
                total += 1
            # Scalar tail of this inner-loop instance, before the next
            # outer iteration (cross-row dependences require it).
            for inner in range(vec_trip, inner_trip):
                ivals = (inner,) if kernel.depth == 1 else (outer, inner)
                ctx = _Ctx(bufs, tail_env, ivals)
                _exec_stmts_scalar(kernel, kernel.body, ctx, tail_stats)

    # Horizontal combines.
    env_out = dict(env_in)
    _H_COMBINE = {
        BinOpKind.ADD: np.sum,
        BinOpKind.MUL: np.prod,
        BinOpKind.MIN: np.min,
        BinOpKind.MAX: np.max,
    }
    for name, op in red_ops.items():
        decl = kernel.scalars[name]
        env_out[name] = _cast(_H_COMBINE[op](lane_env[name]), decl.dtype)
    for name, decl in kernel.scalars.items():
        info = plan.scalar_info.get(name)
        if info is not None and info.klass is ScalarClass.PRIVATE:
            env_out[name] = _cast(tail_env[name], decl.dtype)
    return ExecResult(scalars=env_out, iterations=total)


class _TailEnv:
    """Scalar-env view for the remainder loop.

    Reduction scalars alias lane 0 of the vector accumulator (a valid
    reassociation), private scalars live in a plain overlay, parameters
    read through to the lane environment.
    """

    def __init__(self, lane_env: dict, reductions: set[str]):
        self._lanes = lane_env
        self._reds = reductions
        self._overlay: dict = {}

    def __getitem__(self, name: str):
        if name in self._reds:
            return self._lanes[name][0]
        if name in self._overlay:
            return self._overlay[name]
        val = self._lanes[name]
        return val[-1] if isinstance(val, np.ndarray) and val.ndim else val

    def __setitem__(self, name: str, value) -> None:
        if name in self._reds:
            self._lanes[name][0] = value
        else:
            self._overlay[name] = value


def _exec_stmts_vector(kernel, stmts, ctx: _Ctx, mask, vf: int) -> None:
    for stmt in stmts:
        if isinstance(stmt, ArrayStore):
            decl = kernel.arrays[stmt.array]
            val = np.broadcast_to(
                _cast(np.asarray(eval_expr(stmt.value, ctx)), decl.dtype), (vf,)
            )
            idxs = [
                np.broadcast_to(np.asarray(_eval_index(ix, ctx)), (vf,))
                for ix in stmt.subscript
            ]
            if mask is None:
                ctx.bufs[stmt.array][tuple(idxs)] = val
            else:
                sel = tuple(ix[mask] for ix in idxs)
                ctx.bufs[stmt.array][sel] = val[mask]
        elif isinstance(stmt, ScalarAssign):
            decl = kernel.scalars[stmt.name]
            new = np.broadcast_to(
                _cast(np.asarray(eval_expr(stmt.value, ctx)), decl.dtype), (vf,)
            )
            if mask is None:
                ctx.scalars[stmt.name] = new.copy()
            else:
                old = np.broadcast_to(
                    np.asarray(ctx.scalars[stmt.name]), (vf,)
                )
                ctx.scalars[stmt.name] = np.where(mask, new, old).astype(
                    NP_DTYPE[decl.dtype]
                )
        elif isinstance(stmt, IfBlock):
            cond = np.broadcast_to(np.asarray(eval_expr(stmt.cond, ctx)), (vf,))
            then_mask = cond if mask is None else (cond & mask)
            _exec_stmts_vector(kernel, stmt.then_body, ctx, then_mask, vf)
            if stmt.else_body:
                else_mask = ~cond if mask is None else (~cond & mask)
                _exec_stmts_vector(kernel, stmt.else_body, ctx, else_mask, vf)
        else:
            raise TypeError(f"cannot execute {type(stmt).__name__}")
