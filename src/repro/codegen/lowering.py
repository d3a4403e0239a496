"""Shared expression-lowering machinery for scalar and vector codegen.

Both generators walk the same expression trees; they differ in how
memory accesses, lane movement, and guards are lowered.  The shared
base handles operator mapping, FMA contraction, implicit conversions,
value numbering (CSE) with store invalidation, and loop-carried scalar
dependences.
"""

from __future__ import annotations

from typing import Optional

from ..ir.expr import (
    BinOp,
    BinOpKind,
    Compare,
    Const,
    Convert,
    Expr,
    IterValue,
    Load,
    ScalarRef,
    Select,
    UnOp,
    UnOpKind,
)
from ..ir.kernel import LoopKernel
from ..ir.types import DType
from ..targets.base import Target
from ..targets.classes import IClass
from .minstr import StreamBuilder

BINOP_CLASS = {
    BinOpKind.ADD: IClass.ADD,
    BinOpKind.SUB: IClass.ADD,
    BinOpKind.MUL: IClass.MUL,
    BinOpKind.DIV: IClass.DIV,
    BinOpKind.MIN: IClass.MINMAX,
    BinOpKind.MAX: IClass.MINMAX,
    BinOpKind.AND: IClass.LOGIC,
    BinOpKind.OR: IClass.LOGIC,
    BinOpKind.XOR: IClass.LOGIC,
    BinOpKind.SHL: IClass.SHIFT,
    BinOpKind.SHR: IClass.SHIFT,
}

UNOP_CLASS = {
    UnOpKind.NEG: IClass.ADD,
    UnOpKind.ABS: IClass.ABS,
    UnOpKind.SQRT: IClass.SQRT,
    UnOpKind.EXP: IClass.EXP,
    UnOpKind.NOT: IClass.LOGIC,
}

#: Bytes of one cache line; drives the traffic cost of sparse accesses.
CACHE_LINE = 64


def access_traffic(elem_size: int, stride: Optional[int]) -> int:
    """Memory traffic one element of an access costs, in bytes.

    Contiguous accesses use every byte they pull in.  Strided accesses
    drag whole cache lines for a few useful elements; indirect accesses
    (stride None) are charged half a line, crediting some locality.
    """
    if stride is None:
        return CACHE_LINE // 4
    s = abs(stride)
    if s <= 1:
        return elem_size
    return min(s * elem_size, CACHE_LINE)


class LowerError(Exception):
    """Kernel contains a construct this generator cannot lower."""


class TargetView:
    """``target`` as one lowering sees it: every attribute read is logged.

    ``answers`` maps each attribute read through the view to the value
    the target gave.  A lowering is a function of its plan and of those
    answers, so a target that gives the same answers
    (:func:`gives_answers`) lowers the plan to the same stream.  As a
    context manager the view also hands its answers to an exception
    that escapes the lowering (``exc.target_answers``), so a failure
    holds on the same terms.
    """

    __slots__ = ("_target", "answers")

    def __init__(self, target: Target):
        self._target = target
        self.answers: dict[str, object] = {}

    def __getattr__(self, name: str):
        value = getattr(self._target, name)
        self.answers.setdefault(name, value)
        return value

    def __enter__(self) -> "TargetView":
        return self

    def __exit__(self, kind, exc, tb) -> bool:
        if exc is not None:
            exc.target_answers = dict(self.answers)
        return False


def gives_answers(target: Target, answers: dict) -> bool:
    """True when ``target`` answers every read in ``answers`` the same."""
    return all(getattr(target, name) == value for name, value in answers.items())


class BaseLowerer:
    """Common expression-to-instruction lowering.

    Subclasses implement :meth:`lower_load` and lane handling; the base
    provides arithmetic lowering with CSE, FMA contraction and implicit
    integer→float conversions.
    """

    def __init__(
        self,
        kernel: LoopKernel,
        target: Target,
        builder: StreamBuilder,
        *,
        lanes: int = 1,
        fuse_fma: bool = True,
    ):
        self.kernel = kernel
        self.target = target
        self.b = builder
        self.lanes = lanes
        self.fuse_fma = fuse_fma
        #: value numbering: expr -> instr id (or None for free values)
        self.available: dict[Expr, Optional[int]] = {}
        #: array -> every expr ever numbered that loads it.  Never
        #: pruned, so it still covers the entries a guard's snapshot of
        #: ``available`` restores.
        self._readers: dict[str, dict[Expr, None]] = {}
        #: producer instr of each scalar assigned earlier this iteration
        self.scalar_producer: dict[str, Optional[int]] = {}
        #: (consumer instr id, scalar name) waiting for a carried edge
        self.pending_carried: list[tuple[int, str]] = []
        self._assigned = kernel.assigned_scalars()

    # -- subclass hooks ---------------------------------------------------

    def lower_load(self, load: Load, weight: float) -> Optional[int]:
        raise NotImplementedError

    def lower_scalar_ref(self, ref: ScalarRef, weight: float) -> Optional[int]:
        """Resolve a scalar reference to its producer (or a carried edge)."""
        if ref.name in self.scalar_producer:
            return self.scalar_producer[ref.name]
        if ref.name in self._assigned:
            # Assigned later in the body: the value is last iteration's.
            # Returning a sentinel would lose type info; instead the
            # consumer registers a pending carried edge.
            return _CARRIED_SENTINEL
        return None  # loop-invariant parameter, lives in a register

    def lower_const(self, const: Const, weight: float) -> Optional[int]:
        return None  # immediates are free in both forms

    def lower_iter_value(self, iv: IterValue, weight: float) -> Optional[int]:
        return None  # the induction variable is a live register

    # -- main dispatcher -----------------------------------------------------

    def lower_expr(self, expr: Expr, weight: float = 1.0) -> Optional[int]:
        result = self.available.get(expr, _MISSING)
        if result is not _MISSING:
            return result
        result = self._lower_uncached(expr, weight)
        if result is not _CARRIED_SENTINEL:
            self.available[expr] = result
            for array in expr.loaded_arrays():
                self._readers.setdefault(array, {})[expr] = None
        return result

    def _lower_uncached(self, expr: Expr, weight: float) -> Optional[int]:
        if isinstance(expr, Const):
            return self.lower_const(expr, weight)
        if isinstance(expr, ScalarRef):
            return self.lower_scalar_ref(expr, weight)
        if isinstance(expr, IterValue):
            return self.lower_iter_value(expr, weight)
        if isinstance(expr, Load):
            return self.lower_load(expr, weight)
        if isinstance(expr, BinOp):
            return self._lower_binop(expr, weight)
        if isinstance(expr, UnOp):
            return self._emit_op(
                UNOP_CLASS[expr.op], expr.dtype, (expr.operand,), expr, weight
            )
        if isinstance(expr, Compare):
            return self._emit_op(
                IClass.CMP, expr.lhs.dtype, (expr.lhs, expr.rhs), expr, weight
            )
        if isinstance(expr, Select):
            return self._emit_op(
                IClass.BLEND,
                expr.dtype,
                (expr.cond, expr.if_true, expr.if_false),
                expr,
                weight,
            )
        if isinstance(expr, Convert):
            return self._emit_op(IClass.CVT, expr.dtype, (expr.operand,), expr, weight)
        raise LowerError(f"cannot lower expression {type(expr).__name__}")

    def _lower_binop(self, expr: BinOp, weight: float) -> Optional[int]:
        # FMA contraction: (x*y) + z, z + (x*y), (x*y) - z.
        if (
            self.fuse_fma
            and expr.op in (BinOpKind.ADD, BinOpKind.SUB)
            and expr.dtype.is_float
        ):
            mul = None
            other = None
            if isinstance(expr.lhs, BinOp) and expr.lhs.op is BinOpKind.MUL:
                mul, other = expr.lhs, expr.rhs
            elif (
                expr.op is BinOpKind.ADD
                and isinstance(expr.rhs, BinOp)
                and expr.rhs.op is BinOpKind.MUL
            ):
                mul, other = expr.rhs, expr.lhs
            if mul is not None:
                return self._emit_op(
                    IClass.FMA,
                    expr.dtype,
                    (mul.lhs, mul.rhs, other),
                    expr,
                    weight,
                )
        return self._emit_op(
            BINOP_CLASS[expr.op], expr.dtype, (expr.lhs, expr.rhs), expr, weight
        )

    def _emit_op(
        self,
        iclass: IClass,
        dtype: DType,
        operands: tuple[Expr, ...],
        expr: Expr,
        weight: float,
    ) -> int:
        srcs: list[int] = []
        carried_names: list[str] = []
        for op in operands:
            rid = self.lower_expr(op, weight)
            if rid is _CARRIED_SENTINEL:
                assert isinstance(op, ScalarRef)
                carried_names.append(op.name)
            elif rid is not None:
                srcs.append(rid)
            # Implicit conversion when an operand's type differs in kind.
            if (
                op.dtype is not dtype
                and not op.dtype.is_bool
                and not dtype.is_bool
                and op.dtype.is_float != dtype.is_float
            ):
                cid = self.b.emit(
                    IClass.CVT,
                    dtype,
                    lanes=self.lanes,
                    srcs=(rid,) if isinstance(rid, int) else (),
                    weight=weight,
                    note=f"implicit {op.dtype.value}->{dtype.value}",
                )
                if isinstance(rid, int) and rid in srcs:
                    srcs[srcs.index(rid)] = cid
                else:
                    srcs.append(cid)
        out = self.b.emit(
            iclass, dtype, lanes=self.lanes, srcs=tuple(srcs), weight=weight
        )
        for name in carried_names:
            self.pending_carried.append((out, name))
        return out

    # -- post-pass ---------------------------------------------------------------

    def resolve_carried_scalars(self) -> None:
        """Patch carried edges for scalars read before their assignment."""
        for consumer_id, name in self.pending_carried:
            producer = self.scalar_producer.get(name)
            if producer is not None:
                self.b.add_carried(consumer_id, producer, 1)
        self.pending_carried.clear()

    def invalidate_array(self, array: str) -> None:
        """Drop CSE entries that load from ``array`` (after a store)."""
        for e in self._readers.get(array, ()):
            self.available.pop(e, None)


#: Sentinel distinguishing "value from previous iteration" from "free value".
_CARRIED_SENTINEL = -1

#: Marks a value-numbering miss (``None`` is a valid entry).
_MISSING = object()
