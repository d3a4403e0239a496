"""Memory-access classification for the innermost loop.

Each array access is reduced to its element stride with respect to the
innermost loop variable.  The stride decides how the vectorizer lowers
it (unit stride → packed load/store, stride ±k → strided/shuffled
access or gather, indirect → gather/scatter, stride 0 → broadcast) and
it is a first-order input to the cost model: gathers dominate the cost
of many TSVC indirection kernels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from ..ir.expr import Affine, Expr, Indirect, Load
from ..ir.kernel import ArrayDecl, LoopKernel
from ..ir.stmt import ArrayStore, IfBlock, ScalarAssign, Stmt


class AccessPattern(enum.Enum):
    CONTIGUOUS = "contiguous"  # stride +1
    REVERSE = "reverse"        # stride -1
    STRIDED = "strided"        # |stride| > 1, compile-time constant
    INVARIANT = "invariant"    # stride 0 (broadcast load / invariant store)
    INDIRECT = "indirect"      # subscript through an index array


@dataclass(frozen=True)
class AccessInfo:
    """One array access in flattened program order.

    ``pos`` orders accesses the way the hardware sees them: statement
    index for loads, statement index + 0.5 for the store of the same
    statement (a statement's operand loads always execute before its
    store).  ``guard_depth`` counts enclosing IfBlocks — guarded
    accesses become masked/predicated vector operations.
    """

    array: str
    decl: ArrayDecl
    is_store: bool
    subscript: tuple
    pos: float
    guard_depth: int
    #: :func:`linearize` of ``subscript``: None if indirect.
    linear: Optional[Affine]
    stride: Optional[int]  # elements per innermost iteration; None if indirect
    pattern: AccessPattern

    @property
    def is_load(self) -> bool:
        return not self.is_store


def dim_strides(decl: ArrayDecl) -> tuple[int, ...]:
    """Row-major element strides of each dimension of ``decl``."""
    strides = []
    acc = 1
    for extent in reversed(decl.extents):
        strides.append(acc)
        acc *= extent
    return tuple(reversed(strides))


def linearize(decl: ArrayDecl, subscript: tuple, depth: int) -> Optional[Affine]:
    """Linearized affine element index, or None if any dim is indirect."""
    coeffs = [0] * depth
    offset = 0
    for ix, s in zip(subscript, dim_strides(decl)):
        if isinstance(ix, Indirect):
            return None
        assert isinstance(ix, Affine)
        for lvl in range(depth):
            coeffs[lvl] += ix.coeff(lvl) * s
        offset += ix.offset * s
    return Affine(tuple(coeffs), offset)


def linearize_access(
    node: Union[Load, ArrayStore], decl: ArrayDecl, depth: int
) -> Optional[Affine]:
    """:func:`linearize` of a load's or store's subscript, kept on the node.

    Every lowering of a kernel linearizes the same accesses; nodes are
    immutable, so the result is kept for the next caller that asks
    with the same declaration and depth.
    """
    kept = getattr(node, "_linearized", None)
    if kept is not None and kept[0] is decl and kept[1] == depth:
        return kept[2]
    lin = linearize(decl, node.subscript, depth)
    object.__setattr__(node, "_linearized", (decl, depth, lin))
    return lin


def classify_stride(stride: Optional[int]) -> AccessPattern:
    if stride is None:
        return AccessPattern.INDIRECT
    if stride == 1:
        return AccessPattern.CONTIGUOUS
    if stride == -1:
        return AccessPattern.REVERSE
    if stride == 0:
        return AccessPattern.INVARIANT
    return AccessPattern.STRIDED


def collect_accesses(kernel: LoopKernel) -> list[AccessInfo]:
    """All array accesses of the kernel body in program order."""
    out: list[AccessInfo] = []
    counter = [0]

    def expr_loads(e: Expr, pos: float, guard_depth: int) -> None:
        for node in e.walk():
            if isinstance(node, Load):
                _emit(node.array, node.subscript, False, pos, guard_depth)
                # Index arrays of indirect subscripts are loads too.
                for ix in node.subscript:
                    if isinstance(ix, Indirect):
                        _emit(
                            ix.array,
                            (ix.index.at_depth(kernel.depth),),
                            False,
                            pos,
                            guard_depth,
                        )

    def _emit(array: str, subscript: tuple, is_store: bool, pos: float, gd: int) -> None:
        decl = kernel.arrays[array]
        lin = linearize(decl, subscript, kernel.depth)
        stride = lin.coeff(kernel.inner_level) if lin is not None else None
        out.append(
            AccessInfo(
                array=array,
                decl=decl,
                is_store=is_store,
                subscript=subscript,
                pos=pos,
                guard_depth=gd,
                linear=lin,
                stride=stride,
                pattern=classify_stride(stride),
            )
        )

    def visit(stmts: tuple[Stmt, ...], guard_depth: int) -> None:
        for stmt in stmts:
            idx = counter[0]
            counter[0] += 1
            if isinstance(stmt, ArrayStore):
                expr_loads(stmt.value, idx, guard_depth)
                for ix in stmt.subscript:
                    if isinstance(ix, Indirect):
                        _emit(
                            ix.array,
                            (ix.index.at_depth(kernel.depth),),
                            False,
                            idx,
                            guard_depth,
                        )
                _emit(stmt.array, stmt.subscript, True, idx + 0.5, guard_depth)
            elif isinstance(stmt, ScalarAssign):
                expr_loads(stmt.value, idx, guard_depth)
            elif isinstance(stmt, IfBlock):
                expr_loads(stmt.cond, idx, guard_depth)
                visit(stmt.then_body, guard_depth + 1)
                visit(stmt.else_body, guard_depth + 1)
    visit(kernel.body, 0)
    return out
