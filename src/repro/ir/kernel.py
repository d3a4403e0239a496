"""Kernel container: loops, array/scalar declarations, and the body.

A :class:`LoopKernel` is the unit the whole pipeline operates on — the
equivalent of one TSVC test function.  Kernels are perfect loop nests of
depth 1 or 2 whose innermost body is a statement list; vectorization
always targets the innermost loop, matching the paper's LLV setup
("no unrolling, no interleaving").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .expr import Load
from .stmt import ArrayStore, Stmt, all_loads, all_stores, walk_stmts
from .types import DType


@dataclass(frozen=True)
class ArrayDecl:
    """A kernel array parameter.

    ``extents`` are the logical sizes per dimension (innermost last).
    Sizes matter to the memory model (working-set → cache level), not to
    correctness, so they default to the TSVC array length.
    """

    name: str
    dtype: DType = DType.F32
    extents: tuple[int, ...] = (32000,)

    @property
    def ndim(self) -> int:
        return len(self.extents)

    @property
    def nbytes(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n * self.dtype.size


@dataclass(frozen=True)
class ScalarDecl:
    """A kernel scalar: loop-invariant parameter or loop-local variable.

    ``init`` is the value it holds on kernel entry.  Scalars that are
    assigned inside the body are "live" state (reduction accumulators,
    temporaries); scalars that are only read are parameters.
    """

    name: str
    dtype: DType = DType.F32
    init: float = 0.0


@dataclass(frozen=True)
class Loop:
    """One loop level: ``for (var = 0; var < trip; var++)``.

    Non-unit logical strides in TSVC sources (``i += 2``) are normalized
    at construction time into the subscript coefficients, so every IR
    loop has step 1 — the canonical form vectorizers work on.
    """

    trip: int

    def __post_init__(self) -> None:
        if self.trip < 1:
            raise ValueError(f"loop trip count must be >= 1, got {self.trip}")


@dataclass(frozen=True)
class LoopKernel:
    name: str
    loops: tuple[Loop, ...]
    arrays: dict[str, ArrayDecl]
    scalars: dict[str, ScalarDecl]
    body: tuple[Stmt, ...]
    category: str = "uncategorized"
    source: str = ""

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def inner(self) -> Loop:
        return self.loops[-1]

    @property
    def inner_level(self) -> int:
        return self.depth - 1

    @property
    def total_iterations(self) -> int:
        n = 1
        for lp in self.loops:
            n *= lp.trip
        return n

    # -- convenience queries -------------------------------------------------

    def array(self, name: str) -> ArrayDecl:
        return self.arrays[name]

    def loads(self) -> Iterator[Load]:
        return all_loads(self.body)

    def stores(self) -> Iterator[ArrayStore]:
        return all_stores(self.body)

    def stmts(self) -> Iterator[Stmt]:
        return walk_stmts(self.body)

    def assigned_scalars(self) -> set[str]:
        """Names of scalars written somewhere in the body."""
        from .stmt import ScalarAssign

        return {s.name for s in self.stmts() if isinstance(s, ScalarAssign)}

    def live_out_scalars(self) -> set[str]:
        """Scalars whose final value is an output of the kernel.

        All assigned scalars are treated as live-out; this is the
        conservative contract the functional executor checks against.
        """
        return self.assigned_scalars()

    def arrays_read(self) -> set[str]:
        names = {ld.array for ld in self.loads()}
        # Indirect subscripts read their index arrays too.
        from .expr import Indirect

        for st in self.stmts():
            for root in st.exprs():
                for node in root.walk():
                    if isinstance(node, Load):
                        for ix in node.subscript:
                            if isinstance(ix, Indirect):
                                names.add(ix.array)
        for st in self.stores():
            for ix in st.subscript:
                if isinstance(ix, Indirect):
                    names.add(ix.array)
        return names

    def arrays_written(self) -> set[str]:
        return {st.array for st in self.stores()}

    def working_set_bytes(self) -> int:
        """Bytes of array data the kernel touches (union of read+write)."""
        return self._working_set_bytes

    @cached_property
    def _working_set_bytes(self) -> int:
        # Every lowering of the kernel asks; the kernel is immutable.
        touched = self.arrays_read() | self.arrays_written()
        return sum(self.arrays[a].nbytes for a in touched if a in self.arrays)

    def __str__(self) -> str:
        from .printer import kernel_to_source

        return kernel_to_source(self)
