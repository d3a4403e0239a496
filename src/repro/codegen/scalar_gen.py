"""Scalar code generation: the baseline against which speedup is defined.

Lowers a kernel body to one scalar iteration's instruction stream,
modelling what -O3-without-vectorization would emit: FMA contraction,
CSE/load-forwarding, LICM hoisting of inner-loop-invariant loads, and
branchy control flow weighted by measured (or assumed) branch
probabilities.  Loop-carried memory and scalar dependences become
carried edges so the timing model prices serial recurrence chains.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.access import linearize_access
from ..ir.expr import Affine, Indirect, Load
from ..ir.kernel import LoopKernel
from ..ir.stmt import ArrayStore, IfBlock, ScalarAssign, Stmt
from ..targets.base import Target
from ..targets.classes import IClass
from .lowering import BaseLowerer, LowerError, access_traffic
from .minstr import MStream, StreamBuilder

#: Branch probability assumed when no measurement is supplied.
DEFAULT_GUARD_PROB = 0.5


class ScalarLowerer(BaseLowerer):
    def __init__(
        self,
        kernel: LoopKernel,
        target: Target,
        builder: StreamBuilder,
        guard_probs: Optional[dict[int, float]] = None,
        fuse_fma: bool = True,
    ):
        super().__init__(kernel, target, builder, lanes=1, fuse_fma=fuse_fma)
        self.guard_probs = guard_probs or {}
        #: stores seen this iteration: array -> [(linearized affine, id)]
        self._stores: dict[str, list[tuple[Affine, int]]] = {}
        #: affine loads of this iteration: array -> [(affine, id)]
        self._loads: dict[str, list[tuple[Affine, int]]] = {}
        self._guard_seq = 0

    # -- memory ----------------------------------------------------------------

    def lower_load(self, load: Load, weight: float) -> Optional[int]:
        decl = self.kernel.arrays[load.array]
        srcs: list[int] = []
        lin = linearize_access(load, decl, self.kernel.depth)
        stride: Optional[int]
        if lin is None:
            # Indirect: the index array is loaded first.
            for ix in load.subscript:
                if isinstance(ix, Indirect):
                    idx_load = Load(
                        ix.array,
                        (ix.index.at_depth(self.kernel.depth),),
                        self.kernel.arrays[ix.array].dtype,
                    )
                    rid = self.lower_expr(idx_load, weight)
                    if isinstance(rid, int) and rid >= 0:
                        srcs.append(rid)
            stride = None
        else:
            stride = lin.coeff(self.kernel.inner_level)

        hoisted = (
            lin is not None
            and stride == 0
            and weight >= 1.0
            and load.array not in self.kernel.arrays_written()
            and self.kernel.depth > 1
        )
        # LICM: an unconditionally-executed inner-invariant load of a
        # read-only array executes once per outer iteration.
        eff_weight = weight / self.kernel.inner.trip if hoisted else weight

        out = self.b.emit(
            IClass.LOAD,
            decl.dtype,
            lanes=1,
            srcs=tuple(srcs),
            weight=eff_weight,
            traffic=access_traffic(decl.dtype.size, stride),
            note=f"{load}",
            mem_array=load.array if lin is not None else "",
            mem_stride=stride if (lin is not None and stride) else None,
        )
        if lin is not None:
            self._loads.setdefault(load.array, []).append((lin, out))
        return out

    def attach_memory_recurrences(self) -> None:
        """Post-pass: loop-carried store→load edges through memory.

        Runs after the whole body is lowered so a statement like
        ``a[i] = a[i-1] + b[i]`` — whose load precedes its own store —
        still gets its distance-1 cycle.
        """
        for array, loads in self._loads.items():
            for lin, load_id in loads:
                c_inner = lin.coeff(self.kernel.inner_level)
                if c_inner == 0:
                    continue
                for store_lin, store_id in self._stores.get(array, []):
                    if store_lin.coeffs != lin.coeffs:
                        continue
                    delta = store_lin.offset - lin.offset
                    if delta % c_inner != 0:
                        continue
                    d = delta // c_inner
                    if d >= 1:
                        self.b.add_carried(load_id, store_id, d)

    def lower_store(self, stmt: ArrayStore, weight: float) -> int:
        decl = self.kernel.arrays[stmt.array]
        val = self.lower_expr(stmt.value, weight)
        srcs = [val] if isinstance(val, int) and val >= 0 else []
        lin = linearize_access(stmt, decl, self.kernel.depth)
        stride = lin.coeff(self.kernel.inner_level) if lin is not None else None
        if lin is None:
            for ix in stmt.subscript:
                if isinstance(ix, Indirect):
                    idx_load = Load(
                        ix.array,
                        (ix.index.at_depth(self.kernel.depth),),
                        self.kernel.arrays[ix.array].dtype,
                    )
                    rid = self.lower_expr(idx_load, weight)
                    if isinstance(rid, int) and rid >= 0:
                        srcs.append(rid)
        out = self.b.emit(
            IClass.STORE,
            decl.dtype,
            lanes=1,
            srcs=tuple(srcs),
            weight=weight,
            traffic=access_traffic(decl.dtype.size, stride),
            note=f"{stmt.array}[..] =",
            mem_array=stmt.array if lin is not None else "",
            mem_stride=stride if (lin is not None and stride) else None,
        )
        if lin is not None:
            self._stores.setdefault(stmt.array, []).append((lin, out))
        self.invalidate_array(stmt.array)
        return out

    # -- statements -------------------------------------------------------------

    def lower_stmt(self, stmt: Stmt, weight: float = 1.0) -> None:
        if isinstance(stmt, ArrayStore):
            self.lower_store(stmt, weight)
        elif isinstance(stmt, ScalarAssign):
            rid = self.lower_expr(stmt.value, weight)
            self.scalar_producer[stmt.name] = rid if isinstance(rid, int) and rid >= 0 else None
        elif isinstance(stmt, IfBlock):
            self._guard_seq += 1
            prob = self.guard_probs.get(self._guard_seq - 1, DEFAULT_GUARD_PROB)
            # The comparison feeding the branch executes unconditionally.
            self.lower_expr(stmt.cond, weight)
            snapshot = dict(self.available)
            for s in stmt.then_body:
                self.lower_stmt(s, weight * prob)
            self.available = snapshot
            for s in stmt.else_body:
                self.lower_stmt(s, weight * (1.0 - prob))
            self.available = snapshot
        else:
            raise LowerError(f"unknown statement {type(stmt).__name__}")


def lower_scalar(
    kernel: LoopKernel,
    target: Target,
    guard_probs: Optional[dict[int, float]] = None,
    fuse_fma: bool = True,
) -> MStream:
    """Lower ``kernel`` to its scalar per-iteration instruction stream.

    ``guard_probs`` maps the n-th IfBlock (pre-order) to its measured
    taken probability; unmeasured guards assume 50%.
    """
    builder = StreamBuilder(f"{kernel.name}.scalar")
    low = ScalarLowerer(kernel, target, builder, guard_probs, fuse_fma)
    for stmt in kernel.body:
        low.lower_stmt(stmt)
    low.resolve_carried_scalars()
    low.attach_memory_recurrences()
    stream = builder.stream
    stream.iters = kernel.total_iterations
    stream.elems_per_iter = 1
    stream.working_set_bytes = kernel.working_set_bytes()
    return stream
