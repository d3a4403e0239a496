"""Vector code generation.

Lowers a :class:`VectorizationPlan` to the target's vector instruction
stream.  This is where target capabilities shape the instruction mix
the cost models see:

* unit-stride accesses become packed loads/stores;
* reversed accesses add a lane-reverse shuffle;
* small constant strides become interleaved load/store groups
  (``stride`` packed ops + ``stride`` shuffles — the ld2/ld3 idiom);
* large strides and indirect accesses become hardware gathers where
  the target has them, otherwise per-lane scalar memory ops threaded
  through INSERT/EXTRACT (expensive on NEON, whose GPR↔SIMD moves are
  slow);
* guarded stores become masked stores on AVX2 and load+blend+store on
  NEON;
* reductions get an identity-splat prologue, a vector accumulator with
  a loop-carried self-dependence, and a horizontal REDUCE epilogue;
* EXP (transcendental calls) is scalarized lane by lane on hardware
  targets; the IR-level pseudo-target keeps it as one vector intrinsic.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.access import linearize_access
from ..analysis.reduction import ScalarClass
from ..ir.expr import Affine, Expr, Indirect, Load, UnOp, UnOpKind
from ..ir.stmt import ArrayStore, IfBlock, ScalarAssign, Stmt
from ..targets.base import Target
from ..targets.classes import IClass
from ..vectorize.plan import VectorizationPlan
from .lowering import BaseLowerer, LowerError, TargetView, access_traffic
from .minstr import MStream, StreamBuilder


class VectorLowerer(BaseLowerer):
    def __init__(self, plan: VectorizationPlan, target: Target, builder: StreamBuilder):
        super().__init__(plan.kernel, target, builder, lanes=plan.vf)
        self.plan = plan
        self.vf = plan.vf
        #: active guard mask instruction id (None = unguarded)
        self.mask: Optional[int] = None
        self._stores: dict[str, list[tuple[Affine, int]]] = {}
        self._loads: dict[str, list[tuple[Affine, int]]] = {}
        self._reduction_producers: dict[str, int] = {}

    # -- memory: loads ------------------------------------------------------

    def lower_load(self, load: Load, weight: float) -> Optional[int]:
        decl = self.kernel.arrays[load.array]
        lin = linearize_access(load, decl, self.kernel.depth)
        if lin is None:
            return self._lower_gather(load, decl, weight)
        stride = lin.coeff(self.kernel.inner_level)
        out = self._lower_affine_load(load, decl, stride, weight)
        self._loads.setdefault(load.array, []).append((lin, out))
        return out

    def _lower_affine_load(self, load, decl, stride: int, weight: float) -> int:
        elem = decl.dtype.size
        if stride == 0:
            return self._lower_invariant_load(load, decl, weight)
        if stride == 1:
            return self.b.emit(
                IClass.LOAD,
                decl.dtype,
                lanes=self.vf,
                weight=weight,
                traffic=self.vf * elem,
                note=f"{load}",
                mem_array=load.array,
                mem_stride=self.vf,
            )
        if stride == -1:
            ld = self.b.emit(
                IClass.LOAD,
                decl.dtype,
                lanes=self.vf,
                weight=weight,
                traffic=self.vf * elem,
                note=f"{load} (reversed)",
                mem_array=load.array,
                mem_stride=-self.vf,
            )
            return self.b.emit(
                IClass.SHUFFLE,
                decl.dtype,
                lanes=self.vf,
                srcs=(ld,),
                weight=weight,
                note="lane reverse",
            )
        s = abs(stride)
        if s <= self.target.max_interleave_stride:
            # Interleaved access group: |s| packed loads + |s| shuffles
            # deinterleave s*VF contiguous elements.
            loads = tuple(
                self.b.emit(
                    IClass.LOAD,
                    decl.dtype,
                    lanes=self.vf,
                    weight=weight,
                    traffic=self.vf * elem,
                    note=f"{load} (interleave {s}, part {p})",
                    mem_array=load.array,
                    mem_stride=s * self.vf,
                )
                for p in range(s)
            )
            out = loads[0]
            for p in range(s):
                out = self.b.emit(
                    IClass.SHUFFLE,
                    decl.dtype,
                    lanes=self.vf,
                    srcs=loads if p == 0 else (out,),
                    weight=weight,
                    note="deinterleave",
                )
            return out
        # Wide stride: gather on hardware that has it, otherwise
        # scalarize through lane inserts.
        if self.target.has_gather:
            return self.b.emit(
                IClass.GATHER,
                decl.dtype,
                lanes=self.vf,
                weight=weight,
                traffic=self.vf * access_traffic(elem, stride),
                note=f"{load} (strided gather)",
            )
        return self._scalarized_load(
            decl, weight, note=f"{load} (scalarized)", array=load.array, stride=stride
        )

    def _lower_invariant_load(self, load, decl, weight: float) -> int:
        hoistable = (
            self.mask is None
            and weight >= 1.0
            and load.array not in self.kernel.arrays_written()
        )
        if hoistable and self.kernel.depth == 1:
            section = self.b._section
            self.b.in_prologue()
            out = self.b.emit(
                IClass.BROADCAST,
                decl.dtype,
                lanes=self.vf,
                traffic=decl.dtype.size,
                note=f"{load} (hoisted splat)",
            )
            self.b._section = section
            return out
        # Inner-invariant in a 2-D nest: re-splat once per outer
        # iteration; amortize over the inner vector iterations.
        eff = weight
        if hoistable and self.kernel.depth > 1:
            eff = weight / max(1, self.kernel.inner.trip // self.vf)
        return self.b.emit(
            IClass.BROADCAST,
            decl.dtype,
            lanes=self.vf,
            weight=eff,
            traffic=decl.dtype.size,
            note=f"{load} (splat)",
        )

    def _lower_gather(self, load, decl, weight: float) -> Optional[int]:
        # Load the index vector first.
        idx_srcs = []
        for ix in load.subscript:
            if isinstance(ix, Indirect):
                idx_load = Load(
                    ix.array,
                    (ix.index.at_depth(self.kernel.depth),),
                    self.kernel.arrays[ix.array].dtype,
                )
                rid = self.lower_expr(idx_load, weight)
                if isinstance(rid, int) and rid >= 0:
                    idx_srcs.append(rid)
        if self.target.has_gather:
            return self.b.emit(
                IClass.GATHER,
                decl.dtype,
                lanes=self.vf,
                srcs=tuple(idx_srcs),
                weight=weight,
                traffic=self.vf * access_traffic(decl.dtype.size, None),
                note=f"{load} (gather)",
            )
        # No hardware gather: extract each index, scalar-load, insert.
        for _ in range(self.vf):
            self.b.emit(
                IClass.EXTRACT,
                decl.dtype,
                lanes=self.vf,
                srcs=tuple(idx_srcs),
                weight=weight,
                note="extract index",
            )
        return self._scalarized_load(decl, weight, note=f"{load} (scalarized gather)")

    def _scalarized_load(
        self, decl, weight: float, note: str, array: str = "", stride=None
    ) -> int:
        out = 0
        for lane in range(self.vf):
            ld = self.b.emit(
                IClass.LOAD,
                decl.dtype,
                lanes=1,
                weight=weight,
                traffic=access_traffic(decl.dtype.size, None),
                note=f"{note} lane {lane}",
                mem_array=array if stride is not None else "",
                mem_stride=stride * self.vf if stride is not None else None,
            )
            out = self.b.emit(
                IClass.INSERT,
                decl.dtype,
                lanes=self.vf,
                srcs=(ld,) if lane == 0 else (ld, out),
                weight=weight,
                note="insert lane",
            )
        return out

    # -- memory: stores -----------------------------------------------------

    def lower_store(self, stmt: ArrayStore, weight: float) -> None:
        decl = self.kernel.arrays[stmt.array]
        val = self.lower_expr(stmt.value, weight)
        val_srcs = (val,) if isinstance(val, int) and val >= 0 else ()
        lin = linearize_access(stmt, decl, self.kernel.depth)
        elem = decl.dtype.size

        if lin is None:
            self._lower_scatter(stmt, decl, val_srcs, weight)
            self.invalidate_array(stmt.array)
            return

        stride = lin.coeff(self.kernel.inner_level)
        out: Optional[int] = None
        if stride in (1, -1):
            srcs = val_srcs
            if stride == -1:
                srcs = (
                    self.b.emit(
                        IClass.SHUFFLE,
                        decl.dtype,
                        lanes=self.vf,
                        srcs=val_srcs,
                        weight=weight,
                        note="lane reverse",
                    ),
                )
            if self.mask is None:
                out = self.b.emit(
                    IClass.STORE,
                    decl.dtype,
                    lanes=self.vf,
                    srcs=srcs,
                    weight=weight,
                    traffic=self.vf * elem,
                    note=f"{stmt.array}[..] =",
                    mem_array=stmt.array,
                    mem_stride=stride * self.vf,
                )
            elif self.target.has_masked_mem:
                out = self.b.emit(
                    IClass.MASKSTORE,
                    decl.dtype,
                    lanes=self.vf,
                    srcs=srcs + (self.mask,),
                    weight=weight,
                    traffic=self.vf * elem,
                    note=f"{stmt.array}[..] = (masked)",
                    mem_array=stmt.array,
                    mem_stride=stride * self.vf,
                )
            else:
                # NEON-style masked store: load old, blend, store full.
                old = self.b.emit(
                    IClass.LOAD,
                    decl.dtype,
                    lanes=self.vf,
                    weight=weight,
                    traffic=self.vf * elem,
                    note="masked-store reload",
                    mem_array=stmt.array,
                    mem_stride=stride * self.vf,
                )
                blended = self.b.emit(
                    IClass.BLEND,
                    decl.dtype,
                    lanes=self.vf,
                    srcs=srcs + (old, self.mask),
                    weight=weight,
                    note="masked-store blend",
                )
                out = self.b.emit(
                    IClass.STORE,
                    decl.dtype,
                    lanes=self.vf,
                    srcs=(blended,),
                    weight=weight,
                    traffic=self.vf * elem,
                    note=f"{stmt.array}[..] = (blend-store)",
                    mem_array=stmt.array,
                    mem_stride=stride * self.vf,
                )
        elif (
            self.mask is None
            and abs(stride) <= self.target.max_interleave_stride
        ):
            s = abs(stride)
            # Interleaved store group: shuffle into s parts, store each.
            for p in range(s):
                sh = self.b.emit(
                    IClass.SHUFFLE,
                    decl.dtype,
                    lanes=self.vf,
                    srcs=val_srcs,
                    weight=weight,
                    note=f"interleave part {p}",
                )
                out = self.b.emit(
                    IClass.STORE,
                    decl.dtype,
                    lanes=self.vf,
                    srcs=(sh,),
                    weight=weight,
                    traffic=self.vf * elem,
                    note=f"{stmt.array}[..] = (interleave {s})",
                    mem_array=stmt.array,
                    mem_stride=s * self.vf,
                )
        elif self.target.has_scatter and (
            self.mask is None or self.target.has_masked_mem
        ):
            # Wide strided store as a single (possibly masked) scatter.
            out = self.b.emit(
                IClass.SCATTER,
                decl.dtype,
                lanes=self.vf,
                srcs=val_srcs + ((self.mask,) if self.mask is not None else ()),
                weight=weight,
                traffic=self.vf * access_traffic(elem, stride),
                note=f"{stmt.array}[..] = (strided scatter)",
            )
        else:
            self._scalarized_store(decl, val_srcs, weight, masked=self.mask is not None)
        if out is not None and lin is not None:
            self._stores.setdefault(stmt.array, []).append((lin, out))
        self.invalidate_array(stmt.array)

    def _lower_scatter(self, stmt, decl, val_srcs, weight: float) -> None:
        idx_srcs = []
        for ix in stmt.subscript:
            if isinstance(ix, Indirect):
                idx_load = Load(
                    ix.array,
                    (ix.index.at_depth(self.kernel.depth),),
                    self.kernel.arrays[ix.array].dtype,
                )
                rid = self.lower_expr(idx_load, weight)
                if isinstance(rid, int) and rid >= 0:
                    idx_srcs.append(rid)
        if self.target.has_scatter and (
            self.mask is None or self.target.has_masked_mem
        ):
            mask_src = (self.mask,) if self.mask is not None else ()
            self.b.emit(
                IClass.SCATTER,
                decl.dtype,
                lanes=self.vf,
                srcs=tuple(val_srcs) + tuple(idx_srcs) + mask_src,
                weight=weight,
                traffic=self.vf * access_traffic(decl.dtype.size, None),
                note=f"{stmt.array}[ind] = (scatter)",
            )
            return
        for _ in range(self.vf):
            self.b.emit(
                IClass.EXTRACT,
                decl.dtype,
                lanes=self.vf,
                srcs=tuple(idx_srcs),
                weight=weight,
                note="extract index",
            )
        self._scalarized_store(decl, val_srcs, weight, masked=self.mask is not None)

    def _scalarized_store(self, decl, val_srcs, weight: float, masked: bool) -> None:
        # Per-lane extract + scalar store; masked lanes branch, so each
        # store executes with the guard's probability folded into the
        # vector-code weight (we keep weight=1: if-converted code pays
        # for the extracts regardless and we charge the store lanes too,
        # matching LLVM's conservative scalarization cost).
        for lane in range(self.vf):
            ex = self.b.emit(
                IClass.EXTRACT,
                decl.dtype,
                lanes=self.vf,
                srcs=tuple(val_srcs),
                weight=weight,
                note=f"extract lane {lane}",
            )
            self.b.emit(
                IClass.STORE,
                decl.dtype,
                lanes=1,
                srcs=(ex,),
                weight=weight,
                traffic=access_traffic(decl.dtype.size, None),
                note=f"scalarized store lane {lane}",
            )

    def attach_memory_recurrences(self) -> None:
        """Post-pass: carried store→load edges, in vector iterations."""
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
                        self.b.add_carried(
                            load_id, store_id, max(1, d // self.vf)
                        )

    # -- statements ----------------------------------------------------------

    def lower_stmt(self, stmt: Stmt, weight: float = 1.0) -> None:
        if isinstance(stmt, ArrayStore):
            self.lower_store(stmt, weight)
        elif isinstance(stmt, ScalarAssign):
            self._lower_scalar_assign(stmt, weight)
        elif isinstance(stmt, IfBlock):
            self._lower_if(stmt, weight)
        else:
            raise LowerError(f"unknown statement {type(stmt).__name__}")

    def _lower_scalar_assign(self, stmt: ScalarAssign, weight: float) -> None:
        decl = self.kernel.scalars[stmt.name]
        rid = self.lower_expr(stmt.value, weight)
        out = rid if isinstance(rid, int) and rid >= 0 else None
        if self.mask is not None:
            # If-converted assignment: blend with the previous value.
            srcs = [self.mask]
            if out is not None:
                srcs.append(out)
            prev = self.scalar_producer.get(stmt.name)
            carried_pending = False
            if prev is not None:
                srcs.append(prev)
            elif stmt.name not in self.scalar_producer:
                carried_pending = True  # previous value is last iteration's
            out = self.b.emit(
                IClass.BLEND,
                decl.dtype,
                lanes=self.vf,
                srcs=tuple(srcs),
                weight=weight,
                note=f"{stmt.name} = (if-converted)",
            )
            if carried_pending:
                self.pending_carried.append((out, stmt.name))
        self.scalar_producer[stmt.name] = out
        info = self.plan.scalar_info.get(stmt.name)
        if info is not None and info.klass is ScalarClass.REDUCTION and out is not None:
            self._reduction_producers[stmt.name] = out

    def _lower_if(self, stmt: IfBlock, weight: float) -> None:
        cond_id = self.lower_expr(stmt.cond, weight)
        outer = self.mask
        then_mask = cond_id
        if outer is not None and cond_id is not None:
            then_mask = self.b.emit(
                IClass.LOGIC,
                stmt.cond.dtype,
                lanes=self.vf,
                srcs=(outer, cond_id),
                weight=weight,
                note="nested mask and",
            )
        snapshot = dict(self.available)
        self.mask = then_mask
        for s in stmt.then_body:
            self.lower_stmt(s, weight)
        self.available = snapshot
        if stmt.else_body:
            neg = self.b.emit(
                IClass.LOGIC,
                stmt.cond.dtype,
                lanes=self.vf,
                srcs=(cond_id,) if cond_id is not None else (),
                weight=weight,
                note="mask not",
            )
            if outer is not None:
                neg = self.b.emit(
                    IClass.LOGIC,
                    stmt.cond.dtype,
                    lanes=self.vf,
                    srcs=(outer, neg),
                    weight=weight,
                    note="nested mask and",
                )
            self.mask = neg
            for s in stmt.else_body:
                self.lower_stmt(s, weight)
            self.available = snapshot
        self.mask = outer

    # -- EXP scalarization (no vector transcendentals) ------------------------

    def _lower_uncached(self, expr: Expr, weight: float):
        if (
            isinstance(expr, UnOp)
            and expr.op is UnOpKind.EXP
            and self.target.scalarize_calls
        ):
            src = self.lower_expr(expr.operand, weight)
            out = src if isinstance(src, int) and src >= 0 else None
            last = None
            for lane in range(self.vf):
                ex = self.b.emit(
                    IClass.EXTRACT,
                    expr.dtype,
                    lanes=self.vf,
                    srcs=(out,) if out is not None else (),
                    weight=weight,
                    note=f"exp lane {lane}",
                )
                call = self.b.emit(
                    IClass.EXP, expr.dtype, lanes=1, srcs=(ex,), weight=weight
                )
                last = self.b.emit(
                    IClass.INSERT,
                    expr.dtype,
                    lanes=self.vf,
                    srcs=(call,) if last is None else (call, last),
                    weight=weight,
                )
            return last
        return super()._lower_uncached(expr, weight)

    # -- reductions ---------------------------------------------------------------

    def finish_reductions(self) -> None:
        for name, producer in self._reduction_producers.items():
            decl = self.kernel.scalars[name]
            self.b.in_prologue()
            self.b.emit(
                IClass.BROADCAST,
                decl.dtype,
                lanes=self.vf,
                note=f"{name} identity splat",
            )
            self.b.in_epilogue()
            self.b.emit(
                IClass.REDUCE,
                decl.dtype,
                lanes=self.vf,
                srcs=(producer,),
                note=f"horizontal {name}",
            )
            self.b.in_body()


def lower_vector(plan: VectorizationPlan, target: Target) -> MStream:
    """Lower an LLV plan to the target vector instruction stream.

    The lowering reads ``target`` through a :class:`TargetView`; the
    stream keeps what it read in ``target_answers``.
    """
    kernel = plan.kernel
    builder = StreamBuilder(f"{kernel.name}.vector.vf{plan.vf}")
    with TargetView(target) as view:
        low = VectorLowerer(plan, view, builder)
        for stmt in kernel.body:
            low.lower_stmt(stmt)
        low.resolve_carried_scalars()
        low.attach_memory_recurrences()
        low.finish_reductions()
    stream = builder.stream
    stream.target_answers = view.answers
    inner_vec_iters = kernel.inner.trip // plan.vf
    outer = kernel.total_iterations // kernel.inner.trip
    stream.iters = inner_vec_iters * outer
    stream.elems_per_iter = plan.vf
    stream.remainder = (kernel.inner.trip % plan.vf) * outer
    stream.working_set_bytes = kernel.working_set_bytes()
    return stream
