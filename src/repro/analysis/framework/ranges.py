"""Range-analysis pass family: bounds proofs, guard verdicts, safety.

Three registered passes layered on the interval engine in
:mod:`repro.analysis.ranges`, mirroring how LLVM's vectorizer consumes
ValueTracking/ScalarEvolution facts:

* :class:`ValueRangePass` (``ranges``) — the fixpoint interval analysis
  itself, computed twice: once seeding scalars from their declared
  initial values (true for the measurement harness) and once from their
  dtype tops (true for *any* caller-supplied scalars).  A verdict that
  must hold for every run comes from the second, "pure" result; the
  executor accepts scalar overrides, so a fact justified by an init
  value need not hold for an overridden run.
* :class:`BoundsCheckPass` (``bounds``) — per access dimension: the
  static index range, whether it is proven inside ``[0, extent)``,
  whether it at least stays in ``[-extent, extent)`` (wrap-legal:
  negative indices alias valid elements, so the access cannot fault),
  and — for gather/scatter — whether
  the proof leans on the **harness data contract**: ``make_buffers``
  fills integer arrays with ``permutation(n) % min_extent``, so index-
  array *contents* are in ``[0, min_extent)``.  Contract-contingent
  proofs are sound for measurement buffers only.
* :class:`GuardRangePass` (``guard-range``) — guards proven always/
  never taken, for any scalar values or only for the declared inits.

:func:`prove_safe` is the kernel-validator API built on top — it
classifies a kernel as ``proven-safe`` / ``proven-unsafe`` / ``unknown``
— and :func:`crosscheck_kernel` replays every static claim against
concrete execution (address evaluation over the real iteration space
plus the dynamic dependence sanitizer); any disagreement means one side
is wrong and is reported as a contradiction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...ir.expr import Affine, Indirect, Load
from ...ir.kernel import LoopKernel
from ...ir.stmt import ArrayStore, IfBlock, Stmt
from ..ranges import Interval, KernelRanges, affine_interval, analyze_ranges
from .diagnostics import Remark, Severity
from .passmanager import AnalysisManager, AnalysisPass, default_manager, register_pass
from .passes import stmt_list

PASS_BOUNDS = "bounds"
PASS_GUARD = "guard-range"


# ---------------------------------------------------------------------------
# ValueRangePass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RangesResult:
    """Both fixpoints of one kernel (see module doc).

    ``harness`` assumes declared scalar inits; ``pure`` holds for any
    scalar values and is the only legal input to transforms.
    """

    harness: KernelRanges
    pure: KernelRanges


@register_pass
class ValueRangePass(AnalysisPass):
    name = "ranges"

    def run(self, kernel: LoopKernel, am: AnalysisManager) -> RangesResult:
        return RangesResult(
            harness=analyze_ranges(kernel, assume_inits=True),
            pure=analyze_ranges(kernel, assume_inits=False),
        )


# ---------------------------------------------------------------------------
# BoundsCheckPass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessBounds:
    """Verdict for one subscript dimension of one array access."""

    stmt_index: int
    array: str
    dim: int
    kind: str  # "affine" | "gather" | "scatter"
    index: str
    lo: float
    hi: float
    extent: int
    proven: bool  # index ∈ [0, extent)
    wrap_legal: bool  # index ∈ [-extent, extent): cannot fault
    contingent: bool  # proof relies on the harness data contract
    guarded: bool  # access sits under at least one IfBlock

    def to_dict(self) -> dict:
        return {
            "stmt_index": self.stmt_index,
            "array": self.array,
            "dim": self.dim,
            "kind": self.kind,
            "index": self.index,
            "range": [self.lo, self.hi],
            "extent": self.extent,
            "proven": self.proven,
            "wrap_legal": self.wrap_legal,
            "contingent": self.contingent,
            "guarded": self.guarded,
        }


@dataclass(frozen=True)
class BoundsInfo:
    kernel: str
    #: Content bounds [lo, hi] of integer arrays under the harness data
    #: contract (None when the kernel has no arrays).
    contract: Optional[tuple[int, int]]
    accesses: tuple[AccessBounds, ...]
    remarks: tuple[Remark, ...] = ()

    @property
    def gathers_total(self) -> int:
        return sum(1 for a in self.accesses if a.kind != "affine")

    @property
    def gathers_proven(self) -> int:
        return sum(1 for a in self.accesses if a.kind != "affine" and a.proven)

    @property
    def all_proven(self) -> bool:
        return all(a.proven for a in self.accesses)

    @property
    def all_wrap_legal(self) -> bool:
        return all(a.wrap_legal for a in self.accesses)

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "contract": list(self.contract) if self.contract else None,
            "accesses": [a.to_dict() for a in self.accesses],
            "gathers_total": self.gathers_total,
            "gathers_proven": self.gathers_proven,
        }


def _harness_contract(kernel: LoopKernel) -> Optional[tuple[int, int]]:
    """Integer-array content bounds guaranteed by ``make_buffers``."""
    if not kernel.arrays:
        return None
    min_len = min(
        int(np.prod(decl.extents)) for decl in kernel.arrays.values()
    )
    return (0, min_len - 1)


@register_pass
class BoundsCheckPass(AnalysisPass):
    name = PASS_BOUNDS

    def run(self, kernel: LoopKernel, am: AnalysisManager) -> BoundsInfo:
        ranges: RangesResult = am.get(ValueRangePass, kernel)
        trips = [lp.trip for lp in kernel.loops]
        contract = _harness_contract(kernel)
        verdicts: list[AccessBounds] = []
        remarks: list[Remark] = []

        def classify(
            ix, array: str, dim: int, stmt_index: int, is_store: bool, guarded: bool
        ) -> None:
            ext = kernel.arrays[array].extents[dim]
            if isinstance(ix, Affine):
                lo, hi = affine_interval(ix, trips)
                verdicts.append(
                    AccessBounds(
                        stmt_index=stmt_index,
                        array=array,
                        dim=dim,
                        kind="affine",
                        index=str(ix),
                        lo=lo,
                        hi=hi,
                        extent=ext,
                        proven=0 <= lo and hi < ext,
                        wrap_legal=-ext <= lo and hi < ext,
                        contingent=False,
                        guarded=guarded,
                    )
                )
                return
            assert isinstance(ix, Indirect)
            idx_decl = kernel.arrays[ix.array]
            if len(idx_decl.extents) == 1:
                # The index-array read is itself an affine access and
                # gets its own verdict: raw emission of a gather needs
                # both legs (the read in bounds, the contents in bounds).
                classify(ix.index, ix.array, 0, stmt_index, False, guarded)
            # Below we bound the *content* feeding the target access.
            # Purely, contents are only dtype-bounded; the harness
            # contract tightens them to [0, min_extent).
            ilo, ihi = affine_interval(ix.index, trips)
            idx_ext = int(np.prod(idx_decl.extents))
            index_read_safe = -idx_ext <= ilo and ihi < idx_ext
            if contract is not None and index_read_safe:
                clo, chi = contract
            else:
                top = Interval.top(idx_decl.dtype)
                clo, chi = top.lo, top.hi
            proven = contract is not None and index_read_safe and chi < ext
            kind = "scatter" if is_store else "gather"
            verdicts.append(
                AccessBounds(
                    stmt_index=stmt_index,
                    array=array,
                    dim=dim,
                    kind=kind,
                    index=str(ix),
                    lo=clo,
                    hi=chi,
                    extent=ext,
                    proven=proven,
                    wrap_legal=proven,  # contents could be anything otherwise
                    contingent=proven,
                    guarded=guarded,
                )
            )
            if proven:
                remarks.append(
                    Remark(
                        severity=Severity.REMARK,
                        pass_name=PASS_BOUNDS,
                        kernel=kernel.name,
                        message=(
                            f"{kind} {array}[{ix}] at S{stmt_index} proven "
                            f"in bounds [0, {ext}): index-array contents are "
                            f"in [0, {chi + 1}) by the harness data contract"
                        ),
                        stmt_index=stmt_index,
                        stmt=str(ix),
                        args=(
                            ("array", array),
                            ("kind", kind),
                            ("extent", str(ext)),
                            ("contingent", "true"),
                        ),
                    )
                )

        def walk(stmts: tuple[Stmt, ...], counter: list[int], depth: int) -> None:
            for stmt in stmts:
                idx = counter[0]
                counter[0] += 1
                for root in stmt.exprs():
                    for node in root.walk():
                        if isinstance(node, Load):
                            for d, ix in enumerate(node.subscript):
                                classify(ix, node.array, d, idx, False, depth > 0)
                if isinstance(stmt, ArrayStore):
                    for d, ix in enumerate(stmt.subscript):
                        classify(ix, stmt.array, d, idx, True, depth > 0)
                if isinstance(stmt, IfBlock):
                    walk(stmt.then_body, counter, depth + 1)
                    walk(stmt.else_body, counter, depth + 1)

        walk(kernel.body, [0], 0)
        del ranges  # dependency edge recorded; affine ranges are exact
        n_aff = sum(1 for v in verdicts if v.kind == "affine" and v.proven)
        if verdicts and all(v.proven for v in verdicts):
            remarks.append(
                Remark(
                    severity=Severity.REMARK,
                    pass_name=PASS_BOUNDS,
                    kernel=kernel.name,
                    message=(
                        f"all {len(verdicts)} access dimensions proven in "
                        f"bounds ({n_aff} affine, "
                        f"{len(verdicts) - n_aff} gather/scatter)"
                    ),
                    args=(("accesses", str(len(verdicts))),),
                )
            )
        return BoundsInfo(
            kernel=kernel.name,
            contract=contract,
            accesses=tuple(verdicts),
            remarks=tuple(remarks),
        )


# ---------------------------------------------------------------------------
# GuardRangePass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuardRangeInfo:
    kernel: str
    #: stmt index -> constant truth value, provable for any scalars.
    verdicts: dict[int, bool]
    #: provable only when scalars hold their declared inits.
    init_verdicts: dict[int, bool]
    remarks: tuple[Remark, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "constant_guards": {
                str(k): v for k, v in sorted(self.verdicts.items())
            },
            "init_constant_guards": {
                str(k): v for k, v in sorted(self.init_verdicts.items())
            },
        }


@register_pass
class GuardRangePass(AnalysisPass):
    name = PASS_GUARD

    def run(self, kernel: LoopKernel, am: AnalysisManager) -> GuardRangeInfo:
        ranges: RangesResult = am.get(ValueRangePass, kernel)
        verdicts: dict[int, bool] = {}
        init_verdicts: dict[int, bool] = {}
        remarks: list[Remark] = []
        for idx, stmt in enumerate(stmt_list(kernel)):
            if not isinstance(stmt, IfBlock):
                continue
            pure = ranges.pure.eval(stmt.cond, idx)
            if pure.definitely_true() or pure.definitely_false():
                value = pure.definitely_true()
                verdicts[idx] = value
                remarks.append(
                    Remark(
                        severity=Severity.REMARK,
                        pass_name=PASS_GUARD,
                        kernel=kernel.name,
                        message=(
                            f"guard at S{idx} proven always "
                            f"{'true' if value else 'false'}"
                        ),
                        stmt_index=idx,
                        stmt=str(stmt.cond),
                        args=(("value", str(value).lower()),),
                    )
                )
                continue
            har = ranges.harness.eval(stmt.cond, idx)
            if har.definitely_true() or har.definitely_false():
                # Holds for the declared scalar inits only (callers may
                # override scalar values).
                init_verdicts[idx] = har.definitely_true()
        return GuardRangeInfo(
            kernel=kernel.name,
            verdicts=verdicts,
            init_verdicts=init_verdicts,
            remarks=tuple(remarks),
        )


# ---------------------------------------------------------------------------
# prove_safe: the kernel-validator API
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SafetyReport:
    """Static memory-safety classification of one kernel.

    ``proven-safe``: no access can fault — affine indices stay inside
    the wrap-legal window ``[-extent, extent)`` and every gather/scatter
    is proven under the harness data contract.  ``proven-unsafe``: some
    *unguarded* access must fault on a full run (its exact static index
    range leaves the wrap-legal window, and unguarded statements execute
    on every iteration).  ``unknown``: neither proof goes through.
    """

    kernel: str
    classification: str  # "proven-safe" | "proven-unsafe" | "unknown"
    #: Safety relies on the harness data contract (gathers present).
    contingent: bool
    reasons: tuple[str, ...]
    accesses_total: int
    accesses_proven: int
    gathers_total: int
    gathers_proven: int

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "classification": self.classification,
            "contingent": self.contingent,
            "reasons": list(self.reasons),
            "accesses_total": self.accesses_total,
            "accesses_proven": self.accesses_proven,
            "gathers_total": self.gathers_total,
            "gathers_proven": self.gathers_proven,
        }


def prove_safe(
    kernel: LoopKernel, manager: Optional[AnalysisManager] = None
) -> SafetyReport:
    """Classify ``kernel`` as proven-safe / proven-unsafe / unknown."""
    am = manager if manager is not None else default_manager()
    bounds: BoundsInfo = am.get(BoundsCheckPass, kernel)
    reasons: list[str] = []
    unsafe: list[str] = []
    for acc in bounds.accesses:
        where = f"{acc.kind} {acc.array}[{acc.index}] at S{acc.stmt_index}"
        if acc.wrap_legal:
            continue
        if acc.kind == "affine":
            if not acc.guarded:
                unsafe.append(
                    f"{where}: index range [{int(acc.lo)}, {int(acc.hi)}] "
                    f"leaves [-{acc.extent}, {acc.extent}) and the access "
                    "is unguarded (faults on a full run)"
                )
            else:
                reasons.append(
                    f"{where}: index range [{int(acc.lo)}, {int(acc.hi)}] "
                    f"may leave [-{acc.extent}, {acc.extent}) but the "
                    "access is guarded"
                )
        else:
            reasons.append(
                f"{where}: index-array contents not provably in "
                f"[0, {acc.extent})"
            )
    if unsafe:
        classification = "proven-unsafe"
        reasons = unsafe + reasons
    elif not reasons:
        classification = "proven-safe"
    else:
        classification = "unknown"
    return SafetyReport(
        kernel=kernel.name,
        classification=classification,
        contingent=any(a.contingent for a in bounds.accesses),
        reasons=tuple(reasons),
        accesses_total=len(bounds.accesses),
        accesses_proven=sum(1 for a in bounds.accesses if a.proven),
        gathers_total=bounds.gathers_total,
        gathers_proven=bounds.gathers_proven,
    )


# ---------------------------------------------------------------------------
# Dynamic cross-check
# ---------------------------------------------------------------------------


def _iteration_grids(kernel: LoopKernel) -> list[np.ndarray]:
    """Flattened per-level iteration index arrays covering every
    iteration of the (depth 1 or 2) nest."""
    trips = [lp.trip for lp in kernel.loops]
    if len(trips) == 1:
        return [np.arange(trips[0], dtype=np.int64)]
    outer = np.repeat(np.arange(trips[0], dtype=np.int64), trips[1])
    inner = np.tile(np.arange(trips[1], dtype=np.int64), trips[0])
    return [outer, inner]


def crosscheck_kernel(
    kernel: LoopKernel,
    seed: int = 0,
    manager: Optional[AnalysisManager] = None,
    sanitize: bool = True,
) -> list[str]:
    """Replay every static range claim against concrete execution.

    Returns a list of contradiction descriptions (empty = consistent):

    * every access dimension claimed ``proven`` must index inside
      ``[0, extent)`` on **all** iterations with real harness buffers
      (the static claim quantifies over all iterations, so this is the
      exact obligation, not a sample);
    * ``wrap_legal`` claims must stay inside ``[-extent, extent)``;
    * a ``proven-unsafe`` classification must exhibit a concrete
      faulting iteration;
    * when the kernel is legally vectorizable, the dynamic dependence
      sanitizer must accept it (``sanitize=False`` skips this leg).
    """
    from ...sim.executor import make_buffers

    am = manager if manager is not None else default_manager()
    bounds: BoundsInfo = am.get(BoundsCheckPass, kernel)
    report = prove_safe(kernel, am)
    bufs = make_buffers(kernel, seed=seed)
    grids = _iteration_grids(kernel)
    out: list[str] = []

    def affine_values(af: Affine) -> np.ndarray:
        val = np.full_like(grids[0], af.offset)
        for lvl, c in enumerate(af.coeffs):
            if c and lvl < len(grids):
                val = val + c * grids[lvl]
        return val

    def index_values(ix, stack: str) -> Optional[np.ndarray]:
        if isinstance(ix, Affine):
            return affine_values(ix)
        inner = index_values(ix.index, stack)
        decl = kernel.arrays[ix.array]
        n = int(np.prod(decl.extents))
        if inner is None or inner.min() < -n or inner.max() >= n:
            return None  # index-array read itself faults
        return bufs[ix.array].reshape(-1)[inner].astype(np.int64, copy=False)

    any_fault = False
    checked: dict[tuple, tuple[int, int]] = {}
    for acc in bounds.accesses:
        key = (acc.array, acc.dim, acc.index)
        if key in checked:
            lo, hi = checked[key]
        else:
            # Re-locate the subscript object by re-walking the body in
            # the same order BoundsCheckPass did.  An index-array read
            # row (emitted for each gather/scatter) lives inside an
            # Indirect node, so those are probed too.
            vals = None
            for stmt in kernel.stmts():
                subs: list[tuple[str, tuple]] = [
                    (node.array, node.subscript)
                    for root in stmt.exprs()
                    for node in root.walk()
                    if isinstance(node, Load)
                ]
                if isinstance(stmt, ArrayStore):
                    subs.append((stmt.array, stmt.subscript))
                roots: list = []
                for array, sub in subs:
                    for d, ix in enumerate(sub):
                        if (
                            array == acc.array
                            and d == acc.dim
                            and str(ix) == acc.index
                        ):
                            roots.append(ix)
                        if (
                            isinstance(ix, Indirect)
                            and ix.array == acc.array
                            and acc.dim == 0
                            and str(ix.index) == acc.index
                        ):
                            roots.append(ix.index)
                if roots:
                    vals = index_values(roots[0], acc.index)
                    break
            if vals is None:
                lo, hi = (-(2**62), 2**62)  # faulting index-array read
            else:
                lo, hi = int(vals.min()), int(vals.max())
            checked[key] = (lo, hi)
        if lo < -acc.extent or hi >= acc.extent:
            any_fault = True
        if acc.proven and not (0 <= lo and hi < acc.extent):
            out.append(
                f"{kernel.name}: {acc.kind} {acc.array}[{acc.index}] at "
                f"S{acc.stmt_index} claimed proven in [0, {acc.extent}) but "
                f"concrete indices span [{lo}, {hi}] (seed {seed})"
            )
        elif acc.wrap_legal and not (-acc.extent <= lo and hi < acc.extent):
            out.append(
                f"{kernel.name}: {acc.kind} {acc.array}[{acc.index}] at "
                f"S{acc.stmt_index} claimed wrap-legal in "
                f"[-{acc.extent}, {acc.extent}) but concrete indices span "
                f"[{lo}, {hi}] (seed {seed})"
            )

    if report.classification == "proven-safe" and any_fault:
        out.append(
            f"{kernel.name}: classified proven-safe but a concrete access "
            f"faults (seed {seed})"
        )
    if report.classification == "proven-unsafe" and not any_fault:
        out.append(
            f"{kernel.name}: classified proven-unsafe but no concrete "
            f"access faults (seed {seed})"
        )

    if sanitize:
        from ...targets.registry import get_target
        from ...vectorize.legality import check_legality, natural_vf
        from .sanitizer import SanitizerError, check_dependence_claims

        vf = natural_vf(kernel, get_target("neon"))
        legality = check_legality(kernel, vf, manager=am)
        if legality.ok:
            try:
                check_dependence_claims(kernel, legality.dep_info, vf, bufs)
            except SanitizerError as err:
                out.append(f"{kernel.name}: dependence sanitizer: {err}")
    return out


__all__ = [
    "AccessBounds",
    "BoundsCheckPass",
    "BoundsInfo",
    "GuardRangeInfo",
    "GuardRangePass",
    "PASS_BOUNDS",
    "PASS_GUARD",
    "RangesResult",
    "SafetyReport",
    "ValueRangePass",
    "crosscheck_kernel",
    "prove_safe",
]
