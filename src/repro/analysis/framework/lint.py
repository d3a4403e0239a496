"""IR lint: silent kernel defects surfaced as structured remarks.

Four families of findings:

* **dead stores** — an unguarded array store whose location is
  rewritten later in the same iteration with no possible intervening
  read (warning), and scalar definitions no statement can observe
  (warning, via def-use chains);
* **unused declarations** — arrays/scalars declared but never
  referenced by the body (warning);
* **constant guards** — ``if`` conditions the value-range analysis
  proves constant — literal folds and provable bounds like ``i < N``
  alike — so one arm is dead (warning; init-contingent verdicts are
  informational remarks);
* **vectorization hazards** — non-affine (indirect) subscripts that
  silently defeat affine dependence analysis, and inner-loop-invariant
  statements (informational remarks; they change cost, not meaning).

Warnings gate ``repro.experiments analyze --strict`` and the pipeline
pre-pass treats *errors* as fatal, so the TSVC suite is expected to be
warning-free.
"""

from __future__ import annotations

from typing import Optional

from ...ir.expr import Indirect
from ...ir.kernel import LoopKernel
from .diagnostics import Remark, Severity
from .passmanager import AnalysisManager, AnalysisPass, register_pass
from .passes import (
    AccessPass,
    DefUsePass,
    LoopInvariantPass,
    stmt_list,
)
from .ranges import GuardRangePass

PASS = "lint"


@register_pass
class LintPass(AnalysisPass):
    """Runs every lint rule; the result is a tuple of remarks."""

    name = PASS

    def run(self, kernel: LoopKernel, am: AnalysisManager) -> tuple[Remark, ...]:
        remarks: list[Remark] = []
        remarks += _dead_array_stores(kernel, am)
        remarks += _dead_scalar_defs(kernel, am)
        remarks += _unused_declarations(kernel)
        remarks += _constant_guards(kernel, am)
        remarks += _vectorization_hazards(kernel, am)
        return tuple(remarks)


def lint_kernel(
    kernel: LoopKernel, manager: Optional[AnalysisManager] = None
) -> tuple[Remark, ...]:
    """Convenience entry point (uses the default manager)."""
    from .passmanager import default_manager

    am = manager if manager is not None else default_manager()
    return am.get(LintPass, kernel)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def _dead_array_stores(kernel: LoopKernel, am: AnalysisManager) -> list[Remark]:
    """Unguarded store overwritten by an identical later store with no
    potentially-aliasing read of the array in between."""
    accesses = am.get(AccessPass, kernel)
    out: list[Remark] = []
    stores = [a for a in accesses if a.is_store and a.guard_depth == 0]
    for i, first in enumerate(stores):
        lin_first = first.linear
        if lin_first is None:
            continue
        for second in stores[i + 1 :]:
            if second.array != first.array:
                continue
            if second.linear != lin_first:
                continue
            reads_between = [
                a
                for a in accesses
                if a.is_load
                and a.array == first.array
                and first.pos < a.pos < second.pos
            ]
            if any(
                r.linear is None or r.linear == lin_first for r in reads_between
            ):
                continue
            out.append(
                Remark(
                    severity=Severity.WARNING,
                    pass_name=PASS,
                    kernel=kernel.name,
                    message=(
                        f"dead store: S{int(first.pos)} writes "
                        f"{first.array}[{_sub(first)}] which S{int(second.pos)} "
                        "overwrites in the same iteration with no intervening read"
                    ),
                    stmt_index=int(first.pos),
                    args=(("array", first.array), ("overwritten_by", str(int(second.pos)))),
                )
            )
            break
    return out


def _dead_scalar_defs(kernel: LoopKernel, am: AnalysisManager) -> list[Remark]:
    du = am.get(DefUsePass, kernel)
    stmts = stmt_list(kernel)
    return [
        Remark(
            severity=Severity.WARNING,
            pass_name=PASS,
            kernel=kernel.name,
            message=(
                f"dead store: scalar '{name}' assigned at S{idx} is never "
                "read before being overwritten"
            ),
            stmt_index=idx,
            stmt=str(stmts[idx]),
            args=(("scalar", name),),
        )
        for name, idx in du.dead_defs
    ]


def _unused_declarations(kernel: LoopKernel) -> list[Remark]:
    used_arrays = kernel.arrays_read() | kernel.arrays_written()
    out = [
        Remark(
            severity=Severity.WARNING,
            pass_name=PASS,
            kernel=kernel.name,
            message=f"unused declaration: array '{name}' is never accessed",
            args=(("array", name),),
        )
        for name in kernel.arrays
        if name not in used_arrays
    ]
    referenced = kernel.assigned_scalars() | {
        n.name
        for s in kernel.stmts()
        for root in s.exprs()
        for n in root.walk()
        if hasattr(n, "name") and n.name in kernel.scalars
    }
    out += [
        Remark(
            severity=Severity.WARNING,
            pass_name=PASS,
            kernel=kernel.name,
            message=f"unused declaration: scalar '{name}' is never referenced",
            args=(("scalar", name),),
        )
        for name in kernel.scalars
        if name not in referenced
    ]
    return out


def _constant_guards(kernel: LoopKernel, am: AnalysisManager) -> list[Remark]:
    """Guards the range analysis proves constant.

    Routed through :class:`~.ranges.GuardRangePass` instead of a local
    literal folder, so conditions like ``i < N`` with provable
    induction-variable bounds are flagged too.  Pure verdicts (true for
    any scalar inputs) are dead code and warn; verdicts that hold only
    for the declared scalar inits are data, not structure, and surface
    as informational remarks.
    """
    guards = am.get(GuardRangePass, kernel)
    stmts = stmt_list(kernel)
    out: list[Remark] = []
    for idx, val in sorted(guards.verdicts.items()):
        arm = "else" if val else "then"
        always = "true" if val else "false"
        out.append(
            Remark(
                severity=Severity.WARNING,
                pass_name=PASS,
                kernel=kernel.name,
                message=(
                    f"guard at S{idx} is always {always}: "
                    f"the {arm} branch is dead code"
                ),
                stmt_index=idx,
                stmt=str(stmts[idx].cond),
                args=(("value", always),),
            )
        )
    for idx, val in sorted(guards.init_verdicts.items()):
        always = "true" if val else "false"
        out.append(
            Remark(
                severity=Severity.REMARK,
                pass_name=PASS,
                kernel=kernel.name,
                message=(
                    f"guard at S{idx} is always {always} for the declared "
                    "scalar initial values (not folded: callers may "
                    "override scalars)"
                ),
                stmt_index=idx,
                stmt=str(stmts[idx].cond),
                args=(("value", always), ("contingent", "inits")),
            )
        )
    return out


def _vectorization_hazards(kernel: LoopKernel, am: AnalysisManager) -> list[Remark]:
    out: list[Remark] = []
    seen: set[tuple[str, int]] = set()
    for acc in am.get(AccessPass, kernel):
        if any(isinstance(ix, Indirect) for ix in acc.subscript):
            key = (acc.array, int(acc.pos))
            if key in seen:
                continue
            seen.add(key)
            op = "store" if acc.is_store else "load"
            out.append(
                Remark(
                    severity=Severity.REMARK,
                    pass_name=PASS,
                    kernel=kernel.name,
                    message=(
                        f"non-affine subscript: {op} {acc.array}[{_sub(acc)}] at "
                        f"S{int(acc.pos)} defeats affine dependence analysis "
                        "(lowered as gather/scatter)"
                    ),
                    stmt_index=int(acc.pos),
                    args=(("array", acc.array), ("access", op)),
                )
            )
    inv = am.get(LoopInvariantPass, kernel)
    stmts = stmt_list(kernel)
    out += [
        Remark(
            severity=Severity.REMARK,
            pass_name=PASS,
            kernel=kernel.name,
            message=(
                f"statement S{i} is inner-loop invariant "
                "(re-executed identically every iteration)"
            ),
            stmt_index=i,
            stmt=str(stmts[i]),
        )
        for i in inv.invariant_stmts
    ]
    return out


def _sub(acc) -> str:
    return "][".join(str(ix) for ix in acc.subscript)


__all__ = ["LintPass", "lint_kernel", "PASS"]
