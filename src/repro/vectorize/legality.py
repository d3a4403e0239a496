"""Vectorization legality: the paper's first question, "is it possible?".

A loop is vectorizable at factor VF when

* no scalar is a serializing recurrence (reductions are fine),
* every memory dependence carried by the inner loop is forward or has
  distance ≥ VF (see :mod:`repro.analysis.dependence`),
* no store writes a loop-invariant location (last-value stores are out
  of scope, as in the paper's LLV configuration).

Control flow is never a legality problem — it is if-converted — and
indirect accesses are legal as long as they create no *conflicting*
unknown dependence (pure gather reads, scatter writes to an array that
is never read in the loop).

The analyses are consumed through the static-analysis framework's pass
manager (one cached dependence walk shared by the race detector, the
lint pass, and every legality query), and every refusal carries the
structured remarks that name the blocking access pair or scalar — the
``-Rpass-missed=loop-vectorize`` equivalents the ``analyze`` CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.dependence import DependenceInfo
from ..analysis.framework.diagnostics import Remark, Severity
from ..analysis.framework.passmanager import AnalysisManager, default_manager
from ..analysis.framework.passes import AccessPass, ScalarClassPass
from ..analysis.framework.racedetector import RacePass, RaceReport
from ..analysis.reduction import ScalarClass, ScalarInfo
from ..ir.kernel import LoopKernel
from ..ir.types import DType
from ..targets.base import Target

PASS = "loop-vectorize"


@dataclass(frozen=True)
class Legality:
    ok: bool
    reason: str
    detail: str
    max_safe_vf: float
    scalar_info: dict[str, ScalarInfo]
    dep_info: DependenceInfo
    #: Structured remarks explaining a refusal: the blocking access
    #: pair or scalar.  A legal loop has none.
    remarks: tuple[Remark, ...] = ()


def widest_dtype(kernel: LoopKernel) -> DType:
    """The widest element type the kernel touches (decides natural VF)."""
    widest = DType.F32
    for decl in kernel.arrays.values():
        if decl.dtype.size > widest.size:
            widest = decl.dtype
    for decl in kernel.scalars.values():
        if decl.dtype.size > widest.size:
            widest = decl.dtype
    return widest


def natural_vf(kernel: LoopKernel, target: Target) -> int:
    """LLVM-style VF selection: full register of the widest type."""
    return max(2, target.lanes(widest_dtype(kernel)))


def check_legality(
    kernel: LoopKernel,
    vf: int,
    *,
    manager: Optional[AnalysisManager] = None,
) -> Legality:
    """Decide legality at ``vf`` using cached framework analyses."""
    am = manager if manager is not None else default_manager()
    scalar_info: dict[str, ScalarInfo] = am.get(ScalarClassPass, kernel)
    races: RaceReport = am.get(RacePass, kernel)
    dep_info = races.dep_info

    def fail(reason: str, detail: str, remarks: list[Remark]) -> Legality:
        return Legality(
            False,
            reason,
            detail,
            races.max_safe_vf(),
            scalar_info,
            dep_info,
            tuple(remarks),
        )

    for name, info in scalar_info.items():
        if info.klass is ScalarClass.RECURRENCE:
            detail = f"scalar {name!r} carries a serial dependence"
            remark = Remark(
                severity=Severity.REMARK,
                pass_name=PASS,
                kernel=kernel.name,
                message=(
                    f"loop not vectorized: scalar recurrence on '{name}' — "
                    "its previous-iteration value is observed outside a "
                    "reduction pattern, serializing the loop"
                ),
                args=(("scalar", name), ("reason", "scalar recurrence")),
            )
            return fail("scalar recurrence", detail, [remark])

    blocking = races.blocking(vf)
    if blocking:
        race_remarks = races.remarks(vf)
        headline = Remark(
            severity=Severity.REMARK,
            pass_name=PASS,
            kernel=kernel.name,
            message=(
                f"loop not vectorized: unsafe dependent memory operation — "
                f"{blocking[0].describe()}"
            ),
            stmt_index=blocking[0].sink_stmt,
            args=(
                ("reason", "unsafe memory dependence"),
                ("array", blocking[0].array),
                ("max_safe_vf", str(races.max_safe_vf())),
            ),
        )
        return fail(
            "unsafe memory dependence",
            str(blocking[0].dep),
            [headline, *race_remarks],
        )

    for acc in am.get(AccessPass, kernel):
        if acc.is_store and acc.stride == 0:
            detail = f"store to {acc.array} does not move with the inner loop"
            remark = Remark(
                severity=Severity.REMARK,
                pass_name=PASS,
                kernel=kernel.name,
                message=(
                    f"loop not vectorized: store to '{acc.array}' at "
                    f"S{int(acc.pos)} is inner-loop invariant "
                    "(last-value store out of scope)"
                ),
                stmt_index=int(acc.pos),
                args=(("array", acc.array), ("reason", "loop-invariant store")),
            )
            return fail("loop-invariant store", detail, [remark])

    return Legality(True, "ok", "", races.max_safe_vf(), scalar_info, dep_info)
