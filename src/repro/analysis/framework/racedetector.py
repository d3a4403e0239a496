"""Dependence race detector: distance/direction vectors + remarks.

Refines :mod:`repro.analysis.dependence` into per-loop-level
distance/direction vectors (the classical ``(=, <)`` notation) and, for
each vectorization factor, produces a remark that names the *exact*
pair of accesses — array, subscripts, statements — that blocks it.
This is the machinery behind ``-Rpass-missed=loop-vectorize``-style
output ("loop not vectorized: unsafe dependent memory operation"), and
what :mod:`repro.vectorize.legality` consumes instead of re-walking
dependences itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ...ir.kernel import LoopKernel
from ..access import AccessInfo
from ..dependence import Dependence, DependenceInfo, DepStatus
from .diagnostics import Remark, Severity
from .passmanager import AnalysisManager, AnalysisPass, register_pass
from .passes import DependencePass


class Direction(enum.Enum):
    """Dependence direction at one loop level (src iteration vs sink's)."""

    LT = "<"   # carried: the source iteration precedes the sink's
    EQ = "="   # loop-independent at this level
    GT = ">"   # source follows sink (normalized away for the inner level)
    ANY = "*"  # unknown


@dataclass(frozen=True)
class DependenceVector:
    """Per-level distances and directions, outermost level first."""

    distances: tuple[Optional[int], ...]
    directions: tuple[Direction, ...]

    def __str__(self) -> str:
        dirs = ", ".join(d.value for d in self.directions)
        dists = ", ".join("?" if d is None else str(d) for d in self.distances)
        return f"direction ({dirs}), distance ({dists})"


@dataclass(frozen=True)
class Race:
    """One refined dependence: the pair of accesses plus its vector."""

    dep: Dependence
    vector: DependenceVector
    src_stmt: int
    sink_stmt: int

    @property
    def array(self) -> str:
        return self.dep.array

    def blocks_vf(self, vf: int) -> bool:
        return not self.dep.safe_for_vf(vf)

    def describe(self) -> str:
        """Human text naming the exact access pair, LLVM-remark style."""
        src, sink = self.dep.src, self.dep.sink
        return (
            f"{self.dep.kind.value} dependence on '{self.array}' between "
            f"{_access_text(src)} (S{self.src_stmt}) and "
            f"{_access_text(sink)} (S{self.sink_stmt}), {self.vector}"
        )


def _access_text(acc: AccessInfo) -> str:
    idx = "][".join(str(ix) for ix in acc.subscript)
    op = "store" if acc.is_store else "load"
    return f"{op} {acc.array}[{idx}]"


@dataclass
class RaceReport:
    """All refined dependences of a kernel plus per-VF queries."""

    kernel: LoopKernel
    dep_info: DependenceInfo
    races: list[Race]

    def blocking(self, vf: int) -> list[Race]:
        return [r for r in self.races if r.blocks_vf(vf)]

    def max_safe_vf(self) -> float:
        return self.dep_info.max_safe_vf()

    def remarks(self, vf: int) -> list[Remark]:
        """One structured remark per dependence that blocks ``vf``."""
        out = []
        for race in self.blocking(vf):
            dep = race.dep
            why = (
                "runtime-unknown dependence distance"
                if dep.status is DepStatus.UNKNOWN
                else f"backward carried dependence, distance {dep.distance} < VF {vf}"
            )
            out.append(
                Remark(
                    severity=Severity.REMARK,
                    pass_name="race-detector",
                    kernel=self.kernel.name,
                    message=f"blocks VF {vf}: {race.describe()} ({why})",
                    stmt_index=race.sink_stmt,
                    stmt=_access_text(dep.sink),
                    args=(
                        ("array", dep.array),
                        ("kind", dep.kind.value),
                        ("src", _access_text(dep.src)),
                        ("sink", _access_text(dep.sink)),
                        ("src_stmt", str(race.src_stmt)),
                        ("sink_stmt", str(race.sink_stmt)),
                        ("distance", "?" if dep.distance is None else str(dep.distance)),
                        ("direction", "".join(d.value for d in race.vector.directions)),
                        ("vf", str(vf)),
                    ),
                )
            )
        return out


@register_pass
class RacePass(AnalysisPass):
    """Builds the :class:`RaceReport` on top of the cached dependences."""

    name = "race-detector"

    def run(self, kernel: LoopKernel, am: AnalysisManager) -> RaceReport:
        dep_info: DependenceInfo = am.get(DependencePass, kernel)
        races = [_refine(kernel, dep) for dep in dep_info.dependences]
        return RaceReport(kernel, dep_info, races)


def _refine(kernel: LoopKernel, dep: Dependence) -> Race:
    """Attach a per-level distance/direction vector to one dependence."""
    depth = kernel.depth
    inner = kernel.inner_level
    lin_src, lin_sink = dep.src.linear, dep.sink.linear
    distances: list[Optional[int]] = []
    directions: list[Direction] = []
    for lvl in range(depth):
        if lvl == inner:
            d = dep.distance
            distances.append(d)
            if d is None:
                directions.append(Direction.ANY)
            elif d == 0:
                directions.append(Direction.EQ)
            else:
                directions.append(Direction.LT)
        elif (
            lin_src is None
            or lin_sink is None
            or lin_src.coeff(lvl) != lin_sink.coeff(lvl)
        ):
            # Indirect access or mismatched outer coefficients: the
            # dependence test gave up, so the level is unconstrained.
            distances.append(None)
            directions.append(Direction.ANY)
        else:
            # Equal outer contributions: the accesses can only alias
            # within the same outer iteration.
            distances.append(0)
            directions.append(Direction.EQ)
    return Race(
        dep=dep,
        vector=DependenceVector(tuple(distances), tuple(directions)),
        src_stmt=int(dep.src.pos),
        sink_stmt=int(dep.sink.pos),
    )


def analyze_races(
    kernel: LoopKernel, manager: Optional[AnalysisManager] = None
) -> RaceReport:
    """Convenience entry point (uses the default manager)."""
    from .passmanager import default_manager

    am = manager if manager is not None else default_manager()
    return am.get(RacePass, kernel)


__all__ = [
    "Direction",
    "DependenceVector",
    "Race",
    "RaceReport",
    "RacePass",
    "analyze_races",
]
