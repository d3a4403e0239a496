"""Measure individual plan points.

A :class:`~repro.vectorize.plan.PlanPoint` names a transformation
recipe; :class:`~repro.sim.measure.PlanSpace` builds and times it with
the same code that measures every dataset sample.  This module reads
the analytic ground truth of a search's points from that space.  The
scalar baseline is always the *original* kernel, so every point's
speedup is comparable and the scalar point is exactly 1.0 by
construction.

A search scores every point of a kernel's space but measures only a
few, and both read the same unrolled kernels, vectorizer plans and
lowered streams: one :class:`~repro.sim.measure.PlanSpace` per search
builds each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..ir.kernel import LoopKernel
from ..sim.measure import PlanSpace
from ..targets.base import Target
from ..vectorize.plan import PlanPoint, is_plan


@dataclass(frozen=True)
class PointMeasurement:
    """Analytic ground truth for one plan point."""

    point: PlanPoint
    ok: bool
    speedup: float = 1.0
    scalar_cycles: float = 0.0
    vector_cycles: float = 0.0
    reason: str = ""


def measure_points(
    kernel: LoopKernel,
    target: Target,
    points: Sequence[PlanPoint],
    *,
    space: Optional[PlanSpace] = None,
) -> list[PointMeasurement]:
    """Analytic measurement of every point, scalar baseline shared.

    Deterministic (no jitter — plan choice must not chase noise) and
    in input order.  ``space`` is the search's :class:`PlanSpace` for
    this kernel and target; without one a private space is built.
    """
    if space is None:
        space = PlanSpace(kernel, target)
    sb = space.scalar_timing
    out: list[PointMeasurement] = []
    for point in points:
        if point.is_scalar:
            out.append(
                PointMeasurement(
                    point, True, 1.0, sb.total, sb.total, "baseline"
                )
            )
            continue
        result = space.plan(point)
        if not is_plan(result):
            out.append(PointMeasurement(point, False, reason=result.reason))
            continue
        try:
            _, _, vector_cycles = space.timed(point)
        except ValueError as exc:
            out.append(PointMeasurement(point, False, reason=str(exc)))
            continue
        out.append(
            PointMeasurement(
                point,
                True,
                sb.total / max(vector_cycles, 1e-12),
                sb.total,
                vector_cycles,
            )
        )
    return out
