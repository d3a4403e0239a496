"""Materialize and measure individual plan points.

A :class:`~repro.vectorize.plan.PlanPoint` names a transformation
recipe; this module runs it through the existing pipeline stages —
pre-vectorization unroll (:mod:`repro.vectorize.unroll`), the LLV/SLP
vectorizers, machine lowering, and the interleave stream transform —
and times the result with the same analytic model the measurement
harness uses.  The scalar baseline is always the *original* kernel, so
every point's speedup is comparable and the scalar point is exactly
1.0 by construction.

Remainder accounting: the vector stream of an unrolled-by-``u`` kernel
counts its remainder in *unrolled* iterations, each worth ``u``
original scalar iterations — the tail therefore costs
``remainder * u`` original scalar iterations at the original kernel's
per-iteration rate.

A search scores every point of a kernel's space but measures only a
few, and both read the same unrolled kernels, vectorizer plans and
lowered streams: one :class:`PlanSpace` per search builds each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

from ..codegen.interleave import interleave_stream, interleaved_counts
from ..codegen.lowering import gives_answers
from ..codegen.minstr import MStream
from ..codegen.scalar_gen import lower_scalar
from ..codegen.slp_gen import lower_slp
from ..codegen.vector_gen import lower_vector
from ..ir.kernel import LoopKernel
from ..sim.measure import estimate_guard_probs
from ..sim.timing import CycleBreakdown, analyze_stream
from ..targets.base import Target
from ..targets.classes import IClass
from ..vectorize.llv import vectorize_loop
from ..vectorize.plan import (
    PlanPoint,
    VectorizationFailure,
    VectorizationPlan,
    is_plan,
)
from ..vectorize.slp import slp_vectorize
from ..vectorize.unroll import UnrollError, unroll


@dataclass(frozen=True)
class PointMeasurement:
    """Analytic ground truth for one plan point."""

    point: PlanPoint
    ok: bool
    speedup: float = 1.0
    scalar_cycles: float = 0.0
    vector_cycles: float = 0.0
    reason: str = ""


def base_kernel(
    kernel: LoopKernel, u: int, bases: Optional[dict] = None
) -> LoopKernel:
    """``kernel`` unrolled by ``u`` (cached in ``bases`` across points)."""
    if u == 1:
        return kernel
    if bases is not None and u in bases:
        return bases[u]
    unrolled = unroll(kernel, u)
    if bases is not None:
        bases[u] = unrolled
    return unrolled


def materialize_point(
    kernel: LoopKernel,
    target: Target,
    point: PlanPoint,
    *,
    bases: Optional[dict] = None,
) -> Union[VectorizationPlan, VectorizationFailure, None]:
    """Run the point's recipe through the real vectorizers.

    Returns ``None`` for the scalar point, a plan when the recipe
    applies, and the vectorizer's :class:`VectorizationFailure` when it
    refuses — enumeration is expected to have pruned those, but the
    search degrades per-point instead of trusting that.
    """
    if point.is_scalar:
        return None
    try:
        base = base_kernel(kernel, point.unroll, bases)
    except UnrollError as exc:
        return VectorizationFailure(kernel, "unroll", str(exc))
    if point.strategy == "slp":
        return slp_vectorize(base, target, point.vf)
    return vectorize_loop(base, target, point.vf)


class PlanSpace:
    """One kernel's plan recipes on one target, each built at most once.

    Every piece is computed on first use and kept: the guard
    probabilities, the scalar lowering and its timing, each vector
    recipe's plan (:func:`materialize_point`), and each recipe's base
    streams.  A base stream is kept with the answers its lowering read
    from the target (``MStream.target_answers``), not under a target
    name: a lowering target that gives the same answers (``GENERIC_IR``
    for scoring, the machine target for measurement) gets the same
    stream object, and only one that answers differently lowers the
    recipe again.  A ``ValueError`` raised while lowering a recipe is
    kept the same way, so every point of that recipe fails alike.  A
    space serves one search and is then dropped.
    """

    def __init__(
        self,
        kernel: LoopKernel,
        target: Target,
        *,
        guard_probs: Optional[dict] = None,
        seed: int = 0,
    ) -> None:
        self.kernel = kernel
        self.target = target
        self._guard_probs = guard_probs
        self._seed = seed
        self._bases: dict = {}
        self._plans: dict = {}
        self._streams: dict = {}

    @cached_property
    def guard_probs(self) -> dict:
        if self._guard_probs is not None:
            return self._guard_probs
        return estimate_guard_probs(self.kernel, seed=self._seed)

    @cached_property
    def scalar_stream(self) -> MStream:
        return lower_scalar(self.kernel, self.target, guard_probs=self.guard_probs)

    @cached_property
    def scalar_timing(self) -> CycleBreakdown:
        return analyze_stream(self.scalar_stream, self.target)

    def plan(
        self, point: PlanPoint
    ) -> Union[VectorizationPlan, VectorizationFailure, None]:
        """:func:`materialize_point` of the point's recipe."""
        key = (point.strategy, point.vf, point.unroll)
        if key not in self._plans:
            self._plans[key] = materialize_point(
                self.kernel, self.target, point, bases=self._bases
            )
        return self._plans[key]

    def _base_stream(self, point: PlanPoint, lowering: Target) -> MStream:
        """The recipe's stream before interleaving, lowered once per set
        of target answers."""
        lowered = self._streams.setdefault(
            (point.strategy, point.vf, point.unroll), []
        )
        for base in lowered:
            # An error raised before the lowering read the target
            # carries no answers, and holds for every target.
            if gives_answers(lowering, getattr(base, "target_answers", {})):
                break
        else:
            plan = self.plan(point)
            try:
                if plan.kind == "slp":
                    base = lower_slp(plan, lowering, self._plan_guard_probs(plan))
                else:
                    base = lower_vector(plan, lowering)
            except ValueError as exc:
                base = exc
            lowered.append(base)
        if isinstance(base, ValueError):
            raise base
        return base

    def _plan_guard_probs(self, plan: VectorizationPlan) -> dict:
        """Guard probabilities of the kernel ``plan`` vectorizes, at the
        space's seed: the space's own for the kernel itself, a fresh
        estimate for an unrolled copy (its guards are numbered anew)."""
        if plan.kernel is self.kernel:
            return self.guard_probs
        return estimate_guard_probs(plan.kernel, seed=self._seed)

    def stream(self, point: PlanPoint, lowering: Target) -> MStream:
        """The vector point's stream lowered for ``lowering``.

        The point must materialize (``is_plan(self.plan(point))``).
        Raises ``ValueError`` when the recipe does not lower or the
        interleave count does not divide the stream's iterations.
        """
        return interleave_stream(self._base_stream(point, lowering), point.interleave)

    def counts(self, point: PlanPoint, lowering: Target) -> dict[IClass, float]:
        """``self.stream(point, lowering).counts()``, computed from the
        base stream without building the interleaved one; raises the
        same ``ValueError``."""
        return interleaved_counts(
            self._base_stream(point, lowering), point.interleave
        )


def measure_points(
    kernel: LoopKernel,
    target: Target,
    points: Sequence[PlanPoint],
    *,
    guard_probs: Optional[dict] = None,
    seed: int = 0,
    space: Optional[PlanSpace] = None,
) -> list[PointMeasurement]:
    """Analytic measurement of every point, scalar baseline shared.

    Deterministic (no jitter — plan choice must not chase noise) and
    in input order.  ``space`` is the search's :class:`PlanSpace` for
    this kernel and target; without one a private space is built from
    ``guard_probs`` and ``seed``.
    """
    if space is None:
        space = PlanSpace(kernel, target, guard_probs=guard_probs, seed=seed)
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
            stream = space.stream(point, target)
        except ValueError as exc:
            out.append(PointMeasurement(point, False, reason=str(exc)))
            continue
        vb = analyze_stream(stream, target)
        vector_cycles = vb.total + (
            stream.remainder * point.unroll
        ) * sb.per_iter
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
