"""Measurement harness: produce "measured" speedups for kernels.

For a kernel and target this module runs the full pipeline —
branch-probability estimation (guard counts over a truncated trip),
scalar lowering + timing, vectorization, vector lowering +
timing, remainder accounting — and reports the measured speedup with
optional deterministic measurement jitter.

It stands in for the paper's hardware runs: TSVC compiled twice (with
and without the vectorizer) and timed on the ARMv8 / x86 machines.

One :class:`PlanSpace` per kernel and target is the only code that
lowers and times a plan.  A :class:`~repro.vectorize.plan.PlanPoint`
names a transformation recipe — pre-vectorization unroll
(:mod:`repro.vectorize.unroll`), the LLV or SLP vectorizer, machine
lowering and the interleave stream transform — and the space builds
each recipe once.  :func:`measure_plan` times a plan it is given as
its recipe's interleave-1 point, and a plan search scores and
measures the points of one space.  The scalar baseline is always the
*original* kernel, so every point's speedup is comparable.
"""

from __future__ import annotations

import weakref
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from ..analysis.framework.passmanager import default_manager
from ..codegen.interleave import interleave_stream, interleaved_counts
from ..codegen.lowering import gives_answers
from ..codegen.minstr import MStream
from ..codegen.scalar_gen import lower_scalar
from ..codegen.slp_gen import lower_slp
from ..codegen.vector_gen import lower_vector
from ..ir.kernel import LoopKernel
from ..ir.stmt import IfBlock
from ..memo import Memo
from ..targets.base import Target
from ..targets.classes import IClass
from ..targets.generic_ir import GENERIC_IR
from ..vectorize.llv import vectorize_loop
from ..vectorize.plan import PlanPoint, VectorizationFailure, VectorizationPlan
from ..vectorize.slp import slp_vectorize
from ..vectorize.unroll import UnrollError, unroll
from .executor import count_guards, guards_read_inputs_only, make_buffers, run_scalar
from .timing import CycleBreakdown, analyze_stream

#: Inner iterations sampled when estimating branch probabilities (a
#: depth-2 kernel also keeps at most a quarter as many outer
#: iterations; see :func:`~repro.sim.executor.truncated_trips`).
GUARD_SAMPLE_ITERS = 512


@dataclass(frozen=True)
class MeasuredSample:
    """One kernel's measured scalar/vector timing on one target."""

    kernel: LoopKernel
    target: Target
    plan: VectorizationPlan
    scalar_stream: MStream
    vector_stream: MStream
    #: IR-level (pre-lowering) view of the vector block — what the
    #: cost models featurize, mirroring where LLVM's cost model runs.
    #: The very ``vector_stream`` object when the machine lowering read
    #: nothing ``GENERIC_IR`` answers differently.
    ir_vector_stream: MStream
    scalar_cycles: float
    vector_cycles: float
    scalar_breakdown: CycleBreakdown
    vector_breakdown: CycleBreakdown
    guard_probs: dict[int, float]

    @property
    def speedup(self) -> float:
        return self.scalar_cycles / self.vector_cycles

    @property
    def vf(self) -> int:
        return self.plan.vf

    def __str__(self) -> str:
        return (
            f"{self.kernel.name} on {self.target.name}: "
            f"{self.scalar_cycles:.0f} -> {self.vector_cycles:.0f} cycles "
            f"(speedup {self.speedup:.2f}, VF {self.vf}, "
            f"vector {self.vector_breakdown.bound}-bound)"
        )


#: Guard probabilities by (kernel fingerprint, seed).  They are
#: deterministic given the kernel's content and the seed, and several
#: measurements of one kernel (scalar vs vector lowering, LLV vs SLP
#: plans, jitter sweeps, a search after a sweep, a repeat advise
#: request that parsed a new kernel object) would otherwise each repeat
#: the estimate.
GUARD_PROBS = Memo(max_entries=512)


def estimate_guard_probs(kernel: LoopKernel, seed: int = 0) -> dict[int, float]:
    """Branch-taken probabilities over a truncated run of the kernel.

    When no guard reads data the loop writes
    (:func:`~repro.sim.executor.guards_read_inputs_only`), the guards
    are counted over the truncated iteration grid with numpy
    (:func:`~repro.sim.executor.count_guards`); otherwise the
    interpreter runs the truncated loop.  Both give the same dict.
    Memoized per (kernel fingerprint, seed); returns a fresh dict
    either way so callers can never alias each other's copy.
    """
    if not any(isinstance(s, IfBlock) for s in kernel.stmts()):
        return {}
    # Imported here: the pipeline package imports this module.
    from ..pipeline.fingerprint import kernel_fingerprint

    def compute() -> dict[int, float]:
        bufs = make_buffers(kernel, seed=seed)
        run = count_guards if guards_read_inputs_only(kernel) else run_scalar
        return run(kernel, bufs, max_inner_iters=GUARD_SAMPLE_ITERS).guard_probs

    return dict(GUARD_PROBS.get((kernel_fingerprint(kernel), seed), compute))


def apply_jitter(value: float, rng: np.random.Generator, sigma: float) -> float:
    """Multiplicative measurement noise, clipped to ±3σ."""
    if sigma <= 0:
        return value
    eps = float(np.clip(rng.normal(0.0, sigma), -3 * sigma, 3 * sigma))
    return value * (1.0 + eps)


def _vectorize(
    kernel: LoopKernel, target: Target, vf: Optional[int], vectorizer: str
) -> Union[VectorizationPlan, VectorizationFailure]:
    """Run the ``vectorizer`` ("llv" or "slp") on ``kernel``."""
    if vectorizer == "llv":
        return vectorize_loop(kernel, target, vf)
    if vectorizer == "slp":
        return slp_vectorize(kernel, target, vf)
    raise ValueError(f"unknown vectorizer {vectorizer!r}")


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


def _forget_kernels(bases: dict) -> None:
    """Drop a collected space's unrolled kernels from the default analysis manager."""
    manager = default_manager()
    for kernel in bases.values():
        manager.invalidate(kernel)


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
    return _vectorize(base, target, point.vf, point.strategy)


class PlanSpace:
    """One kernel's plan recipes on one target, each built at most once.

    Every piece is computed on first use and kept: the guard
    probabilities at the space's seed, the scalar lowering and its
    timing, each vector recipe's plan (:func:`materialize_point`, or
    one handed in by :meth:`install`), and each recipe's base streams.
    A base stream is kept with the answers its lowering read from the
    target (``MStream.target_answers``), not under a target name: a
    lowering target that gives the same answers (``GENERIC_IR`` for
    scoring and the IR-level view, the machine target for timing) gets
    the same stream object, and only one that answers differently
    lowers the recipe again.  A ``ValueError`` raised while lowering a
    recipe is kept the same way, so every point of that recipe fails
    alike.  A space serves one measurement or search and is then
    dropped, and its unrolled kernels leave the default analysis
    manager with it.
    """

    def __init__(self, kernel: LoopKernel, target: Target, *, seed: int = 0) -> None:
        self.kernel = kernel
        self.target = target
        self._seed = seed
        self._bases: dict = {}
        self._plans: dict = {}
        self._streams: dict = {}
        # The vectorizers analyse the unrolled copies with the default
        # manager, which would keep them alive after the space is gone.
        weakref.finalize(self, _forget_kernels, self._bases).atexit = False

    @cached_property
    def guard_probs(self) -> dict:
        return estimate_guard_probs(self.kernel, seed=self._seed)

    @cached_property
    def scalar_stream(self) -> MStream:
        return lower_scalar(self.kernel, self.target, guard_probs=self.guard_probs)

    @cached_property
    def scalar_timing(self) -> CycleBreakdown:
        return analyze_stream(self.scalar_stream, self.target)

    def install(self, plan: VectorizationPlan) -> PlanPoint:
        """Take ``plan``, a plan of the space's kernel, as its recipe's
        plan instead of vectorizing again; returns its interleave-1
        point."""
        self._plans[(plan.kind, plan.vf, 1)] = plan
        return PlanPoint(plan.vf, 1, 1, plan.kind, self.target.name)

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

    def timed(self, point: PlanPoint) -> tuple[MStream, CycleBreakdown, float]:
        """The vector point's machine stream, its timing, and its vector
        cycles with the scalar tail; raises like :meth:`stream`.

        The vector loop pays its own cycles plus a scalar tail for the
        remainder iterations.  The stream of an unrolled-by-``u`` kernel
        counts its remainder in *unrolled* iterations, each worth ``u``
        original ones at the scalar baseline's per-iteration rate.
        """
        stream = self.stream(point, self.target)
        vb = analyze_stream(stream, self.target)
        tail = stream.remainder * point.unroll
        return stream, vb, vb.total + tail * self.scalar_timing.per_iter


def measure_kernel(
    kernel: LoopKernel,
    target: Target,
    vf: Optional[int] = None,
    *,
    vectorizer: str = "llv",
    jitter: float = 0.0,
    seed: int = 0,
) -> Union[MeasuredSample, VectorizationFailure]:
    """Measure the vectorization speedup of ``kernel`` on ``target``.

    Returns a :class:`VectorizationFailure` when the kernel cannot be
    vectorized (the paper's study excludes those loops too).
    """
    result = _vectorize(kernel, target, vf, vectorizer)
    if isinstance(result, VectorizationFailure):
        return result
    return measure_plan(result, target, jitter=jitter, seed=seed)


def measure_plan(
    plan: VectorizationPlan,
    target: Target,
    *,
    jitter: float = 0.0,
    seed: int = 0,
) -> MeasuredSample:
    """Measure an existing plan (scalar baseline vs vector execution).

    The plan is its recipe's interleave-1 point in a :class:`PlanSpace`
    at ``seed``: lowered for ``target`` and, unless ``GENERIC_IR`` gives
    the same answers to everything that lowering read from its target,
    once more for the IR-level view.
    """
    kernel = plan.kernel
    space = PlanSpace(kernel, target, seed=seed)
    point = space.install(plan)
    vector_stream, vb, vector_cycles = space.timed(point)
    sb = space.scalar_timing

    # zlib.crc32 is stable across processes (unlike hash(), which is
    # salted per interpreter) — measurements must be reproducible.
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(kernel.name.encode())])
    )
    scalar_cycles = apply_jitter(sb.total, rng, jitter)
    vector_cycles = apply_jitter(vector_cycles, rng, jitter)

    return MeasuredSample(
        kernel=kernel,
        target=target,
        plan=plan,
        scalar_stream=space.scalar_stream,
        vector_stream=vector_stream,
        ir_vector_stream=space.stream(point, GENERIC_IR),
        scalar_cycles=scalar_cycles,
        vector_cycles=vector_cycles,
        scalar_breakdown=sb,
        vector_breakdown=vb,
        guard_probs=space.guard_probs,
    )
