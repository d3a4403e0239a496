"""Measurement harness: produce "measured" speedups for kernels.

For a kernel and target this module runs the full pipeline —
branch-probability estimation (guard counts over a truncated trip),
scalar lowering + timing, vectorization, vector lowering +
timing, remainder accounting — and reports the measured speedup with
optional deterministic measurement jitter.

It stands in for the paper's hardware runs: TSVC compiled twice (with
and without the vectorizer) and timed on the ARMv8 / x86 machines.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..codegen.lowering import gives_answers
from ..codegen.minstr import MStream
from ..codegen.scalar_gen import lower_scalar
from ..codegen.slp_gen import lower_slp
from ..codegen.vector_gen import lower_vector
from ..ir.kernel import LoopKernel
from ..ir.stmt import IfBlock
from ..memo import Memo
from ..targets.base import Target
from ..targets.generic_ir import GENERIC_IR
from ..vectorize.llv import vectorize_loop
from ..vectorize.plan import VectorizationFailure, VectorizationPlan
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


def measure_kernel(
    kernel: LoopKernel,
    target: Target,
    vf: Optional[int] = None,
    *,
    vectorizer: str = "llv",
    jitter: float = 0.0,
    seed: int = 0,
    guard_probs: Optional[dict[int, float]] = None,
) -> Union[MeasuredSample, VectorizationFailure]:
    """Measure the vectorization speedup of ``kernel`` on ``target``.

    Returns a :class:`VectorizationFailure` when the kernel cannot be
    vectorized (the paper's study excludes those loops too).
    """
    if vectorizer == "llv":
        result = vectorize_loop(kernel, target, vf)
    elif vectorizer == "slp":
        from ..vectorize.slp import slp_vectorize

        result = slp_vectorize(kernel, target, vf)
    else:
        raise ValueError(f"unknown vectorizer {vectorizer!r}")
    if isinstance(result, VectorizationFailure):
        return result
    return measure_plan(
        result, target, jitter=jitter, seed=seed, guard_probs=guard_probs
    )


def measure_plan(
    plan: VectorizationPlan,
    target: Target,
    *,
    jitter: float = 0.0,
    seed: int = 0,
    guard_probs: Optional[dict[int, float]] = None,
) -> MeasuredSample:
    """Measure an existing plan (scalar baseline vs vector execution).

    The plan is lowered for ``target`` and, unless ``GENERIC_IR`` gives
    the same answers to everything that lowering read from its target,
    once more for the IR-level view.
    """
    kernel = plan.kernel
    if guard_probs is None:
        guard_probs = estimate_guard_probs(kernel, seed=seed)

    def lower(lowering: Target) -> MStream:
        if plan.kind == "slp":
            return lower_slp(plan, lowering, guard_probs)
        return lower_vector(plan, lowering)

    scalar_stream = lower_scalar(kernel, target, guard_probs=guard_probs)
    vector_stream = lower(target)
    if gives_answers(GENERIC_IR, vector_stream.target_answers):
        ir_vector_stream = vector_stream
    else:
        ir_vector_stream = lower(GENERIC_IR)

    sb = analyze_stream(scalar_stream, target)
    vb = analyze_stream(vector_stream, target)
    scalar_cycles = sb.total
    # The vector loop pays its own cycles plus a scalar tail for the
    # remainder iterations.
    vector_cycles = vb.total + vector_stream.remainder * sb.per_iter

    # zlib.crc32 is stable across processes (unlike hash(), which is
    # salted per interpreter) — measurements must be reproducible.
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(kernel.name.encode())])
    )
    scalar_cycles = apply_jitter(scalar_cycles, rng, jitter)
    vector_cycles = apply_jitter(vector_cycles, rng, jitter)

    return MeasuredSample(
        kernel=kernel,
        target=target,
        plan=plan,
        scalar_stream=scalar_stream,
        vector_stream=vector_stream,
        ir_vector_stream=ir_vector_stream,
        scalar_cycles=scalar_cycles,
        vector_cycles=vector_cycles,
        scalar_breakdown=sb,
        vector_breakdown=vb,
        guard_probs=guard_probs,
    )
