"""Lowering of SLP plans: packed statements vectorize, the rest stay
scalar × factor.

The stream models the unroll-then-pack output: one stream iteration
retires ``factor`` original iterations; packed statements lower exactly
like loop-vectorized code at VF = factor, while unpacked statements
appear as ``factor`` scalar copies (subscripts shifted per copy by the
unroll normalization).
"""

from __future__ import annotations

from typing import Optional

from ..ir.stmt import IfBlock, Stmt
from ..targets.base import Target
from ..vectorize.plan import VectorizationPlan
from ..vectorize.unroll import _rewrite_stmt
from .lowering import TargetView
from .minstr import MStream, StreamBuilder
from .scalar_gen import DEFAULT_GUARD_PROB, ScalarLowerer
from .vector_gen import VectorLowerer


def _count_guards(stmt: Stmt) -> int:
    return sum(1 for s in stmt.walk() if isinstance(s, IfBlock))


def _expanded_guard_probs(
    kernel, packed: frozenset[int], factor: int, original: dict[int, float]
) -> dict[int, float]:
    """Map guard indices of the unrolled scalar side to original probs.

    The scalar lowerer numbers IfBlocks in encounter order; each copy
    of an unpacked statement replays that statement's original guard
    range, so the expanded index sequence is reconstructible here.
    """
    expanded: dict[int, float] = {}
    orig_start = 0
    seq = 0
    for idx, stmt in enumerate(kernel.body):
        gc = _count_guards(stmt)
        if idx not in packed:
            for _u in range(factor):
                for j in range(gc):
                    expanded[seq] = original.get(
                        orig_start + j, DEFAULT_GUARD_PROB
                    )
                    seq += 1
        orig_start += gc
    return expanded


def lower_slp(
    plan: VectorizationPlan,
    target: Target,
    guard_probs: Optional[dict[int, float]] = None,
) -> MStream:
    """Lower an SLP plan.

    ``guard_probs`` maps the n-th IfBlock of ``plan.kernel`` to its
    taken probability, as for :func:`~.scalar_gen.lower_scalar` (and
    unmeasured guards assume 50% the same way); it weights the unpacked
    scalar copies, so pass the probabilities the scalar baseline used.

    The target is read through a :class:`TargetView`, as in
    :func:`~.vector_gen.lower_vector`.
    """
    kernel = plan.kernel
    factor = plan.vf
    builder = StreamBuilder(f"{kernel.name}.slp.f{factor}")

    with TargetView(target) as view:
        vec = VectorLowerer(plan, view, builder)
        # The scalar side shares the builder so ids stay globally unique,
        # but keeps its own CSE/producer state (packed and scalar copies do
        # not forward values to each other in this model).
        scal = ScalarLowerer(
            kernel,
            view,
            builder,
            guard_probs=_expanded_guard_probs(
                kernel, plan.packed_stmts, factor, guard_probs or {}
            ),
        )
        inner = kernel.inner_level

        for idx, stmt in enumerate(kernel.body):
            if idx in plan.packed_stmts:
                vec.lower_stmt(stmt)
            else:
                for u in range(factor):
                    scal.lower_stmt(_rewrite_stmt(stmt, inner, factor, u, lambda n: n))
        vec.resolve_carried_scalars()
        scal.resolve_carried_scalars()
        vec.attach_memory_recurrences()
        scal.attach_memory_recurrences()
        vec.finish_reductions()

    stream = builder.stream
    stream.target_answers = view.answers
    inner_iters = kernel.inner.trip // factor
    outer = kernel.total_iterations // kernel.inner.trip
    stream.iters = inner_iters * outer
    stream.elems_per_iter = factor
    stream.remainder = (kernel.inner.trip % factor) * outer
    stream.working_set_bytes = kernel.working_set_bytes()
    return stream
