"""Batched cost-oracle scoring of a candidate set.

One kernel's plan points differ only in their vector block — the
scalar baseline features are shared — so the oracle builds one
*pseudo-sample* per vector point (scalar features shared, vector
features from the point's ``GENERIC_IR`` lowering, exactly where the
training samples' features come from) and scores the whole set in a
single batched predict through the shared matrix cache
(:mod:`repro.costmodel.matrix`).  No per-point model calls: the model
sees one design matrix per candidate set, and repeated scoring of the
same set hits the bundle cache.

Scalar points are pinned to exactly 1.0 outside the batch (their
speedup is 1.0 by definition, not a prediction); points that fail to
materialize score 0.0 so they can never win.  The scalar lowering and
each recipe's ``GENERIC_IR`` stream come from the search's
:class:`~repro.dse.points.PlanSpace`, which measurement reads too.  An
interleaved point's features are its base stream's class counts summed
over ``ic`` copies (:meth:`~repro.dse.points.PlanSpace.counts`): the
oracle never builds an interleaved stream.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..costmodel.base import Sample
from ..costmodel.featurize import counts_vector, feature_vector
from ..ir.kernel import LoopKernel
from ..targets.base import Target
from ..targets.generic_ir import GENERIC_IR
from ..vectorize.plan import PlanPoint, is_plan
from .points import PlanSpace


def candidate_samples(
    kernel: LoopKernel,
    target: Target,
    points: Sequence[PlanPoint],
    *,
    guard_probs: Optional[dict] = None,
    seed: int = 0,
    space: Optional[PlanSpace] = None,
) -> tuple[list[Sample], list[int]]:
    """Pseudo-samples for the vector points of a candidate set.

    Returns ``(samples, indices)`` where ``indices[i]`` is the position
    in ``points`` that ``samples[i]`` scores; scalar points and points
    that do not materialize are absent.  ``space`` is the search's
    plan space for this kernel and target; without one a private
    space is built from ``guard_probs`` and ``seed``.
    """
    if space is None:
        space = PlanSpace(kernel, target, guard_probs=guard_probs, seed=seed)
    scalar_features = feature_vector(space.scalar_stream)
    samples: list[Sample] = []
    indices: list[int] = []
    for i, point in enumerate(points):
        if point.is_scalar:
            continue
        if not is_plan(space.plan(point)):
            continue
        try:
            ir_counts = space.counts(point, GENERIC_IR)
        except ValueError:
            continue
        # Normalize the block mix *per original element*: an
        # interleaved/unrolled block retires ic·u× the elements of the
        # natural block per iteration, so its raw per-iteration counts
        # are inflated by the same factor.  The training distribution
        # only contains natural (ic=1, u=1) blocks; feeding inflated
        # counts to a nonnegative-weight count model makes every wide
        # point predict the VF clip.  After normalization the count
        # featurization is honestly ILP-blind — interleave variants
        # score like their base point (plus their real amortized
        # prologue/epilogue overhead) and the model deviates on
        # vf/strategy signal, not on count inflation.
        scale = 1.0 / (point.interleave * point.unroll)
        samples.append(
            Sample(
                name=f"{kernel.name}::{point.label()}",
                category=kernel.category,
                target=target.name,
                vf=point.vf,
                scalar_features=scalar_features,
                vector_features=counts_vector(ir_counts) * scale,
                measured_speedup=0.0,
                measured_scalar_cpi=0.0,
                measured_vector_cpi=0.0,
            )
        )
        indices.append(i)
    return samples, indices


def score_points(
    kernel: LoopKernel,
    target: Target,
    points: Sequence[PlanPoint],
    model,
    *,
    guard_probs: Optional[dict] = None,
    seed: int = 0,
    space: Optional[PlanSpace] = None,
) -> np.ndarray:
    """Model-predicted speedup per point, one batched predict.

    ``model`` is anything with ``predict_batch`` (the fitted speedup
    family); scalar points read exactly 1.0, unmaterializable points
    0.0.  ``space`` as in :func:`candidate_samples`.
    """
    scores = np.zeros(len(points), dtype=np.float64)
    for i, p in enumerate(points):
        if p.is_scalar:
            scores[i] = 1.0
    samples, indices = candidate_samples(
        kernel, target, points, guard_probs=guard_probs, seed=seed,
        space=space,
    )
    if samples:
        preds = np.asarray(model.predict_batch(samples), dtype=np.float64)
        scores[indices] = preds
    return scores


def score_points_entry(
    kernel: LoopKernel,
    target: Target,
    points: Sequence[PlanPoint],
    entry,
    *,
    guard_probs: Optional[dict] = None,
) -> np.ndarray:
    """Like :func:`score_points` but through a registry
    :class:`~repro.serve.registry.ModelEntry`: the entry names its
    featurization, the design matrix comes from the shared cache, and
    the entry's stored weights predict."""
    from ..costmodel import matrix

    scores = np.zeros(len(points), dtype=np.float64)
    for i, p in enumerate(points):
        if p.is_scalar:
            scores[i] = 1.0
    samples, indices = candidate_samples(
        kernel, target, points, guard_probs=guard_probs
    )
    if samples:
        feature_fn = matrix.featurizer_by_key(entry.featurization)
        X = matrix.design_matrix(samples, feature_fn)
        preds = entry.predict(X, [float(s.vf) for s in samples])
        scores[indices] = np.asarray(preds, dtype=np.float64)
    return scores


def default_index(points: Sequence[PlanPoint]) -> int:
    """Where the natural-VF default sits: the first vector point when
    one exists (enumeration moves it to the front), else the scalar
    point."""
    for i, p in enumerate(points):
        if not p.is_scalar:
            return i
    return 0


#: Relative predicted improvement required to leave the default plan.
#: Normalized interleave/unroll variants differ from their base point
#: only by small amortized-overhead terms; without a margin those
#: epsilon differences would tip a strict argmax into arbitrary moves
#: the model has no real signal for.
DEVIATION_MARGIN = 0.02


def pick_best(
    points: Sequence[PlanPoint],
    scores: Sequence[float],
    *,
    margin: float = DEVIATION_MARGIN,
) -> tuple[int, PlanPoint, float]:
    """Margin-guarded argmax with the default as the anchor.

    The search starts *at* the natural-VF default and only deviates
    when some point's score beats the anchor's by more than ``margin``
    (relative); among qualifying points the highest score wins, ties
    to the earliest in enumeration order.  A model that cannot
    distinguish candidates keeps today's behavior instead of wandering
    on epsilon differences, and every driver stays deterministic.
    """
    if not points:
        raise ValueError("empty candidate set")
    anchor = default_index(points)
    bar = scores[anchor] * (1.0 + margin)
    best = anchor
    for i in range(len(points)):
        if scores[i] > bar and scores[i] > scores[best]:
            best = i
    return best, points[best], float(scores[best])
