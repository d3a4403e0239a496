"""Search drivers over a scored (or measurable) candidate set.

Three drivers, one contract: given the candidate points, return a
:class:`SearchResult` naming the chosen point, its score, and how many
evaluations the driver spent.  All three are deterministic — the
exhaustive and hill-climbing drivers have no randomness at all, and
the bandit derives every draw from its seed.

* ``exhaustive`` — strict argmax over the batched oracle scores; the
  space per kernel is small (tens of points), so this is the
  model-guided reference driver.
* ``hill_climb`` — greedy single-axis moves from the natural-VF
  default; evaluates only the frontier it visits, the classic DSE
  mapper shape (cf. ZigZag's mapping search).
* ``bandit`` — epsilon-greedy over *measured* rewards under a pull
  budget: the NeuroVectorizer-style learned-search contrast that pays
  measurements instead of model calls; only the arms it pulls are
  measured.
* ``verified`` — the deployment policy: the model prunes the space to
  a shortlist (default + top-K predicted), measurement decides among
  them; only the shortlist is measured.  The default is always
  shortlisted, so this arm can never do worse than today's natural-VF
  plan — the cost-model-prunes, measurement-verifies loop MATCH drives
  ZigZag's mapper with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..vectorize.plan import PlanPoint
from .oracle import default_index, pick_best

DRIVERS = ("exhaustive", "hill_climb", "bandit", "verified")

#: Shortlist size of the ``verified`` driver (default + top-K scored).
VERIFY_SHORTLIST = 3

#: Default bandit pulls per candidate (budget = factor × |points|).
BANDIT_BUDGET_FACTOR = 2
#: Exploration rate of the epsilon-greedy bandit.
BANDIT_EPSILON = 0.2


@dataclass(frozen=True)
class SearchResult:
    """One driver's verdict on one kernel's plan space."""

    kernel: str
    target: str
    driver: str
    seed: int
    best_index: int
    best: PlanPoint
    predicted: float
    points: tuple[PlanPoint, ...]
    scores: tuple[float, ...]
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "target": self.target,
            "driver": self.driver,
            "seed": self.seed,
            "best": self.best.to_dict(),
            "predicted": round(self.predicted, 9),
            "n_points": len(self.points),
            "evaluations": self.evaluations,
            "scores": [round(float(s), 9) for s in self.scores],
        }


def _result(
    kernel_name: str,
    target_name: str,
    driver: str,
    seed: int,
    points: Sequence[PlanPoint],
    scores: Sequence[float],
    best: int,
    evaluations: int,
) -> SearchResult:
    return SearchResult(
        kernel=kernel_name,
        target=target_name,
        driver=driver,
        seed=seed,
        best_index=best,
        best=points[best],
        predicted=float(scores[best]),
        points=tuple(points),
        scores=tuple(float(s) for s in scores),
        evaluations=evaluations,
    )


def exhaustive(
    kernel_name: str,
    target_name: str,
    points: Sequence[PlanPoint],
    scores: Sequence[float],
    *,
    seed: int = 0,
) -> SearchResult:
    best, _, _ = pick_best(points, scores)
    return _result(
        kernel_name, target_name, "exhaustive", seed, points, scores,
        best, len(points),
    )


def _neighbors(points: Sequence[PlanPoint], i: int) -> list[int]:
    """Indices differing from ``points[i]`` in exactly one coordinate.

    The scalar point is everyone's neighbor (turning vectorization off
    is always a one-step move), so the climb can retreat to scalar
    when every vector candidate scores below 1.0.
    """
    p = points[i]
    out = []
    for j, q in enumerate(points):
        if j == i:
            continue
        if q.is_scalar or p.is_scalar:
            out.append(j)
            continue
        diffs = sum(
            1
            for a, b in (
                (p.vf, q.vf),
                (p.interleave, q.interleave),
                (p.unroll, q.unroll),
                (p.strategy, q.strategy),
            )
            if a != b
        )
        if diffs == 1:
            out.append(j)
    return out


def hill_climb(
    kernel_name: str,
    target_name: str,
    points: Sequence[PlanPoint],
    scores: Sequence[float],
    *,
    seed: int = 0,
) -> SearchResult:
    """Greedy ascent from the default; strict improvement only."""
    current = default_index(points)
    evaluated = {current}
    while True:
        frontier = _neighbors(points, current)
        evaluated.update(frontier)
        best_next = current
        for j in frontier:
            if scores[j] > scores[best_next]:
                best_next = j
        if best_next == current:
            break
        current = best_next
    return _result(
        kernel_name, target_name, "hill_climb", seed, points, scores,
        current, len(evaluated),
    )


def verified(
    kernel_name: str,
    target_name: str,
    points: Sequence[PlanPoint],
    scores: Sequence[float],
    measure: Callable[[list[int]], Sequence[float]],
    *,
    seed: int = 0,
    shortlist: int = VERIFY_SHORTLIST,
) -> SearchResult:
    """Model-pruned shortlist, measured verdict.

    The batched scores rank the space; the default plus the ``shortlist``
    highest-scored other points are measured in one ``measure(indices)``
    call, which returns their rewards in order, and the best measured
    one wins (ties anchor to the default).  Only the shortlist is
    measured.  Keeping the default in the shortlist makes this arm ≥
    the default by construction — the model can only help, never hurt.
    """
    anchor = default_index(points)
    ranked = sorted(
        (i for i in range(len(points)) if i != anchor),
        key=lambda i: (-scores[i], i),
    )
    candidates = [anchor] + ranked[: max(shortlist, 0)]
    rewards = {
        i: float(r) for i, r in zip(candidates, measure(candidates))
    }
    best = anchor
    for i in candidates:
        if rewards[i] > rewards[best]:
            best = i
    measured_scores = [
        rewards[i] if i in rewards else 0.0 for i in range(len(points))
    ]
    return _result(
        kernel_name, target_name, "verified", seed, points, measured_scores,
        best, len(candidates),
    )


def bandit(
    kernel_name: str,
    target_name: str,
    points: Sequence[PlanPoint],
    reward_fn: Callable[[int], float],
    *,
    seed: int = 0,
    budget: int = 0,
    epsilon: float = BANDIT_EPSILON,
) -> SearchResult:
    """Epsilon-greedy search over measured rewards.

    ``reward_fn(i)`` is the measured speedup of ``points[i]`` — the
    driver that *pays* for what it learns, bounded by ``budget`` pulls
    (default ``BANDIT_BUDGET_FACTOR × |points|``).  Rewards here are
    deterministic, so each arm is measured the first time it is pulled
    and repeat pulls replay the memo; the seed decides which arms ever
    get measured.  Unpulled arms score 0, except the default, which is
    seeded with the conservative estimate 1.0 so an unlucky draw
    sequence can never leave the bandit worse-informed than "keep
    today's plan".
    """
    n = len(points)
    if n == 0:
        raise ValueError("empty candidate set")
    rng = np.random.default_rng(seed)
    budget = budget if budget > 0 else BANDIT_BUDGET_FACTOR * n
    estimates = np.zeros(n, dtype=np.float64)
    pulled = np.zeros(n, dtype=bool)
    anchor = default_index(points)
    estimates[anchor] = 1.0
    rewards: dict[int, float] = {}
    measured = 0
    for _ in range(budget):
        if rng.random() < epsilon:
            arm = int(rng.integers(n))
        else:
            arm = anchor
            for i in range(n):
                if estimates[i] > estimates[arm]:
                    arm = i
        if arm not in rewards:
            rewards[arm] = float(reward_fn(arm))
            measured += 1
        estimates[arm] = rewards[arm]
        pulled[arm] = True
    best = anchor
    for i in range(n):
        if pulled[i] and estimates[i] > estimates[best]:
            best = i
    return _result(
        kernel_name, target_name, "bandit", seed, points, estimates,
        best, measured,
    )
