"""Model-guided design-space exploration over vectorization plans.

The package turns the fitted speedup models into a *cost oracle* for a
search over the whole optimization-plan space — VF × interleave ×
unroll × strategy per kernel (see DESIGN.md §15):

* :mod:`.points` materializes and measures plan points
  (:class:`~repro.vectorize.plan.PlanPoint`) through the analytic
  pipeline (unroll → vectorize → lower → interleave → time), each
  recipe built once per search in a :class:`~.points.PlanSpace`;
* :mod:`.oracle` scores an entire candidate set in one batched
  featurize+predict through the shared matrix cache;
* :mod:`.search` holds the drivers — exhaustive, greedy hill-climbing,
  and an epsilon-greedy bandit over measured rewards — all
  deterministic under a seed;
* :mod:`.engine` scores first and measures only the points a driver
  reads, and memoizes searches on (kernel fingerprint, model
  fingerprint, target, driver, seed) with a chaos-hardened retry loop;
* :mod:`.experiment` is E14, the regret study (model-picked plan vs
  oracle-best vs the natural-VF default).
"""

from .engine import SEARCHES, dse_cache_info, model_fingerprint, search_kernel
from .oracle import candidate_samples, pick_best, score_points
from .points import PointMeasurement, materialize_point, measure_points
from .search import SearchResult

__all__ = [
    "PointMeasurement",
    "SEARCHES",
    "SearchResult",
    "candidate_samples",
    "dse_cache_info",
    "materialize_point",
    "measure_points",
    "model_fingerprint",
    "pick_best",
    "score_points",
    "search_kernel",
]
