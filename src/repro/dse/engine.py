"""The memoized, fault-tolerant search engine.

``search_kernel`` is the one entry point the experiment, the advisor,
and the benchmarks call.  It layers two things over the raw drivers:

* **Memoization** in :data:`SEARCHES`, keyed by (kernel fingerprint,
  model fingerprint, target, driver, seed, budget).  The model
  fingerprint hashes the model's identity and fitted weights — bumping
  a registry model version (or refitting on new data) changes the
  weights, and clipping or featurizing differently changes the
  identity, so either invalidates every dependent search.  The memo is
  a :class:`~repro.memo.StoredMemo`: a later process on the same cache
  dir reads each search back from ``<cache_dir>/searches`` instead of
  running it again.
* **Chaos hardening**: injected faults (``REPRO_FAULTS``) land at the
  ``dse:<kernel>`` site inside a bounded retry loop.  The fault plan's
  decisions are sha256-seeded per (site, attempt), so retries drain the
  schedule deterministically and a faulted search converges to the
  bit-identical result of an unfaulted one — the property the chaos
  gate in ``benchmarks/smoke_dse.py`` asserts.  A search under an
  active fault plan neither reads nor writes the stored tier, so the
  faults are injected, not replayed past.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from ..costmodel.base import model_identity
from ..ir.kernel import LoopKernel
from ..memo import StoredMemo
from ..pipeline import faultinject
from ..pipeline.faultinject import FaultPlan, InjectedFault
from ..pipeline.fingerprint import kernel_fingerprint
from ..settings import current
from ..sim.measure import PlanSpace
from ..targets.base import Target
from ..vectorize.plan import enumerate_plan_points
from . import oracle, points as points_mod, search

#: Attempts a chaos-injected search may burn before the fault is
#: considered permanent (matches the sweep supervisor's default).
MAX_ATTEMPTS = 5

#: Bump when the layout of a stored :class:`~repro.dse.search.SearchResult` changes.
SEARCH_SCHEMA = 1


def _search_split(key: tuple) -> tuple:
    """A search key's group (model, target, driver, seed and budget) and
    item (the kernel fingerprint)."""
    return key[1:], key[0]


#: Search results, one per (kernel, model, target, driver, seed, budget),
#: stored at ``<cache_dir>/searches`` in batches of one group's values.
SEARCHES = StoredMemo("searches", schema=SEARCH_SCHEMA, split=_search_split)

#: The search memo's counters (``enabled``/``entries``/``hits``/``misses``).
dse_cache_info = SEARCHES.info


def model_fingerprint(model) -> str:
    """Digest of what decides a model's predictions: its identity
    (:func:`~repro.costmodel.base.model_identity`) and its weights.

    Works for fitted :class:`~repro.costmodel.speedup.SpeedupModel`
    instances and registry entries alike — both expose ``weights``.
    An unfitted model hashes to a distinct "unfitted" cell so it can
    never alias a fitted one.
    """
    h = hashlib.sha256(repr(model_identity(model)).encode())
    try:
        w = getattr(model, "weights", None)
    except Exception:
        w = None
    if w is None:
        h.update(b"|unfitted")
    else:
        h.update(b"|")
        h.update(np.ascontiguousarray(np.asarray(w, dtype=np.float64)).tobytes())
    return h.hexdigest()[:16]


def _search_once(
    kernel: LoopKernel,
    target: Target,
    model,
    driver: str,
    seed: int,
    budget: int,
    manager,
    space: Optional[PlanSpace],
) -> search.SearchResult:
    """One search: score first, then measure only what the driver reads.

    Scoring and measurement share one :class:`~repro.sim.measure.PlanSpace`
    (the caller's, else a new one), so each recipe is vectorized once
    and lowered at most once per target.
    """
    points = enumerate_plan_points(kernel, target, manager=manager)
    if space is None:
        space = PlanSpace(kernel, target)

    def measure(indices: list[int]) -> list[float]:
        measured = points_mod.measure_points(
            kernel, target, [points[i] for i in indices], space=space
        )
        return [m.speedup if m.ok else 0.0 for m in measured]

    if driver == "bandit":
        return search.bandit(
            kernel.name, target.name, points, lambda i: measure([i])[0],
            seed=seed, budget=budget,
        )
    scores = oracle.score_points(kernel, target, points, model, space=space)
    if driver == "verified":
        return search.verified(
            kernel.name, target.name, points, scores, measure, seed=seed
        )
    if driver == "hill_climb":
        return search.hill_climb(
            kernel.name, target.name, points, scores, seed=seed
        )
    if driver == "exhaustive":
        return search.exhaustive(
            kernel.name, target.name, points, scores, seed=seed
        )
    raise ValueError(
        f"unknown driver {driver!r}; expected one of {', '.join(search.DRIVERS)}"
    )


def search_kernel(
    kernel: LoopKernel,
    target: Target,
    model,
    *,
    driver: str = "exhaustive",
    seed: int = 0,
    budget: int = 0,
    manager=None,
    faults: Optional[FaultPlan] = None,
    space: Optional[PlanSpace] = None,
) -> search.SearchResult:
    """Search one kernel's plan space, memoized and chaos-hardened.

    ``space`` is a :class:`~repro.sim.measure.PlanSpace` of ``kernel``
    on ``target`` (guard seed 0) to build the plans in, so that several
    searches of one kernel, and whoever measures its points next, share
    each recipe's plan and streams.  It changes no result, so it is not
    part of the memo key.
    """
    if driver not in search.DRIVERS:
        raise ValueError(
            f"unknown driver {driver!r}; expected one of {', '.join(search.DRIVERS)}"
        )
    plan = faults if faults is not None else current().fault_plan
    key = (
        kernel_fingerprint(kernel),
        model_fingerprint(model),
        target.name,
        driver,
        int(seed),
        int(budget),
    )

    def compute() -> search.SearchResult:
        last: Optional[InjectedFault] = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                faultinject.perturb(plan, f"dse:{kernel.name}", attempt)
                return _search_once(
                    kernel, target, model, driver, seed, budget, manager, space
                )
            except InjectedFault as exc:
                last = exc
        raise last  # the schedule never drained: surface the fault

    # A stored result would skip the faults the plan must inject.
    return SEARCHES.get(key, compute, stored=plan is None or not plan.active)
