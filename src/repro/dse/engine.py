"""The memoized, fault-tolerant search engine.

``search_kernel`` is the one entry point the experiment, the advisor,
and the benchmarks call.  It layers two things over the raw drivers:

* **Memoization** in :data:`SEARCHES`, keyed by (kernel fingerprint,
  model fingerprint, target, driver, seed, budget).  The model
  fingerprint hashes the fitted weights — bumping a registry model
  version (or refitting on new data) changes the weights and
  invalidates every dependent search.
* **Chaos hardening**: injected faults (``REPRO_FAULTS``) land at the
  ``dse:<kernel>`` site inside a bounded retry loop.  The fault plan's
  decisions are sha256-seeded per (site, attempt), so retries drain the
  schedule deterministically and a faulted search converges to the
  bit-identical result of an unfaulted one — the property the chaos
  gate in ``benchmarks/smoke_dse.py`` asserts.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from ..ir.kernel import LoopKernel
from ..memo import Memo
from ..pipeline import faultinject
from ..pipeline.faultinject import FaultPlan, InjectedFault
from ..pipeline.fingerprint import kernel_fingerprint
from ..settings import current
from ..targets.base import Target
from ..vectorize.plan import enumerate_plan_points
from . import oracle, points as points_mod, search

#: Attempts a chaos-injected search may burn before the fault is
#: considered permanent (matches the sweep supervisor's default).
MAX_ATTEMPTS = 5

#: Search results, one per (kernel, model, target, driver, seed, budget).
SEARCHES = Memo()

#: The search memo's counters (``enabled``/``entries``/``hits``/``misses``).
dse_cache_info = SEARCHES.info


def model_fingerprint(model) -> str:
    """Digest of what decides a model's predictions: name + weights.

    Works for fitted :class:`~repro.costmodel.speedup.SpeedupModel`
    instances and registry entries alike — both expose ``weights``.
    An unfitted model hashes to a distinct "unfitted" cell so it can
    never alias a fitted one.
    """
    h = hashlib.sha256()
    name = getattr(model, "name", None) or getattr(model, "version", None)
    h.update(str(name or type(model).__name__).encode())
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
) -> search.SearchResult:
    """One search: score first, then measure only what the driver reads.

    Scoring and measurement share one :class:`~repro.dse.points.PlanSpace`,
    so each recipe is vectorized once and lowered at most once per
    target.
    """
    points = enumerate_plan_points(kernel, target, manager=manager)
    space = points_mod.PlanSpace(kernel, target)

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
) -> search.SearchResult:
    """Search one kernel's plan space, memoized and chaos-hardened."""
    if driver not in search.DRIVERS:
        raise ValueError(
            f"unknown driver {driver!r}; expected one of {', '.join(search.DRIVERS)}"
        )
    plan = faults if faults is not None else current().fault_plan
    key = (
        "dse",
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
                    kernel, target, model, driver, seed, budget, manager
                )
            except InjectedFault as exc:
                last = exc
        raise last  # the schedule never drained: surface the fault

    return SEARCHES.get(key, compute)
