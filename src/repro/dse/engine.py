"""The memoized, fault-tolerant search engine.

``search_kernel`` is the one entry point the experiment, the advisor,
and the benchmarks call.  It layers two things over the raw drivers:

* **Memoization**, mirroring the experiment scheduler's engine memo:
  keys are (kernel fingerprint, model fingerprint, target, driver,
  seed, budget), with per-key locks so concurrent searchers of the
  same cell share one computation.  The model fingerprint hashes the
  fitted weights — bumping a registry model version (or refitting on
  new data) changes the weights and invalidates every dependent search.
  ``REPRO_DSE_CACHE=0`` disables the memo.
* **Chaos hardening**: injected faults (``REPRO_FAULTS``) land at the
  ``dse:<kernel>`` site inside a bounded retry loop.  The fault plan's
  decisions are sha256-seeded per (site, attempt), so retries drain the
  schedule deterministically and a faulted search converges to the
  bit-identical result of an unfaulted one — the property the chaos
  gate in ``benchmarks/smoke_dse.py`` asserts.
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from ..ir.kernel import LoopKernel
from ..pipeline import faultinject
from ..pipeline.faultinject import FaultPlan, InjectedFault
from ..pipeline.fingerprint import kernel_fingerprint
from ..targets.base import Target
from ..vectorize.plan import enumerate_plan_points
from . import oracle, points as points_mod, search

#: Attempts a chaos-injected search may burn before the fault is
#: considered permanent (matches the sweep supervisor's default).
MAX_ATTEMPTS = 5

_DSE_ENABLED = os.environ.get("REPRO_DSE_CACHE", "1") != "0"
_DSE_LOCK = threading.Lock()
_DSE_MEMO: dict[tuple, search.SearchResult] = {}
_DSE_KEY_LOCKS: dict[tuple, threading.Lock] = {}
_DSE_HITS = 0
_DSE_MISSES = 0


def clear_dse_cache() -> None:
    """Drop every memoized search (the cold-path benchmark reset)."""
    global _DSE_HITS, _DSE_MISSES
    with _DSE_LOCK:
        _DSE_MEMO.clear()
        _DSE_KEY_LOCKS.clear()
        _DSE_HITS = 0
        _DSE_MISSES = 0


def dse_cache_info() -> dict:
    with _DSE_LOCK:
        return {
            "enabled": _DSE_ENABLED,
            "entries": len(_DSE_MEMO),
            "hits": _DSE_HITS,
            "misses": _DSE_MISSES,
        }


@contextmanager
def dse_cache_disabled() -> Iterator[None]:
    """Every search recomputes (the benchmarks' cold-path emulation)."""
    global _DSE_ENABLED
    prior = _DSE_ENABLED
    _DSE_ENABLED = False
    try:
        yield
    finally:
        _DSE_ENABLED = prior


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


def _memo(key: tuple, compute):
    global _DSE_HITS, _DSE_MISSES
    if not _DSE_ENABLED:
        return compute()
    with _DSE_LOCK:
        if key in _DSE_MEMO:
            _DSE_HITS += 1
            return _DSE_MEMO[key]
        key_lock = _DSE_KEY_LOCKS.setdefault(key, threading.Lock())
    with key_lock:
        with _DSE_LOCK:
            if key in _DSE_MEMO:
                _DSE_HITS += 1
                return _DSE_MEMO[key]
        value = compute()
        with _DSE_LOCK:
            _DSE_MISSES += 1
            _DSE_MEMO[key] = value
    return value


def _search_once(
    kernel: LoopKernel,
    target: Target,
    model,
    driver: str,
    seed: int,
    budget: int,
    manager,
) -> search.SearchResult:
    points = enumerate_plan_points(kernel, target, manager=manager)
    if driver in ("bandit", "verified"):
        measurements = points_mod.measure_points(kernel, target, points)

        def reward(i: int) -> float:
            m = measurements[i]
            return m.speedup if m.ok else 0.0

        if driver == "bandit":
            return search.bandit(
                kernel.name, target.name, points, reward,
                seed=seed, budget=budget,
            )
        scores = oracle.score_points(kernel, target, points, model)
        return search.verified(
            kernel.name, target.name, points, scores, reward, seed=seed
        )
    scores = oracle.score_points(kernel, target, points, model)
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
    plan = faults if faults is not None else faultinject.plan_from_env()
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

    return _memo(key, compute)
