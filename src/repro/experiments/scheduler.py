"""Suite scheduler: one fast invocation for E1–E12.

``run_suite`` is what ``python -m repro.experiments all`` executes:

1. **Pre-build phase** — every unique :class:`DatasetSpec` the selected
   experiments need is built exactly once, up front (the dataset memo
   makes the build shared).
2. **Driver phase** — the drivers run one after another.  They are
   measurement-free after the pre-build (pure linear algebra over the
   shared matrix bundles plus the engine memo).

Per-experiment wall time is recorded on each result (``wall_s``) and in
the returned :class:`SuiteRun`.

``seed_mode`` recreates the pre-engine behavior (no matrix bundles, no
engine memo, cold SVR folds) so the benchmarks can measure the engine
against the path it replaced.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..costmodel.matrix import BUNDLES
from ..settings import current, use
from ..validation.loocv import svr_warm_disabled
from .base import ENGINE, ExperimentResult
from .dataset import ARM_LLV, X86_SLP, DatasetSpec, build_dataset
from .registry import EXPERIMENTS, EXPLICIT_ONLY

#: Datasets each driver needs, used by the pre-build phase.  E7
#: measures two extra kernel variants on top of the ARM dataset; E12
#: consumes both targets.
SPEC_REQUIREMENTS: dict[str, tuple[DatasetSpec, ...]] = {
    "E1": (ARM_LLV,),
    "E2": (ARM_LLV,),
    "E3": (ARM_LLV,),
    "E4": (ARM_LLV,),
    "E5": (ARM_LLV,),
    "E6": (ARM_LLV,),
    "E7": (ARM_LLV,),
    "E8": (ARM_LLV,),
    "E9": (X86_SLP,),
    "E10": (X86_SLP,),
    "E11": (X86_SLP,),
    "E12": (ARM_LLV, X86_SLP),
    # E13 sweeps its own generated corpora through measure_corpus; it
    # deliberately bypasses the suite dataset memo, so nothing to
    # pre-build here.
    "E13": (),
    # E14 fits its cost oracle on the ARM dataset before searching.
    "E14": (ARM_LLV,),
}


@dataclass
class SuiteRun:
    """One ``run_suite`` invocation: ordered results plus timings."""

    results: list[ExperimentResult]
    build_s: float
    drivers_s: float
    total_s: float
    wall_by_id: dict[str, float] = field(default_factory=dict)

    def tables_text(self) -> list[str]:
        """The rendered report tables (no scatters) — the strings the
        seed/engine bit-identity gate compares."""
        return [r.to_text(include_scatter=False) for r in self.results]


def normalize_ids(ids: Optional[Sequence[str]] = None) -> list[str]:
    """Validate and order experiment ids (registry order, deduped).

    ``all`` (and the empty default) excludes explicit-only experiments
    — E13's corpus sweep runs only when named, so the E1–E12 bench and
    parity gates keep their workload.
    """
    if not ids or any(i.lower() == "all" for i in ids):
        return [eid for eid in EXPERIMENTS if eid not in EXPLICIT_ONLY]
    wanted = []
    for i in ids:
        key = i.upper()
        if key not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {i!r}; known: {', '.join(EXPERIMENTS)}"
            )
        if key not in wanted:
            wanted.append(key)
    return [eid for eid in EXPERIMENTS if eid in wanted]


def required_specs(ids: Sequence[str]) -> list[DatasetSpec]:
    """Unique dataset specs the given experiments consume, in order."""
    specs: list[DatasetSpec] = []
    for eid in ids:
        for spec in SPEC_REQUIREMENTS.get(eid, ()):
            if spec not in specs:
                specs.append(spec)
    return specs


def run_suite(ids: Optional[Sequence[str]] = None) -> SuiteRun:
    """Run the selected experiments through the engine (see module doc)."""
    ids = normalize_ids(ids)
    t_start = time.perf_counter()
    for spec in required_specs(ids):
        build_dataset(spec)
    build_s = time.perf_counter() - t_start

    t_drivers = time.perf_counter()
    results = []
    for eid in ids:
        t0 = time.perf_counter()
        result = EXPERIMENTS[eid][1]()
        result.wall_s = time.perf_counter() - t0
        results.append(result)
    now = time.perf_counter()
    return SuiteRun(
        results=results,
        build_s=build_s,
        drivers_s=now - t_drivers,
        total_s=now - t_start,
        wall_by_id={r.id: r.wall_s for r in results},
    )


@contextmanager
def seed_mode() -> Iterator[None]:
    """Disable every engine layer at once: per-call feature stacking,
    per-driver refits (the engine memo's on-disk tier included), cold
    SVR folds.  The benchmarks run the suite under this to measure the
    seed path the engine replaced."""
    with BUNDLES.disabled(), ENGINE.disabled(), svr_warm_disabled():
        yield


def bench_suite(ids: Optional[Sequence[str]] = None) -> dict:
    """Three timed suite passes + the parity check; the payload of
    ``BENCH_experiments.json``.

    * ``seed``: drivers under :func:`seed_mode` — the per-driver path
      the engine replaced (measurement cache warm in all passes, so
      the comparison isolates the fitting-side engine).
    * ``engine_cold``: fresh fitting-side caches, the engine memo's
      on-disk tier off (the ``cache`` setting), so this pass fits.
    * ``engine_warm``: same invocation again, everything memoized.
    """
    from .base import loocv_cached

    ids = normalize_ids(ids)
    for spec in required_specs(ids):
        build_dataset(spec)

    with seed_mode():
        seed_run = run_suite(ids)
    BUNDLES.clear()
    ENGINE.clear()
    settings = current()
    # The datasets are built, so only the engine's tier reads this.
    use(settings.replace(cache=False))
    try:
        cold_run = run_suite(ids)
        warm_run = run_suite(ids)
    finally:
        use(settings)

    # E12's LOOCV is objective-level equivalent (not bitwise) between
    # warm and cold folds, so seed-vs-engine table identity is only
    # claimed for the paper experiments.
    paper = [i for i, eid in enumerate(ids) if eid != "E12"]
    seed_tables = seed_run.tables_text()
    cold_tables = cold_run.tables_text()
    seed_parity = all(seed_tables[i] == cold_tables[i] for i in paper)

    svr_warm = {}
    if "E12" in ids:
        from .drivers import _rated_svr_factory

        for spec in (ARM_LLV, X86_SLP):
            ds = build_dataset(spec)
            st: dict = {}
            loocv_cached(_rated_svr_factory, ds.samples, stats=st)
            warm = st.get("svr_warm")
            if warm is not None:
                svr_warm[spec.label] = {
                    "folds": warm.folds,
                    "accepted": warm.accepted,
                    "acceptance": round(warm.acceptance, 4),
                }

    def _times(run: SuiteRun) -> dict:
        return {
            "total_s": round(run.total_s, 4),
            "drivers_s": round(run.drivers_s, 4),
            "wall_by_id": {k: round(v, 4) for k, v in run.wall_by_id.items()},
        }

    return {
        "ids": ids,
        "cpu_count": os.cpu_count(),
        "seed": _times(seed_run),
        "engine_cold": _times(cold_run),
        "engine_warm": _times(warm_run),
        "speedup_vs_seed": round(seed_run.total_s / max(cold_run.total_s, 1e-9), 2),
        "warm_speedup_vs_seed": round(
            seed_run.total_s / max(warm_run.total_s, 1e-9), 2
        ),
        "seed_engine_tables_identical_e1_e11": seed_parity,
        "svr_warm": svr_warm,
    }
