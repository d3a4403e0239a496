"""Plan searches kept across processes (``<cache_dir>/searches``).

``SEARCHES`` is a :class:`~repro.memo.StoredMemo`: a search's group is
its model fingerprint, target, driver, seed and budget, its item the
kernel fingerprint.  A later process on the same cache dir reads each
search back instead of running it; a damaged batch is evicted and its
searches run again; one model's searches never read another model's
batches; ``--no-cache`` and an active fault plan keep a search off the
tier.  A dropped plan space leaves none of its unrolled kernels in the
default analysis manager.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.analysis.framework.passmanager import default_manager
from repro.costmodel.speedup import SpeedupModel
from repro.dse import SEARCHES, engine, points as points_mod, search_kernel
from repro.experiments import ENGINE
from repro.experiments.__main__ import main
from repro.fitting.nnls import NonNegativeLeastSquares
from repro.pipeline import faultinject
from repro.pipeline.faultinject import parse_faults
from repro.serve.chaos import suite_payloads
from repro.settings import current, use
from repro.store import Store
from repro.targets import ARMV8_NEON
from repro.tsvc import all_kernels
from repro.vectorize.plan import enumerate_plan_points

from tests.helpers import SEARCH_SCRIPT, SMALL

SRC = Path(__file__).resolve().parents[1] / "src"
SUITE = list(all_kernels(dims=SMALL))


@pytest.fixture(autouse=True)
def search_dir(tmp_path):
    """An empty search memo on a private cache dir; returns the tier's root."""
    use(current().replace(cache_dir=tmp_path))
    SEARCHES.clear()
    yield tmp_path / "searches"
    SEARCHES.clear()


@pytest.fixture(scope="module")
def model():
    return SpeedupModel(NonNegativeLeastSquares()).fit([s for _, _, s in suite_payloads(12)])


@pytest.fixture(scope="module")
def other_model():
    return SpeedupModel(NonNegativeLeastSquares()).fit([s for _, _, s in suite_payloads(8)])


@pytest.fixture
def computed(monkeypatch):
    """Names of the kernels whose search ran (``_search_once`` calls)."""
    names: list[str] = []
    real = engine._search_once

    def counted(kernel, *args):
        names.append(kernel.name)
        return real(kernel, *args)

    monkeypatch.setattr(engine, "_search_once", counted)
    return names


@pytest.fixture
def gets(monkeypatch):
    """Names of the store entries read, in order."""
    names: list[str] = []
    real = Store.get

    def counted(self, key, *args, **kwargs):
        names.append(key)
        return real(self, key, *args, **kwargs)

    monkeypatch.setattr(Store, "get", counted)
    return names


def _search(kernels, model, driver="verified"):
    return [search_kernel(k, ARMV8_NEON, model, driver=driver) for k in kernels]


def _files(root: Path) -> dict[str, int]:
    return {p.name: p.stat().st_mtime_ns for p in root.iterdir()} if root.exists() else {}


def test_a_second_process_reads_every_search_back(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path / "cache"))
    runs = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "-c", SEARCH_SCRIPT, "6"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    cold, warm = runs
    assert cold["computed"] == 6
    assert warm["computed"] == 0
    assert warm["results"] == cold["results"]


def test_reads_count_as_hits_and_computations_as_misses(model, computed):
    first = [r.to_dict() for r in _search(SUITE[:3], model)]
    assert SEARCHES.info()["misses"] == 3 and SEARCHES.info()["hits"] == 0
    SEARCHES.flush()
    SEARCHES.clear()
    assert [r.to_dict() for r in _search(SUITE[:3], model)] == first
    assert SEARCHES.info()["hits"] == 3 and SEARCHES.info()["misses"] == 0
    assert len(computed) == 3


def test_corrupt_batch_is_evicted_and_its_searches_recomputed(search_dir, model, computed):
    first = [r.to_dict() for r in _search(SUITE[:4], model)]
    SEARCHES.flush()
    (batch,) = search_dir.iterdir()
    data = bytearray(batch.read_bytes())
    data[-1] ^= 0x01
    batch.write_bytes(bytes(data))
    SEARCHES.clear()
    computed.clear()
    assert [r.to_dict() for r in _search(SUITE[:4], model)] == first
    assert computed == [k.name for k in SUITE[:4]]
    assert SEARCHES.store().stats.corrupt == 1
    assert not batch.exists()
    SEARCHES.flush()  # the recomputed searches are stored again, and verify
    SEARCHES.clear()
    computed.clear()
    assert [r.to_dict() for r in _search(SUITE[:4], model)] == first
    assert computed == []


def test_one_models_searches_read_no_batch_of_another_model(
    search_dir, model, other_model, gets
):
    _search(SUITE[:3], model)
    SEARCHES.flush()
    ours = set(_files(search_dir))
    _search(SUITE[:3], other_model)
    SEARCHES.flush()
    assert len(_files(search_dir)) == len(ours) + 1
    SEARCHES.clear()
    gets.clear()
    _search(SUITE[:3], model)
    assert sorted(gets) == sorted(ours)


def test_no_cache_neither_reads_nor_writes_the_search_store(
    search_dir, tmp_path, monkeypatch, computed, gets, capsys
):
    from repro.dse import experiment

    kernels = SUITE[:3]
    monkeypatch.setattr(experiment, "all_kernels", lambda: kernels)
    args = ["E14", "--no-scatter", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    SEARCHES.flush()
    filled = _files(search_dir)
    assert filled and len(computed) == 4 * len(kernels)
    SEARCHES.clear()
    ENGINE.clear()
    computed.clear()
    gets.clear()
    assert main([*args, "--no-cache"]) == 0
    assert len(computed) == 4 * len(kernels)  # nothing was read
    assert not [g for g in gets if g in filled]
    SEARCHES.flush()
    assert _files(search_dir) == filled  # nothing was written


@pytest.mark.parametrize("via", ["argument", "settings"])
def test_a_fault_plan_injects_over_a_filled_tier(
    search_dir, model, computed, monkeypatch, via
):
    kernel = SUITE[4]
    clean = search_kernel(kernel, ARMV8_NEON, model, driver="verified")
    SEARCHES.flush()
    filled = _files(search_dir)
    SEARCHES.clear()
    computed.clear()
    sites: list[str] = []
    real = faultinject.perturb

    def perturb(plan, site, attempt):
        sites.append(site)
        return real(plan, site, attempt)

    monkeypatch.setattr(faultinject, "perturb", perturb)
    if via == "argument":
        plan = parse_faults("crash:0.5", seed=11)
        faulted = search_kernel(kernel, ARMV8_NEON, model, driver="verified", faults=plan)
    else:
        use(current().replace(faults="crash:0.5", faults_seed=11))
        faulted = search_kernel(kernel, ARMV8_NEON, model, driver="verified")
    assert f"dse:{kernel.name}" in sites
    assert computed == [kernel.name]
    assert faulted.to_dict() == clean.to_dict()
    SEARCHES.flush()
    assert _files(search_dir) == filled  # a faulted search writes nothing either


def test_a_serve_only_fault_plan_keeps_the_tier():
    assert parse_faults("crash:0.1").active
    assert not parse_faults("slow_handler:0.5,worker_crash:0.5").active


def test_a_dropped_space_leaves_no_unrolled_kernel_in_the_manager(model):
    kernel = next(
        k for k in SUITE if any(p.unroll > 1 for p in enumerate_plan_points(k, ARMV8_NEON))
    )
    space = points_mod.PlanSpace(kernel, ARMV8_NEON)
    for driver in ("exhaustive", "verified"):
        search_kernel(kernel, ARMV8_NEON, model, driver=driver, space=space)
    unrolled = [weakref.ref(k) for k in space._bases.values()]
    assert unrolled
    manager = default_manager()
    assert {id(r()) for r in unrolled} <= set(manager._entries)  # analysed while in use
    del space
    gc.collect()
    assert all(r() is None for r in unrolled)  # their IR is freed
    assert any(e.kernel is kernel for e in manager._entries.values())
