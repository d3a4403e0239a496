"""Persistent measurement-cache semantics (repro.pipeline.cache)."""

import pickle

import numpy as np
import pytest

from repro.experiments import DatasetSpec
from repro.pipeline import (
    MISS,
    MeasurementCache,
    kernel_fingerprint,
    measure_suite,
    measurement_fingerprint,
)
from repro.tsvc import get_kernel

from tests.helpers import build

SPEC = DatasetSpec("armv8-neon", "llv")


def fp_for(spec: DatasetSpec, name: str = "s000") -> str:
    return measurement_fingerprint(
        get_kernel(name), spec.target, spec.vectorizer, spec.jitter, spec.seed
    )


# -- fingerprints ------------------------------------------------------------


def test_fingerprint_is_stable():
    assert fp_for(SPEC) == fp_for(SPEC)
    assert len(fp_for(SPEC)) == 64  # sha256 hex


@pytest.mark.parametrize(
    "other",
    [
        DatasetSpec("x86-avx2", "slp"),
        DatasetSpec("armv8-neon", "slp"),
        DatasetSpec("armv8-neon", "llv", jitter=0.5),
        DatasetSpec("armv8-neon", "llv", seed=7),
    ],
)
def test_fingerprint_invalidates_on_spec_change(other):
    assert fp_for(SPEC) != fp_for(other)


def test_fingerprint_differs_across_kernels():
    assert fp_for(SPEC, "s000") != fp_for(SPEC, "s111")


def test_workers_not_part_of_fingerprint(tmp_path):
    """Entries a pool wrote are hits for a serial sweep: the pool width
    never enters the measurement fingerprint."""
    cache = MeasurementCache(root=tmp_path)
    kernels = [get_kernel(n) for n in ("s000", "s111", "s1112")]
    measure_suite(SPEC, cache=cache, kernels=kernels, workers=2, timeout=300.0)
    assert cache.stats.stores == len(kernels)
    measure_suite(SPEC, cache=cache, kernels=kernels, workers=1)
    assert cache.stats.hits == len(kernels)


def scaled_kernel(scale: float):
    def body(k):
        a = k.array("a", extents=(64,))
        b = k.array("b", extents=(64,))
        i = k.loop(64)
        a[i] = b[i] * scale

    return build("ck", body)


def test_kernel_fingerprint_stable_across_objects():
    """Two builds of the same source share one fingerprint (the DSE
    memo key), so the second search of an equal kernel is a hit."""
    k1, k2 = scaled_kernel(2.0), scaled_kernel(2.0)
    assert k1 is not k2
    assert kernel_fingerprint(k1) == kernel_fingerprint(k2)


def test_kernel_fingerprint_invalidation_on_mutation():
    """Same name, one constant changed: a different fingerprint."""
    assert kernel_fingerprint(scaled_kernel(2.0)) != kernel_fingerprint(
        scaled_kernel(3.0)
    )


# -- hit / miss / bypass -----------------------------------------------------


def test_roundtrip_hit(tmp_path):
    cache = MeasurementCache(root=tmp_path)
    fp = fp_for(SPEC)
    assert cache.get(fp) is MISS
    payload = (None, "some reason")
    cache.put(fp, payload)
    assert cache.get(fp) == payload
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1


def test_bypass_reads_and_writes_nothing(tmp_path):
    cache = MeasurementCache(root=tmp_path)
    fp = fp_for(SPEC)
    cache.put(fp, (None, "cached"))

    bypass = MeasurementCache(root=tmp_path, enabled=False)
    assert bypass.get(fp) is MISS  # entry exists but is not read
    bypass.put(fp, (None, "clobbered"))
    assert bypass.stats.as_dict() == {
        "hits": 0,
        "misses": 0,
        "stores": 0,
        "corrupt": 0,
        "write_errors": 0,
    }
    assert cache.get(fp) == (None, "cached")  # and was not overwritten


def test_clear_and_len(tmp_path):
    cache = MeasurementCache(root=tmp_path)
    for name in ("s000", "s111", "s112"):
        cache.put(fp_for(SPEC, name), (None, name))
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0
    assert cache.get(fp_for(SPEC, "s000")) is MISS


def test_clear_keeps_the_registry_and_checkpoints(tmp_path):
    """``--clear-cache`` deletes measurements; the default registry and
    checkpoints live under the same root and survive it."""
    cache = MeasurementCache(root=tmp_path)
    cache.put(fp_for(SPEC), (None, "x"))
    kept = [
        tmp_path / "registry" / "armv8-neon--llv" / "CURRENT",
        tmp_path / "checkpoints" / "sweep-0123456789abcdef" / fp_for(SPEC),
    ]
    for path in kept:
        path.parent.mkdir(parents=True)
        path.write_text("kept")
    assert cache.clear() == 1
    assert all(path.read_text() == "kept" for path in kept)


# -- corruption safety -------------------------------------------------------


def test_truncated_entry_recovers(tmp_path):
    cache = MeasurementCache(root=tmp_path)
    fp = fp_for(SPEC)
    cache.put(fp, (None, "ok"))
    path = cache.store.path(fp)
    path.write_bytes(path.read_bytes()[:10])
    assert cache.get(fp) is MISS
    assert cache.stats.corrupt == 1
    assert not path.exists()  # bad entry deleted, next put re-creates
    cache.put(fp, (None, "ok"))
    assert cache.get(fp) == (None, "ok")


def test_garbage_entry_recovers(tmp_path):
    cache = MeasurementCache(root=tmp_path)
    fp = fp_for(SPEC)
    path = cache.store.path(fp)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a pickle at all")
    assert cache.get(fp) is MISS
    assert cache.stats.corrupt == 1


def test_wrong_key_entry_is_rejected(tmp_path):
    """An entry filed under the wrong fingerprint must not be served."""
    cache = MeasurementCache(root=tmp_path)
    fp_a, fp_b = fp_for(SPEC, "s000"), fp_for(SPEC, "s111")
    cache.put(fp_a, (None, "a"))
    dst = cache.store.path(fp_b)
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_bytes(cache.store.path(fp_a).read_bytes())
    assert cache.get(fp_b) is MISS
    assert cache.stats.corrupt == 1


def test_wrong_schema_entry_is_rejected(tmp_path):
    cache = MeasurementCache(root=tmp_path)
    fp = fp_for(SPEC)
    path = cache.store.path(fp)
    path.parent.mkdir(parents=True)
    entry = {"schema": -1, "fingerprint": fp, "payload": (None, "stale")}
    path.write_bytes(pickle.dumps(entry))
    assert cache.get(fp) is MISS


def test_unwritable_root_degrades_gracefully(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file where the cache dir should go")
    cache = MeasurementCache(root=target)
    cache.put(fp_for(SPEC), (None, "x"))  # must not raise
    assert cache.stats.stores == 0
    assert cache.stats.write_errors == 1


# -- integration with measure_suite ------------------------------------------


def test_suite_build_populates_and_reuses_cache(tmp_path):
    cache = MeasurementCache(root=tmp_path)
    cold_samples, cold_failures = measure_suite(SPEC, cache=cache)
    assert cache.stats.stores == len(cold_samples) + len(cold_failures)
    assert cache.stats.hits == 0

    warm_samples, warm_failures = measure_suite(SPEC, cache=cache)
    assert cache.stats.hits == cache.stats.stores
    assert warm_failures == cold_failures
    for a, b in zip(cold_samples, warm_samples):
        assert a.name == b.name
        assert a.measured_speedup == b.measured_speedup
        assert np.array_equal(a.scalar_features, b.scalar_features)
        assert np.array_equal(a.vector_features, b.vector_features)


def test_spec_change_misses_cache(tmp_path):
    cache = MeasurementCache(root=tmp_path)
    measure_suite(SPEC, cache=cache)
    hits_before = cache.stats.hits
    measure_suite(DatasetSpec("armv8-neon", "llv", seed=3), cache=cache)
    assert cache.stats.hits == hits_before  # nothing reused across seeds
