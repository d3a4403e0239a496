"""Dataset construction: serial by default, a pool only when a sweep
needs a killable process (repro.pipeline.build)."""

import os
import time

import numpy as np
import pytest

import repro.pipeline.resilience as resilience_mod
from repro.experiments import DatasetSpec
from repro.pipeline import (
    FaultPlan,
    MeasurementCache,
    measure_suite,
    resolve_workers,
)
from repro.tsvc import get_kernel, kernel_names

SPEC = DatasetSpec("armv8-neon", "llv")


def no_cache(tmp_path):
    return MeasurementCache(root=tmp_path, enabled=False)


def assert_samples_identical(left, right):
    assert [s.name for s in left] == [s.name for s in right]
    for a, b in zip(left, right):
        assert a.vf == b.vf
        assert a.category == b.category
        assert a.target == b.target
        assert a.vector_bound == b.vector_bound
        # Bit-identity, not approximate equality: the per-kernel RNG
        # seeding makes measurement order irrelevant.
        assert a.measured_speedup == b.measured_speedup
        assert a.measured_scalar_cpi == b.measured_scalar_cpi
        assert a.measured_vector_cpi == b.measured_vector_cpi
        assert np.array_equal(a.scalar_features, b.scalar_features)
        assert np.array_equal(a.vector_features, b.vector_features)
        assert np.array_equal(a.lowered_features, b.lowered_features)


def test_parallel_equals_serial_bit_identical(tmp_path):
    """The suite-wide determinism property behind the whole pipeline.
    The deadline is what puts the second sweep on a real pool."""
    serial, serial_fail = measure_suite(SPEC, workers=1, cache=no_cache(tmp_path))
    parallel, parallel_fail = measure_suite(
        SPEC, workers=2, cache=no_cache(tmp_path), timeout=300.0
    )
    assert serial_fail == parallel_fail
    assert_samples_identical(serial, parallel)


def test_scheduling_does_not_change_results(tmp_path):
    """Pool or not affects time, never values: a pool forced by a
    fault-free deadline stays bit-identical to a serial sweep."""
    cache = MeasurementCache(root=tmp_path, enabled=False)
    serial, sf = measure_suite(SPEC, workers=1, cache=cache)
    pooled, pf, report = measure_suite(
        SPEC, workers=2, cache=cache, timeout=300.0, partial=True
    )
    assert not report.quarantined and not report.degraded_to_serial
    assert sf == pf
    assert [s.name for s in serial] == [s.name for s in pooled]
    for a, b in zip(serial, pooled):
        assert a.measured_speedup == b.measured_speedup
        assert np.array_equal(a.vector_features, b.vector_features)


def _record_pools(monkeypatch) -> list:
    """Replace the supervisor's pool with a recorder that refuses to
    start, so the supervisor falls back to serial after recording."""
    built: list = []

    def refuse(*args, **kwargs):
        built.append(kwargs.get("max_workers"))
        raise OSError("process pools are recorded, not started, here")

    monkeypatch.setattr(resilience_mod, "ProcessPoolExecutor", refuse)
    for var in ("REPRO_TIMEOUT", "REPRO_FAULTS", "REPRO_WORKERS"):
        monkeypatch.delenv(var, raising=False)
    return built


def test_no_pool_without_deadline_or_fault_plan(tmp_path, monkeypatch):
    """Serial by default: however many CPUs and workers are on offer, a
    sweep that needs no killable process starts no pool."""
    built = _record_pools(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    samples, failures = measure_suite(
        SPEC, workers=4, cache=no_cache(tmp_path)
    )
    assert built == []
    assert len(samples) + len(failures) == len(kernel_names())


def test_pool_policy_deadline_and_fault_plan(tmp_path, monkeypatch):
    """A deadline gets a pool even one worker wide; a fault plan gets
    one only with more than one worker and a sweep fault kind (a
    serve-only plan faults nothing in a sweep); the width is capped at
    the pending kernels."""
    built = _record_pools(monkeypatch)
    kernels = [get_kernel(n) for n in kernel_names()[:3]]
    plan = FaultPlan(rates={"flaky_exc": 0.01})

    def sweep(**kwargs):
        measure_suite(
            SPEC, cache=no_cache(tmp_path), kernels=kernels, **kwargs
        )
        return built.pop() if built else None

    assert sweep(workers=1, timeout=60.0) == 1
    assert sweep(workers=8, timeout=60.0) == 3
    assert sweep(workers=2, faults=plan) == 2
    assert sweep(workers=1, faults=plan) is None
    assert sweep(workers=4, faults=FaultPlan()) is None
    serve_only = FaultPlan(rates={"slow_handler": 0.5, "worker_crash": 0.5})
    assert sweep(workers=4, faults=serve_only) is None


def test_deadline_enforced_with_one_worker(tmp_path):
    """A single-worker sweep still gets its deadline: the hung kernel
    is killed and quarantined long before the hang would end."""
    plan = FaultPlan(rates={"hang": 1.0}, hang_seconds=30.0)
    t0 = time.monotonic()
    samples, failures, report = measure_suite(
        SPEC,
        workers=1,
        cache=no_cache(tmp_path),
        kernels=[get_kernel("s000")],
        timeout=0.5,
        max_attempts=1,
        faults=plan,
        partial=True,
    )
    elapsed = time.monotonic() - t0
    assert samples == [] and failures == []
    assert report.names() == ["s000"]
    assert "TimeoutError" in report.quarantined[0].error_chain[-1]
    assert elapsed < 10.0


def test_cached_build_equals_fresh_build(tmp_path):
    cache = MeasurementCache(root=tmp_path)
    fresh, fresh_fail = measure_suite(SPEC, workers=1, cache=cache)
    cached, cached_fail = measure_suite(SPEC, workers=1, cache=cache)
    assert fresh_fail == cached_fail
    assert_samples_identical(fresh, cached)


def test_results_ordered_by_suite_registration(tmp_path):
    from repro.tsvc import kernel_names

    samples, failures = measure_suite(SPEC, workers=2, cache=no_cache(tmp_path))
    order = {name: i for i, name in enumerate(kernel_names())}
    sample_pos = [order[s.name] for s in samples]
    failure_pos = [order[n] for n, _ in failures]
    assert sample_pos == sorted(sample_pos)
    assert failure_pos == sorted(failure_pos)
    assert len(samples) + len(failures) == len(order)


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(4) == 4
    assert resolve_workers(0) == 1  # floor at serial
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(2) == 2  # explicit beats env


@pytest.mark.parametrize("bad", ["not-a-number", "0", "-2", "2.5"])
def test_resolve_workers_invalid_env_raises(monkeypatch, bad):
    monkeypatch.setenv("REPRO_WORKERS", bad)
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        resolve_workers()
    # An explicit count never consults the env var.
    assert resolve_workers(2) == 2


def test_workers_capped_at_pending_kernels(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(16, pending=3) == 3
    assert resolve_workers(2, pending=100) == 2
    assert resolve_workers(16, pending=0) == 1


def test_unknown_target_raises_before_any_work(tmp_path):
    with pytest.raises(KeyError):
        measure_suite(
            DatasetSpec("not-a-target", "llv"), cache=no_cache(tmp_path)
        )
