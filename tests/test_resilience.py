"""Fault-tolerant sweep semantics (repro.pipeline.resilience).

The load-bearing property: whatever the supervisor has to absorb —
crashes, hangs, flaky exceptions, torn checkpoints, corrupted cache
entries — once retries drain, the surviving samples are *bit-identical*
to a clean serial sweep.  Injected faults are deterministic (seeded),
so each scenario either converges or it doesn't; there is no flake.
"""

import os
import pickle

import numpy as np
import pytest

from repro.experiments import DatasetSpec
from repro.pipeline import (
    FaultPlan,
    MeasurementCache,
    RetryPolicy,
    SweepError,
    measure_suite,
    parse_faults,
    pipeline_diagnostics,
)
from repro.pipeline.resilience import PASS_NAME, FailureReport, KernelFailure

SPEC = DatasetSpec("armv8-neon", "llv")

#: Retries that never sleep — chaos convergence without wall-clock cost.
FAST = RetryPolicy(max_attempts=5, base_delay=0.0)


def no_cache(tmp_path):
    return MeasurementCache(root=tmp_path / "off", enabled=False)


def clean_sweep(tmp_path):
    return measure_suite(SPEC, workers=1, cache=no_cache(tmp_path))


def assert_samples_identical(left, right):
    assert [s.name for s in left] == [s.name for s in right]
    for a, b in zip(left, right):
        assert a.measured_speedup == b.measured_speedup
        assert a.measured_scalar_cpi == b.measured_scalar_cpi
        assert a.measured_vector_cpi == b.measured_vector_cpi
        assert np.array_equal(a.scalar_features, b.scalar_features)
        assert np.array_equal(a.vector_features, b.vector_features)
        assert np.array_equal(a.lowered_features, b.lowered_features)


# -- retry policy ------------------------------------------------------------


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(max_attempts=5, base_delay=0.1, cap=0.5)
    delays = [policy.delay("s000", a) for a in range(5)]
    # Exponential up to the cap, modulo the ±25% jitter band.
    for attempt, d in enumerate(delays):
        raw = min(0.1 * 2**attempt, 0.5)
        assert 0.75 * raw <= d <= 1.25 * raw
    # Deterministic: same (kernel, attempt) -> same delay.
    assert policy.delay("s000", 2) == policy.delay("s000", 2)
    # De-synchronized across kernels.
    assert policy.delay("s000", 2) != policy.delay("s111", 2)


def test_retry_policy_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    assert RetryPolicy(base_delay=0.0).delay("s000", 3) == 0.0


# -- fault plans -------------------------------------------------------------


def test_parse_faults_roundtrip():
    plan = parse_faults("crash:0.1, hang:0.05,flaky_exc:1")
    assert plan.rate("crash") == 0.1
    assert plan.rate("hang") == 0.05
    assert plan.rate("flaky_exc") == 1.0
    assert plan.rate("corrupt_cache") == 0.0
    assert parse_faults("") is None
    assert parse_faults("   ") is None


@pytest.mark.parametrize(
    "bad", ["crash", "crash:lots", "segfault:0.5", "crash:1.5", "hang:-0.1"]
)
def test_parse_faults_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_faults(bad)


def test_fault_plan_is_deterministic_and_drains():
    plan = FaultPlan(rates={"flaky_exc": 0.5}, seed=7)
    verdicts = [plan.decide("flaky_exc", "s000", a) for a in range(20)]
    assert verdicts == [
        plan.decide("flaky_exc", "s000", a) for a in range(20)
    ]
    assert any(verdicts) and not all(verdicts)  # drains under retries
    assert not FaultPlan(rates={"crash": 0.0}).decide("crash", "s000", 0)
    assert FaultPlan(rates={"crash": 1.0}).decide("crash", "s000", 0)


# -- chaos convergence: faulted sweep ≡ clean sweep --------------------------


def test_flaky_exceptions_converge_serial(tmp_path):
    clean, clean_fail = clean_sweep(tmp_path)
    plan = FaultPlan(rates={"flaky_exc": 0.3}, seed=0)
    samples, failures, report = measure_suite(
        SPEC,
        workers=1,
        cache=no_cache(tmp_path),
        faults=plan,
        retry=FAST,
        partial=True,
    )
    assert not report.quarantined
    assert report.retries > 0
    assert failures == clean_fail
    assert_samples_identical(clean, samples)


def test_worker_crashes_converge_parallel(tmp_path):
    clean, clean_fail = clean_sweep(tmp_path)
    plan = FaultPlan(rates={"crash": 0.1, "flaky_exc": 0.1}, seed=0)
    samples, failures, report = measure_suite(
        SPEC,
        workers=2,
        cache=no_cache(tmp_path),
        faults=plan,
        retry=FAST,
        partial=True,
    )
    assert not report.quarantined
    assert report.pool_rebuilds > 0  # crashes actually happened
    assert failures == clean_fail
    assert_samples_identical(clean, samples)


def test_hung_workers_recovered_by_deadline(tmp_path):
    clean, clean_fail = clean_sweep(tmp_path)
    plan = FaultPlan(rates={"hang": 0.02}, seed=3, hang_seconds=5.0)
    samples, failures, report = measure_suite(
        SPEC,
        workers=2,
        cache=no_cache(tmp_path),
        faults=plan,
        timeout=0.75,
        retry=FAST,
        partial=True,
    )
    assert not report.quarantined
    assert report.pool_rebuilds > 0  # at least one pool was put down
    assert failures == clean_fail
    assert_samples_identical(clean, samples)


def test_in_process_crash_is_contained(tmp_path):
    """Serial sweeps must survive crash faults without dying themselves."""
    clean, clean_fail = clean_sweep(tmp_path)
    plan = FaultPlan(rates={"crash": 0.2}, seed=1)
    samples, failures, report = measure_suite(
        SPEC,
        workers=1,
        cache=no_cache(tmp_path),
        faults=plan,
        retry=FAST,
        partial=True,
    )
    assert not report.quarantined
    assert failures == clean_fail
    assert_samples_identical(clean, samples)


# -- quarantine --------------------------------------------------------------


def test_quarantine_after_max_attempts(tmp_path):
    plan = FaultPlan(rates={"flaky_exc": 1.0}, seed=0)  # never succeeds
    policy = RetryPolicy(max_attempts=2, base_delay=0.0)
    samples, failures, report = measure_suite(
        SPEC,
        workers=1,
        cache=no_cache(tmp_path),
        faults=plan,
        retry=policy,
        partial=True,
    )
    assert samples == [] and failures == []
    assert len(report) == 151  # the whole suite gave up
    for fail in report.quarantined:
        assert fail.attempts == 2
        assert len(fail.error_chain) == 2
        assert "InjectedFault" in fail.error_chain[-1]
        assert fail.wall_time_s >= 0.0
    # Quarantine is visible through the diagnostics engine too.
    remarks = pipeline_diagnostics().remarks(
        kernel="s000", pass_name=PASS_NAME
    )
    assert any("quarantined after 2 attempts" in r.message for r in remarks)


def test_non_partial_sweep_raises_sweep_error(tmp_path):
    plan = FaultPlan(rates={"flaky_exc": 1.0}, seed=0)
    with pytest.raises(SweepError, match="quarantined") as exc_info:
        measure_suite(
            SPEC,
            workers=1,
            cache=no_cache(tmp_path),
            faults=plan,
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
        )
    assert len(exc_info.value.report) == 151


def test_failure_report_shapes():
    report = FailureReport(
        quarantined=[
            KernelFailure("s000", 3, 1.5, ("RuntimeError: boom",) * 3)
        ],
        retries=4,
        pool_rebuilds=1,
    )
    assert bool(report) and len(report) == 1
    assert report.names() == ["s000"]
    assert "s000 (3 attempts" in report.summary()
    d = report.as_dict()
    assert d["retries"] == 4 and d["quarantined"][0]["name"] == "s000"
    assert not FailureReport()
    assert FailureReport().summary() == "no kernels quarantined"


# -- checkpoint / resume -----------------------------------------------------


def test_completed_sweep_discards_journal(tmp_path):
    ckpt = tmp_path / "ckpt"
    measure_suite(
        SPEC, workers=1, cache=no_cache(tmp_path), checkpoint_dir=ckpt
    )
    assert list(ckpt.glob("sweep-*")) == []


def test_resume_remeasures_only_incomplete_kernels(tmp_path, monkeypatch):
    """Kill a sweep mid-run (simulated), resume, and count the work."""
    import repro.pipeline.build as build_mod
    from repro.pipeline.build import _resolve_checkpoint
    from repro.pipeline.fingerprint import measurement_fingerprint
    from repro.tsvc.suite import all_kernels

    clean, clean_fail = clean_sweep(tmp_path)
    ckpt = tmp_path / "ckpt"
    kernels = list(all_kernels())
    done = [k.name for k in kernels[:40]]

    # Fabricate the checkpoint an interrupted sweep would have left:
    # the first 40 kernels completed, then the process died mid-write.
    checkpoint = _resolve_checkpoint(SPEC, ckpt)
    for name in done:
        payload = build_mod._measure_named(
            name, SPEC.target, SPEC.vectorizer, SPEC.jitter, SPEC.seed
        )
        fp = measurement_fingerprint(
            next(k for k in kernels if k.name == name),
            SPEC.target,
            SPEC.vectorizer,
            SPEC.jitter,
            SPEC.seed,
        )
        checkpoint.put(fp, pickle.dumps(payload))
    (checkpoint.root / f".{fp}.died.tmp").write_bytes(b"half-a-record")

    measured = []
    original = build_mod._measure_named

    def counting(name, *args, **kwargs):
        measured.append(name)
        return original(name, *args, **kwargs)

    monkeypatch.setattr(build_mod, "_measure_named", counting)
    samples, failures = measure_suite(
        SPEC,
        workers=1,
        cache=no_cache(tmp_path),
        checkpoint_dir=ckpt,
        resume=True,
    )
    assert sorted(set(measured)) == sorted(
        k.name for k in kernels if k.name not in done
    )
    assert failures == clean_fail
    assert_samples_identical(clean, samples)


def test_fresh_sweep_ignores_stale_journal(tmp_path):
    """Without --resume an existing checkpoint is discarded, not replayed."""
    from repro.pipeline.build import _resolve_checkpoint
    from repro.pipeline.fingerprint import measurement_fingerprint
    from repro.tsvc import get_kernel

    ckpt = tmp_path / "ckpt"
    fp = measurement_fingerprint(
        get_kernel("s000"), SPEC.target, SPEC.vectorizer, SPEC.jitter, SPEC.seed
    )
    _resolve_checkpoint(SPEC, ckpt).put(fp, pickle.dumps((None, "poison")))
    clean, _ = clean_sweep(tmp_path)
    samples, _ = measure_suite(
        SPEC,
        workers=1,
        cache=no_cache(tmp_path),
        checkpoint_dir=ckpt,
        resume=False,
    )
    assert_samples_identical(clean, samples)


# -- cache corruption --------------------------------------------------------


def test_corrupted_cache_entries_are_remeasured(tmp_path):
    clean, clean_fail = clean_sweep(tmp_path)
    cache = MeasurementCache(root=tmp_path / "cache")
    plan = FaultPlan(rates={"corrupt_cache": 1.0}, seed=0)
    first, _, report = measure_suite(
        SPEC, workers=1, cache=cache, faults=plan, partial=True
    )
    assert not report.quarantined
    assert cache.stats.stores == 151  # every entry written, then torn
    # The next (fault-free) sweep must detect the damage and re-measure
    # rather than serving garbage.
    warm, warm_fail = measure_suite(SPEC, workers=1, cache=cache)
    assert cache.stats.corrupt == 151
    assert warm_fail == clean_fail
    assert_samples_identical(clean, warm)


def test_chaos_cli_corrupt_cache_evicts_and_keeps_parity(capsys):
    """The chaos CLI's ``corrupt_cache`` fault tears real cache entries:
    the recovery sweep reports a non-zero eviction count, and every leg
    (suite and corpus) keeps parity with the clean sweep."""
    from repro.pipeline.faultinject import main

    code = main(
        [
            "--faults", "corrupt_cache:1.0",
            "--specs", "arm",
            "--workers", "1",
            "--corpus", "6",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    legs = [line for line in out.splitlines() if "parity=" in line]
    assert len(legs) == 2 and all("parity=ok" in line for line in legs), out
    total = [line for line in out.splitlines() if "corrupt_cache:" in line]
    assert len(total) == 1, out
    assert int(total[0].split("corrupt_cache: ")[1].split()[0]) > 0, out


def test_cache_put_leaves_no_temp_file_on_failure(tmp_path, monkeypatch):
    cache = MeasurementCache(root=tmp_path / "cache")

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    cache.put("ab" * 32, (None, "x"))
    monkeypatch.undo()
    assert cache.stats.write_errors == 1
    assert cache.stats.stores == 0
    leftovers = [
        p for p in (tmp_path / "cache").rglob("*") if p.is_file()
    ]
    assert leftovers == []  # no orphaned temp file


# -- graceful degradation ----------------------------------------------------


def test_degrades_to_serial_when_pool_unavailable(tmp_path, monkeypatch):
    import repro.pipeline.resilience as res_mod

    def no_pool(*args, **kwargs):
        raise OSError("multiprocessing forbidden in this sandbox")

    monkeypatch.setattr(res_mod, "ProcessPoolExecutor", no_pool)
    pipeline_diagnostics().clear()
    clean, clean_fail = clean_sweep(tmp_path)
    # A per-kernel timeout forces a pool request — without one the
    # sweep runs serially upfront and the degradation path under test
    # would never run.
    samples, failures, report = measure_suite(
        SPEC, workers=4, cache=no_cache(tmp_path), partial=True, timeout=600.0
    )
    assert report.degraded_to_serial
    assert not report.quarantined
    assert failures == clean_fail
    assert_samples_identical(clean, samples)
    remarks = pipeline_diagnostics().remarks(pass_name=PASS_NAME)
    assert any("degrading to serial" in r.message for r in remarks)


# -- partial datasets downstream ---------------------------------------------


def test_dataset_carries_quarantine_report():
    from repro.experiments.dataset import Dataset
    from repro.experiments.reporting import quarantine_summary

    report = FailureReport(
        quarantined=[KernelFailure("s999", 3, 0.1, ("RuntimeError: x",))]
    )
    ds = Dataset(SPEC, samples=[], failures=[], quarantined=report)
    assert len(ds.quarantined) == 1
    assert "s999" in quarantine_summary(ds.quarantined)
    assert quarantine_summary(FailureReport()) == "none"


def test_env_faults_spec_parsing(monkeypatch):
    from repro.pipeline import plan_from_env

    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert plan_from_env() is None
    monkeypatch.setenv("REPRO_FAULTS", "flaky_exc:0.25")
    monkeypatch.setenv("REPRO_FAULTS_SEED", "9")
    plan = plan_from_env()
    assert plan.rate("flaky_exc") == 0.25
    assert plan.seed == 9
