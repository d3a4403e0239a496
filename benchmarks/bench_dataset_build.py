"""Dataset-build timing: the pipeline's cold/warm trajectory.

These benches track the acceptance surface of the measurement
pipeline: a cold serial sweep (the pre-pipeline baseline shape), a
warm rebuild served from the persistent cache, and the fast-path vs
refit-loop LOOCV.  ``smoke_pipeline.py`` runs the
same measurements standalone and emits ``BENCH_pipeline.json``.
"""

import pytest

from repro.costmodel import RatedSpeedupModel
from repro.experiments import ARM_LLV, X86_SLP
from repro.fitting import LeastSquares
from repro.pipeline import MeasurementCache, measure_suite
from repro.validation import loocv_predictions

from benchmarks.conftest import print_once


def _uncached(tmp_path_factory):
    return MeasurementCache(
        root=tmp_path_factory.mktemp("bench-cache-off"), enabled=False
    )


def test_bench_build_cold_serial(benchmark, tmp_path_factory):
    cache = _uncached(tmp_path_factory)

    def build():
        samples, failures = measure_suite(ARM_LLV, workers=1, cache=cache)
        return len(samples), len(failures)

    vectorized, excluded = benchmark(build)
    assert vectorized + excluded == 151


def test_bench_build_warm_cache(benchmark, tmp_path_factory):
    cache = MeasurementCache(root=tmp_path_factory.mktemp("bench-cache"))
    measure_suite(ARM_LLV, workers=1, cache=cache)  # prime

    def rebuild():
        samples, _ = measure_suite(ARM_LLV, workers=1, cache=cache)
        return len(samples)

    n = benchmark(rebuild)
    assert n > 75
    assert cache.stats.hits >= 151
    print_once("warm-cache", str(cache.stats))


def test_bench_build_both_targets_warm(benchmark, tmp_path_factory):
    """The full ARM+x86 sweep every experiment session pays at least once."""
    cache = MeasurementCache(root=tmp_path_factory.mktemp("bench-cache-2"))
    for spec in (ARM_LLV, X86_SLP):
        measure_suite(spec, workers=1, cache=cache)

    def rebuild():
        total = 0
        for spec in (ARM_LLV, X86_SLP):
            samples, failures = measure_suite(spec, workers=1, cache=cache)
            total += len(samples) + len(failures)
        return total

    assert benchmark(rebuild) == 302


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "refit-loop"])
def test_bench_loocv_l2(benchmark, arm_dataset, fast):
    samples = arm_dataset.samples

    def loocv():
        return loocv_predictions(
            lambda: RatedSpeedupModel(LeastSquares()), samples, fast=fast
        )

    preds = benchmark(loocv)
    assert len(preds) == len(samples)
