"""Dataset-construction tests (experiments.dataset)."""

import numpy as np
import pytest

from repro.experiments import ARM_LLV, Dataset, DatasetSpec, X86_SLP, build_dataset


def test_spec_labels():
    assert ARM_LLV.label == "armv8-neon/llv"
    assert X86_SLP.label == "x86-avx2/slp"


def test_spec_is_hashable_cache_key():
    assert DatasetSpec("armv8-neon", "llv") == ARM_LLV
    assert hash(DatasetSpec("armv8-neon", "llv")) == hash(ARM_LLV)


def test_build_rejects_mixed_args():
    with pytest.raises(TypeError):
        build_dataset(ARM_LLV, target="x86-avx2")


def test_kwargs_form():
    ds = build_dataset(target="armv8-neon", vectorizer="llv")
    assert ds is build_dataset(ARM_LLV)


def test_every_kernel_accounted_for():
    ds = build_dataset(ARM_LLV)
    names = set(ds.names()) | {n for n, _ in ds.failures}
    assert len(names) == 151


def test_failures_carry_reasons():
    ds = build_dataset(ARM_LLV)
    reasons = {r for _, r in ds.failures}
    assert "scalar recurrence" in reasons
    assert "unsafe memory dependence" in reasons


def test_jitter_zero_is_deterministic_shape():
    spec = DatasetSpec("armv8-neon", "llv", jitter=0.0)
    ds = build_dataset(spec)
    ds2 = build_dataset(DatasetSpec("armv8-neon", "llv", jitter=0.0))
    assert ds is ds2  # cached
    assert np.isfinite(ds.measured).all()


def test_jitter_changes_values_not_membership():
    clean = build_dataset(DatasetSpec("armv8-neon", "llv", jitter=0.0))
    noisy = build_dataset(ARM_LLV)  # jitter 0.02
    assert clean.names() == noisy.names()
    assert not np.allclose(clean.measured, noisy.measured)
    # Noise is small: medians agree to a few percent.
    assert np.median(clean.measured) == pytest.approx(
        np.median(noisy.measured), rel=0.05
    )


def test_len_and_iteration(tmp_path):
    ds = build_dataset(ARM_LLV)
    assert len(ds) == len(ds.samples)


def test_sample_lookup_is_indexed():
    ds = build_dataset(ARM_LLV)
    s = ds.sample("s000")
    assert s.name == "s000"
    assert s is ds._by_name["s000"]  # dict-backed, not a linear scan
    with pytest.raises(KeyError, match="not in dataset"):
        ds.sample("no-such-kernel")


def test_duplicate_kernel_names_rejected():
    ds = build_dataset(ARM_LLV)
    with pytest.raises(ValueError, match="duplicate kernel"):
        Dataset(ARM_LLV, samples=[ds.samples[0], ds.samples[0]])


def test_workers_not_in_measurement_identity():
    """Any worker count returns the same memoized dataset object."""
    from repro.settings import current, use

    ds = build_dataset(ARM_LLV)
    use(current().replace(workers=2))
    assert build_dataset(DatasetSpec("armv8-neon", "llv")) is ds
    assert ARM_LLV.identity == ("armv8-neon", "llv", 0.02, 0)
