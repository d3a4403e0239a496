"""Model registry: atomic installs, gate + rollback, corruption healing."""

import json

import numpy as np
import pytest

from repro.costmodel.speedup import SpeedupModel
from repro.fitting.nnls import NonNegativeLeastSquares
from repro.serve import (
    ModelRegistry,
    RegistryError,
    entry_from_model,
    entry_version,
    validate_entry,
)
from repro.serve.registry import REGISTRY_SCHEMA

from tests.test_costmodel import feat, mk_sample


def toy_samples(n=12, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        counts = {
            k: float(rng.integers(1, 5))
            for k in ("load", "add", "mul", "store")
        }
        out.append(
            mk_sample(
                name=f"s{i:03d}",
                scalar=feat(load=2, add=1, store=1),
                vector=feat(**counts),
                speedup=float(rng.uniform(0.5, 3.5)),
            )
        )
    return out


@pytest.fixture
def entry():
    samples = toy_samples()
    model = SpeedupModel(NonNegativeLeastSquares()).fit(samples)
    return entry_from_model(
        model, samples, target="armv8-neon", vectorizer="llv"
    )


def test_publish_and_current_roundtrip(tmp_path, entry):
    reg = ModelRegistry(tmp_path)
    published = reg.publish(entry)
    assert published.version == entry.version
    assert reg.current("armv8-neon", "llv").weights == entry.weights

    # Layout: one store per model key holding the entry and CURRENT.
    key_dir = tmp_path / "armv8-neon--llv"
    assert sorted(p.name for p in key_dir.iterdir()) == [
        "CURRENT",
        f"entry-{entry.version}.json",
    ]
    assert reg.store_for("armv8-neon--llv").get("CURRENT") == (
        entry.version.encode()
    )

    # A fresh process (no in-memory state) loads the same weights.
    fresh = ModelRegistry(tmp_path)
    loaded = fresh.current("armv8-neon", "llv")
    assert loaded is not None
    assert loaded.weights == entry.weights
    assert loaded.version == entry.version


def test_entry_version_is_deterministic_provenance_hash(entry):
    again = entry_version(
        entry.dataset_fingerprint,
        entry.featurization,
        entry.target,
        entry.vectorizer,
        entry.regressor,
    )
    assert again == entry.version
    other = entry_version(
        "different-fingerprint",
        entry.featurization,
        entry.target,
        entry.vectorizer,
        entry.regressor,
    )
    assert other != entry.version


def test_validation_gate_rejects_poison_and_keeps_last_good(tmp_path, entry):
    from dataclasses import replace

    reg = ModelRegistry(tmp_path)
    reg.publish(entry)
    poisoned = replace(
        entry,
        version="poisoned0000",
        weights=tuple([float("nan")] + list(entry.weights[1:])),
    )
    with pytest.raises(RegistryError, match="validation gate"):
        reg.publish(poisoned)
    kept = reg.current("armv8-neon", "llv")
    assert kept.version == entry.version
    assert kept.weights == entry.weights
    assert reg.stats.rejected == 1
    # The poisoned candidate never reached disk either.
    assert not (tmp_path / "armv8-neon--llv" / "entry-poisoned0000.json").exists()


def test_validate_entry_failure_reasons(entry):
    from dataclasses import replace

    assert validate_entry(entry) == []
    bad_key = replace(entry, featurization="no-such-key")
    assert any("no-such-key" in r for r in validate_entry(bad_key))
    bad_width = replace(entry, weights=entry.weights[:-1])
    assert validate_entry(bad_width)
    bad_replay = replace(
        entry,
        validation_expected=tuple(
            v + 0.5 for v in entry.validation_expected
        ),
    )
    assert any("bit-exactly" in r for r in validate_entry(bad_replay))
    bad_fit = replace(
        entry,
        validation_measured=tuple(
            v + 100.0 for v in entry.validation_measured
        ),
    )
    assert any("RMSE" in r for r in validate_entry(bad_fit))


def test_corrupted_entry_heals_from_in_memory_last_good(tmp_path, entry):
    reg = ModelRegistry(tmp_path)
    reg.publish(entry)
    path = tmp_path / "armv8-neon--llv" / f"entry-{entry.version}.json"
    path.write_bytes(b"\x00garbage\x00" + path.read_bytes()[8:])

    out = reg.reload()
    assert out["armv8-neon--llv"] == entry.version
    healed = reg.current("armv8-neon", "llv")
    assert healed.weights == entry.weights
    assert reg.stats.heals == 1
    assert reg.stats.corrupt_evictions == 1
    # The heal re-installed valid bytes: a fresh process reads them.
    assert ModelRegistry(tmp_path).current("armv8-neon", "llv").weights == (
        entry.weights
    )


def test_corruption_without_memory_falls_back_to_other_version(tmp_path):
    reg = ModelRegistry(tmp_path)
    a_samples, b_samples = toy_samples(seed=1), toy_samples(seed=2)
    model_a = SpeedupModel(NonNegativeLeastSquares()).fit(a_samples)
    model_b = SpeedupModel(NonNegativeLeastSquares()).fit(b_samples)
    entry_a = entry_from_model(
        model_a, a_samples, target="armv8-neon", vectorizer="llv"
    )
    entry_b = entry_from_model(
        model_b, b_samples, target="armv8-neon", vectorizer="llv"
    )
    assert entry_a.version != entry_b.version
    reg.publish(entry_a)
    reg.publish(entry_b)
    assert reg.current("armv8-neon", "llv").version == entry_b.version

    # Corrupt the active entry, then load from a *fresh* process with
    # no in-memory last-good: the registry must fall back to A.
    path = tmp_path / "armv8-neon--llv" / f"entry-{entry_b.version}.json"
    path.write_text("not json at all")
    fresh = ModelRegistry(tmp_path)
    recovered = fresh.current("armv8-neon", "llv")
    assert recovered is not None
    assert recovered.version == entry_a.version
    assert recovered.weights == entry_a.weights


def test_foreign_schema_entry_is_evicted_not_misread(tmp_path, entry):
    reg = ModelRegistry(tmp_path)
    reg.publish(entry)
    path = tmp_path / "armv8-neon--llv" / f"entry-{entry.version}.json"
    data = entry.to_dict()
    data["schema"] = REGISTRY_SCHEMA + 99
    # Installed through the store, so the file verifies: only the
    # entry's own schema field is foreign.
    reg.store_for("armv8-neon--llv").put(
        path.name, json.dumps(data, sort_keys=True).encode()
    )
    fresh = ModelRegistry(tmp_path)
    assert fresh.current("armv8-neon", "llv") is None
    assert not path.exists()  # evicted
    assert fresh.stats.corrupt_evictions == 1


def test_empty_registry_serves_nothing(tmp_path):
    reg = ModelRegistry(tmp_path)
    assert reg.current("armv8-neon", "llv") is None
    assert reg.versions("armv8-neon", "llv") == []
    assert reg.reload() == {}


def test_versions_lists_metadata(tmp_path, entry):
    reg = ModelRegistry(tmp_path)
    reg.publish(entry)
    versions = reg.versions("armv8-neon", "llv")
    assert len(versions) == 1
    assert versions[0]["version"] == entry.version
    assert versions[0]["active"] is True
    assert versions[0]["weights"] == len(entry.weights)
    assert versions[0]["featurization"] == "counts"
