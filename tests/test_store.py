"""One property suite over the on-disk store and its three consumers.

The measurement cache, a sweep checkpoint and the model registry (an
entry and its ``CURRENT`` pointer) all keep their files in a
:class:`repro.store.Store`.  Each case writes an entry the way its
consumer does, damages the file in place, and reads it back the way
the consumer does: damage is evicted, counted in ``stats.corrupt`` and
reported as a miss — never served, never raised.
"""

import os
import pickle
import shutil
import struct
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.costmodel.speedup import SpeedupModel
from repro.experiments import DatasetSpec
from repro.fitting.nnls import NonNegativeLeastSquares
from repro.pipeline import MeasurementCache, measure_suite, pipeline_diagnostics
from repro.pipeline.build import _measure_named, _resolve_checkpoint
from repro.pipeline.fingerprint import measurement_fingerprint
from repro.pipeline.resilience import PASS_NAME
from repro.serve import ModelRegistry, RegistryError, entry_from_model
from repro.serve.registry import CURRENT, entry_name
from repro import store as store_mod
from repro.store import MISS, Store
from repro.tsvc import get_kernel

from tests.test_resilience import assert_samples_identical
from tests.test_serve_registry import toy_samples

SPEC = DatasetSpec("armv8-neon", "llv")

#: A flipped bit in the middle of this payload's pickle lands inside
#: the string, so the damaged bytes still unpickle.
PAYLOAD = (None, "x" * 64)

FP_A, FP_B = "a" * 64, "b" * 64

MODEL_KEY = "armv8-neon--llv"


def fitted_entry(seed):
    samples = toy_samples(seed=seed)
    model = SpeedupModel(NonNegativeLeastSquares()).fit(samples)
    return entry_from_model(
        model, samples, target="armv8-neon", vectorizer="llv"
    )


@dataclass
class Consumer:
    """One consumer's store, the key it wrote, and its own read path."""

    store: Store
    key: str
    other: str  # a second key of the same store
    write: Callable[[], None]
    read: Callable[[str], object]  # value, or MISS


def cache_consumer(root):
    cache = MeasurementCache(root=root)
    return Consumer(
        cache.store,
        FP_A,
        FP_B,
        lambda: cache.put(FP_A, PAYLOAD),
        cache.get,
    )


def checkpoint_consumer(root):
    store = _resolve_checkpoint(SPEC, root)
    return Consumer(
        store,
        FP_A,
        FP_B,
        lambda: store.put(FP_A, pickle.dumps(PAYLOAD)),
        lambda key: store.get(key, pickle.loads),  # what resume does
    )


def registry_consumer(root, key_of):
    registry = ModelRegistry(root)
    a, b = fitted_entry(1), fitted_entry(2)

    def write():
        registry.publish(b)
        registry.publish(a)

    def read(key):
        if key == CURRENT:
            return registry.store_for(MODEL_KEY).get(CURRENT, bytes.decode)
        version = key[len("entry-"):-len(".json")]
        entry = registry._read_entry(MODEL_KEY, version)
        return MISS if entry is None else entry

    return Consumer(
        registry.store_for(MODEL_KEY),
        key_of(a),
        entry_name(b.version),
        write,
        read,
    )


MAKERS = {
    "cache": cache_consumer,
    "checkpoint": checkpoint_consumer,
    "registry-entry": lambda root: registry_consumer(
        root, lambda e: entry_name(e.version)
    ),
    "registry-current": lambda root: registry_consumer(
        root, lambda e: CURRENT
    ),
}


@pytest.fixture(params=sorted(MAKERS))
def kind(request):
    return request.param


@pytest.fixture
def make(kind):
    return MAKERS[kind]


@pytest.fixture
def consumer(make, tmp_path):
    c = make(tmp_path / "root")
    c.write()
    return c


def assert_evicted(c, key=None):
    key = key or c.key
    corrupt = c.store.stats.corrupt
    assert c.read(key) is MISS
    assert c.store.stats.corrupt == corrupt + 1
    assert not c.store.path(key).exists()


def body_of(c):
    return c.store.path(c.key).read_bytes().partition(b"\n")[2]


def test_intact_entry_is_a_hit(consumer):
    value = consumer.read(consumer.key)
    assert value is not MISS
    assert consumer.store.stats.hits == 1
    assert consumer.store.stats.corrupt == 0
    assert consumer.store.keys()


def test_truncated_file_is_evicted(consumer):
    path = consumer.store.path(consumer.key)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert_evicted(consumer)


def test_garbage_bytes_are_evicted(consumer):
    consumer.store.path(consumer.key).write_bytes(b"\x00garbage\x00" * 8)
    assert_evicted(consumer)


def test_flipped_body_bit_is_evicted(consumer):
    path = consumer.store.path(consumer.key)
    data = bytearray(path.read_bytes())
    start = data.index(b"\n") + 1
    data[start + (len(data) - start) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    assert_evicted(consumer)


def test_file_copied_under_another_key_is_evicted(consumer):
    shutil.copy(
        consumer.store.path(consumer.key), consumer.store.path(consumer.other)
    )
    assert_evicted(consumer, consumer.other)


@pytest.mark.parametrize("foreign", ["store", "consumer"])
def test_foreign_schema_is_evicted(consumer, foreign):
    path = consumer.store.path(consumer.key)
    if foreign == "store":
        data = path.read_bytes()
        assert data.startswith(b"repro-store/1 ")
        path.write_bytes(b"repro-store/2 " + data[len(b"repro-store/1 "):])
    else:
        other = Store(consumer.store.root, schema="foreign/1", durable=False)
        assert other.put(consumer.key, body_of(consumer))
    assert_evicted(consumer)


def test_failed_rename_leaves_no_tmp_file(consumer, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert consumer.store.put("never-installed", b"body") is False
    monkeypatch.undo()
    assert consumer.store.stats.write_errors == 1
    assert not consumer.store.path("never-installed").exists()
    names = [p.name for p in consumer.store.root.iterdir()]
    assert [n for n in names if n.startswith(".")] == []


def test_unwritable_root_degrades_to_a_write_error(make, tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the store's directory should go")
    c = make(blocked)
    assert c.store.put(c.key, b"body") is False  # never raises
    assert c.store.stats.write_errors == 1
    assert c.store.stats.stores == 0
    assert c.read(c.key) is MISS


def test_registry_publish_to_unwritable_root_raises(tmp_path):
    """A publish that could not reach disk must not report success."""
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory")
    with pytest.raises(RegistryError, match="could not install"):
        ModelRegistry(blocked).publish(fitted_entry(1))


def test_durable_stores_fsync_and_the_cache_does_not(
    kind, consumer, monkeypatch
):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(real_fsync(fd)))
    assert consumer.store.put(consumer.other, b"body")
    # The cache is an accelerator; checkpoints and the registry fsync
    # the file before the rename and the directory after it.
    assert len(synced) == (0 if kind == "cache" else 2)


# -- end to end: a rotted measurement is re-measured, never fitted -----------


KERNELS = ("s000", "s111", "s1112")


def flip_low_mantissa_bit(path, value: float) -> None:
    """Flip the last bit of ``value`` where the file stores it."""
    data = bytearray(path.read_bytes())
    for fmt, low in ((">d", 7), ("<d", 0)):
        i = data.find(struct.pack(fmt, value))
        if i >= 0:
            data[i + low] ^= 0x01
            path.write_bytes(bytes(data))
            return
    raise AssertionError(f"{value!r} not found in {path}")


def fingerprint(name):
    return measurement_fingerprint(
        get_kernel(name), SPEC.target, SPEC.vectorizer, SPEC.jitter, SPEC.seed
    )


def sweep(**kwargs):
    return measure_suite(
        SPEC, kernels=[get_kernel(n) for n in KERNELS], workers=1, **kwargs
    )


def test_cache_entry_with_a_flipped_bit_is_remeasured(tmp_path):
    cache = MeasurementCache(root=tmp_path)
    clean, clean_fail = sweep(cache=cache)
    victim = clean[0]
    flip_low_mantissa_bit(
        cache.store.path(fingerprint(victim.name)), victim.measured_speedup
    )
    warm, warm_fail = sweep(cache=cache)
    assert cache.stats.corrupt == 1
    assert cache.stats.hits == len(KERNELS) - 1
    assert warm_fail == clean_fail
    assert_samples_identical(clean, warm)


def test_checkpoint_entry_with_a_flipped_bit_is_remeasured(tmp_path):
    off = MeasurementCache(root=tmp_path / "off", enabled=False)
    clean, clean_fail = sweep(cache=off)
    ckpt = tmp_path / "ckpt"
    checkpoint = _resolve_checkpoint(SPEC, ckpt)
    for name in KERNELS:
        payload = _measure_named(
            name, SPEC.target, SPEC.vectorizer, SPEC.jitter, SPEC.seed
        )
        checkpoint.put(fingerprint(name), pickle.dumps(payload))
    victim = clean[0]
    flip_low_mantissa_bit(
        checkpoint.path(fingerprint(victim.name)), victim.measured_speedup
    )

    pipeline_diagnostics().clear()
    resumed, resumed_fail = sweep(cache=off, checkpoint_dir=ckpt, resume=True)
    assert resumed_fail == clean_fail
    assert_samples_identical(clean, resumed)
    remarks = [
        r
        for r in pipeline_diagnostics().remarks(pass_name=PASS_NAME)
        if "damaged" in r.message
    ]
    assert len(remarks) == 1
    assert "evicted 1 damaged" in remarks[0].message
    assert not checkpoint.root.exists()  # a completed sweep deletes it


def _aged_entries(store: Store, n: int) -> None:
    """``k0`` … ``k{n-1}``, each modified one second after the last."""
    for i in range(n):
        store.put(f"k{i}", b"x")
        os.utime(store.path(f"k{i}"), ns=(i * 10**9, i * 10**9))


def test_first_put_trims_a_non_durable_store_to_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(store_mod, "MAX_ENTRIES", 3)
    _aged_entries(Store(tmp_path, schema="t", durable=False), 5)
    fresh = Store(tmp_path, schema="t", durable=False)  # as in a new process
    assert fresh.get("k0") == b"x"  # reads never trim
    fresh.put("new", b"y")
    assert sorted(fresh.keys()) == ["k2", "k3", "k4", "new"]  # oldest went
    fresh.put("newer", b"y")  # one scan per store and process
    assert len(fresh.keys()) == 5


def test_durable_stores_are_never_trimmed(tmp_path, monkeypatch):
    monkeypatch.setattr(store_mod, "MAX_ENTRIES", 3)
    _aged_entries(Store(tmp_path, schema="t", durable=True), 5)
    fresh = Store(tmp_path, schema="t", durable=True)
    fresh.put("new", b"y")
    assert len(fresh.keys()) == 6
