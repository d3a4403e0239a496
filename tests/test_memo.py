"""The one memo mechanism: counts, LRU order, identity keys, the
disabled mode, failed computations and single-flight; and the stored
tier (batches, groups, bypasses, forks)."""

import gc
import os
import pickle
import signal
import sys
import threading
import time
import weakref

import pytest

from repro.memo import BATCH, Identity, Memo, StoredMemo
from repro.settings import current, use
from repro.store import Store


class Obj:
    """Equal by value, so only an ``Identity`` key can tell two apart."""

    def __eq__(self, other):
        return isinstance(other, Obj)

    def __hash__(self):
        return 0


def test_hits_misses_and_info_keys():
    memo = Memo()
    calls = []
    assert memo.get("a", lambda: calls.append(1) or 1) == 1
    assert memo.get("a", lambda: calls.append(1) or 2) == 1
    assert memo.get("b", lambda: 3) == 3
    assert calls == [1]
    assert memo.info() == {"enabled": True, "entries": 2, "hits": 1, "misses": 2}
    first = memo.get("list", list)
    assert memo.get("list", list) is first  # a hit is the stored object
    memo.clear()
    assert memo.info() == {"enabled": True, "entries": 0, "hits": 0, "misses": 0}


def test_bounded_memo_evicts_least_recently_used():
    memo = Memo(max_entries=2)
    memo.get("a", lambda: "A")
    memo.get("b", lambda: "B")
    memo.get("a", lambda: "stale")  # a hit refreshes "a"
    memo.get("c", lambda: "C")  # evicts "b", the least recently used
    assert memo.info()["entries"] == 2
    assert memo.get("a", lambda: "recomputed") == "A"
    assert memo.get("b", lambda: "B2") == "B2"
    assert memo.get("c", lambda: "recomputed") == "recomputed"  # "b" pushed out "c"


def test_identity_keys_distinguish_equal_objects():
    memo = Memo()
    x, y = Obj(), Obj()
    assert x == y
    assert memo.get(Identity(x), lambda: "x") == "x"
    assert memo.get(Identity(y), lambda: "y") == "y"
    assert memo.get(Identity(x), lambda: "again") == "x"
    assert memo.get((Identity(y), 1), lambda: "y1") == "y1"
    assert Identity(x) == Identity(x) and Identity(x) != Identity(y)


def test_identity_entry_keeps_its_object_alive_until_clear():
    memo = Memo()
    obj = Obj()
    ref = weakref.ref(obj)
    memo.get(Identity(obj), lambda: 1)
    del obj
    gc.collect()
    assert ref() is not None
    memo.clear()
    gc.collect()
    assert ref() is None


def test_disabled_computes_every_call_and_stores_nothing():
    memo = Memo()
    calls = []
    with memo.disabled():
        assert memo.info()["enabled"] is False
        a = memo.get("k", lambda: calls.append(1) or [])
        b = memo.get("k", lambda: calls.append(1) or [])
    assert a is not b and len(calls) == 2
    assert memo.info() == {"enabled": True, "entries": 0, "hits": 0, "misses": 0}


def test_failed_compute_stores_nothing_and_leaves_no_key_lock():
    memo = Memo()

    def boom():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        memo.get("k", boom)
    assert memo.info()["entries"] == 0 and memo.info()["misses"] == 0
    assert memo._pending == {}
    assert memo.get("k", lambda: 7) == 7


def test_concurrent_first_callers_share_one_computation():
    memo = Memo()
    started = threading.Event()
    release = threading.Event()
    calls = []

    def slow():
        calls.append(1)
        started.set()
        release.wait(5)
        return object()

    results = [None, None]

    def ask(i):
        results[i] = memo.get("k", slow)

    first = threading.Thread(target=ask, args=(0,))
    first.start()
    assert started.wait(5)
    second = threading.Thread(target=ask, args=(1,))
    second.start()
    second.join(0.2)  # the second caller waits on the first
    assert second.is_alive()
    release.set()
    first.join(5)
    second.join(5)
    assert not first.is_alive() and not second.is_alive()
    assert len(calls) == 1
    assert results[0] is results[1]
    assert memo.info()["hits"] == 1 and memo.info()["misses"] == 1
    assert memo._pending == {}


def test_distinct_keys_do_not_wait_on_each_other():
    memo = Memo()
    started = threading.Event()
    release = threading.Event()

    def slow():
        started.set()
        release.wait(5)
        return "slow"

    worker = threading.Thread(target=memo.get, args=("slow", slow))
    worker.start()
    assert started.wait(5)
    try:
        assert memo.get("fast", lambda: "fast") == "fast"
    finally:
        release.set()
        worker.join(5)
    assert not worker.is_alive()


def test_stress_every_key_computed_once_and_every_call_counted():
    """More threads than cores ask for the same keys in the same order,
    so every first request of a key is contended."""
    memo = Memo(max_entries=64)
    computed, wrong = [], []
    n_threads, calls_each, n_keys = 8, 400, 16
    start = threading.Barrier(n_threads)

    def compute(key):
        computed.append(key)
        time.sleep(0.001)  # hold the key long enough for others to collide
        return key * 2

    def worker():
        start.wait(10)
        for i in range(calls_each):
            key = i % n_keys
            if memo.get(key, lambda: compute(key)) != key * 2:
                wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert sorted(computed) == list(range(n_keys))  # no key computed twice
    info = memo.info()
    assert info["misses"] == n_keys
    assert info["hits"] + info["misses"] == n_threads * calls_each
    assert memo._pending == {}


# -- the stored tier -----------------------------------------------------------


def _split(key):
    """Keys are ``(group, item)`` pairs."""
    return key


@pytest.fixture
def stored(tmp_path):
    """A stored memo on a private cache dir."""
    use(current().replace(cache_dir=tmp_path))
    return StoredMemo("scratch", schema=1, split=_split)


def _batches(root):
    store = Store(root, schema="scratch/1", durable=False)
    names = sorted(store.keys())
    return [store.get(name, pickle.loads) for name in names]


def test_values_wait_for_a_full_batch_or_a_flush(stored, tmp_path):
    root = tmp_path / "scratch"
    for i in range(BATCH - 1):
        stored.get(("g", i), lambda i=i: i * i)
    assert not root.exists()
    stored.get(("h", 0), lambda: "h0")  # the BATCH-th unwritten value
    batches = _batches(root)
    assert len(batches) == 2  # one entry per group
    assert {len(b) for b in batches} == {BATCH - 1, 1}
    stored.get(("g", "late"), lambda: "late")
    stored.flush()
    assert len(_batches(root)) == 3
    stored.flush()  # nothing left to write
    assert len(_batches(root)) == 3


def test_a_group_is_read_once_and_reads_count_as_hits(stored, monkeypatch):
    stored.get(("g", 1), lambda: "one")
    stored.get(("g", 2), lambda: "two")
    stored.get(("other", 1), lambda: "other")
    stored.flush()
    stored.clear()
    loads = []
    real = StoredMemo._load
    monkeypatch.setattr(StoredMemo, "_load", lambda self, *a: loads.append(a[1]) or real(self, *a))
    assert stored.get(("g", 1), lambda: "recomputed") == "one"
    assert stored.get(("g", 2), lambda: "recomputed") == "two"
    assert stored.get(("g", 3), lambda: "three") == "three"
    assert loads == ["g"]
    assert stored.info() == {"enabled": True, "entries": 3, "hits": 2, "misses": 1}


def test_each_value_goes_to_the_cache_dir_it_was_computed_under(stored, tmp_path):
    stored.get(("g", 1), lambda: "first")
    use(current().replace(cache_dir=tmp_path / "elsewhere"))
    stored.get(("g", 2), lambda: "second")
    stored.flush()
    assert _batches(tmp_path / "scratch") == [{1: "first"}]
    assert _batches(tmp_path / "elsewhere" / "scratch") == [{2: "second"}]


def test_clear_forgets_unwritten_values(stored, tmp_path):
    stored.get(("g", 1), lambda: 1)
    stored.clear()
    stored.flush()
    assert not (tmp_path / "scratch").exists()


def test_what_bypasses_the_tier(stored, tmp_path):
    stored.get(("g", 1), lambda: 1, stored=False)
    stored.get(("g", object()), lambda: 2)  # no name outside the process
    with stored.disabled():
        stored.get(("g", 3), lambda: 3)
    use(current().replace(cache=False))
    stored.get(("g", 4), lambda: 4)
    stored.flush()
    assert not (tmp_path / "scratch").exists()
    assert stored.info()["misses"] == 3  # the disabled call is not counted


def test_a_source_edit_misses_the_old_batches(stored, monkeypatch):
    from repro.pipeline import fingerprint

    stored.get(("g", 1), lambda: "old")
    stored.flush()
    stored.clear()
    monkeypatch.setattr(fingerprint, "_CODE_DIGEST", "edited")
    assert stored.get(("g", 1), lambda: "new") == "new"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_writes_none_of_its_parents_values(stored, tmp_path):
    stored.get(("g", "parent"), lambda: "parent")
    pid = os.fork()
    if pid == 0:  # the child: compute one value of its own and write
        try:
            stored.get(("g", "child"), lambda: "child")
            stored.flush()
        finally:
            os._exit(0)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not exit")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0
    assert _batches(tmp_path / "scratch") == [{"child": "child"}]
    stored.flush()
    assert sorted(map(sorted, _batches(tmp_path / "scratch"))) == [["child"], ["parent"]]
