"""The one in-process memo: counts, LRU order, identity keys, the
disabled mode, failed computations and single-flight."""

import gc
import sys
import threading
import time
import weakref

import pytest

from repro.memo import Identity, Memo


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
