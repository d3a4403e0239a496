"""The one memo mechanism: compute a value once per key and share it.

Every process-wide memo in the package is a :class:`Memo` (DESIGN.md
§11 lists them, with their keys and bounds).  This module alone
decides how a memo is locked, bounded, counted, cleared and switched
off; its users only choose the key and the bound.  A key that must
compare by object identity wraps the object in :class:`Identity`.
A :class:`StoredMemo` also keeps its values on disk, so that a later
process reads them instead of computing them again.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Hashable, Iterator, Optional, TypeVar

from .settings import current
from .store import MISS, Store

V = TypeVar("V")

_MISSING = object()

#: Values a :class:`StoredMemo` leaves unwritten before it writes them.
BATCH = 64


class Identity:
    """A key equal only to a key for the very same object.

    It holds the object, so the object cannot be collected and its id
    reused while an entry keyed by it is alive.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: object) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Identity) and other.obj is self.obj


class Memo:
    """A thread-safe compute-once map, optionally bounded (LRU).

    ``get(key, compute)`` returns the stored value for ``key`` or runs
    ``compute()`` and stores its result.  Concurrent first callers of
    one key share a single computation: the first takes the key's lock
    and computes, the rest wait on it and then read the stored value.
    Distinct keys never wait on each other.  A ``compute`` that raises
    stores nothing, and the next caller computes afresh.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self.max_entries = max_entries
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()
        #: key -> lock held by the thread computing that key.
        self._pending: dict = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], V]) -> V:
        return self._get(key, compute, None)

    def _get(self, key, compute, fill):
        """:meth:`get`.  On a miss, ``fill(key, compute)`` (if given)
        returns the value and whether it was computed rather than read."""
        if not self.enabled:
            return compute()
        while True:
            with self._lock:
                value = self._entries.get(key, _MISSING)
                if value is not _MISSING:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return value
                pending = self._pending.get(key)
                if pending is None:
                    pending = self._pending[key] = threading.Lock()
                    pending.acquire()
                    break
            with pending:  # another thread computes this key: wait, look again
                pass
        try:
            value, computed = (compute(), True) if fill is None else fill(key, compute)
            with self._lock:
                if computed:
                    self.misses += 1
                else:
                    self.hits += 1
                self._entries[key] = value
                while self.max_entries is not None and len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
            return value
        finally:
            with self._lock:
                del self._pending[key]
            pending.release()

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0

    def info(self) -> dict:
        with self._lock:
            return {
                "enabled": self.enabled,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Compute on every call and store nothing while inside."""
        prior, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = prior


def _plain(value) -> bool:
    """Whether ``value`` is built of values that print alike in every process."""
    if isinstance(value, tuple):
        return all(_plain(part) for part in value)
    return isinstance(value, (str, int, float, type(None)))


def _batch(body: bytes) -> dict:
    batch = pickle.loads(body)
    if not isinstance(batch, dict):
        raise ValueError("a stored batch is not a dict")
    return batch


class StoredMemo(Memo):
    """A :class:`Memo` over a non-durable store at ``<cache_dir>/<name>``.

    ``split(key)`` cuts a key into a *group* and an *item*.  A process
    reads a group's stored batches once, at that group's first memory
    miss; a read value counts as a hit, and only a computation as a
    miss.  Computed values wait until :data:`BATCH` of them are
    unwritten or the interpreter exits normally; then, or on
    :meth:`flush`, the values of each (cache dir, group) become one
    :class:`~repro.store.Store` entry, named by the SHA-256 of
    ``schema``, :func:`~repro.pipeline.fingerprint.code_digest` and the
    group, plus a unique suffix.  A source edit or a schema bump thus
    misses instead of reading a stale value; a damaged entry is evicted
    by the store and its values are computed again.  Only the process
    that computed a value writes it, to the cache dir it was computed
    under.

    The tier is bypassed by the ``cache`` setting (``--no-cache``), by
    :meth:`disabled`, by ``get(..., stored=False)`` and by a key whose
    group or item holds anything but plain values (str, int, float,
    None and tuples of them), which have no name outside the process.
    """

    def __init__(
        self,
        name: str,
        *,
        schema: int,
        split: Callable[[Hashable], tuple[Hashable, Hashable]],
    ) -> None:
        super().__init__()
        self.name = name
        self.schema = schema
        self._split = split
        self._stores: dict[Path, Store] = {}
        #: (root, group) -> values read from its batches and not yet asked for.
        self._read: dict = {}
        #: (root, group) -> values computed here and not yet written.
        self._unwritten: dict = {}
        self._count = 0
        #: The process whose values ``_unwritten`` holds.
        self._pid = os.getpid()
        self._tier_lock = threading.Lock()
        atexit.register(self.flush)

    def get(self, key: Hashable, compute: Callable[[], V], *, stored: bool = True) -> V:
        """:meth:`Memo.get`; ``stored=False`` keeps this call off the tier."""
        fill = self._fill if stored and current().cache else None
        return self._get(key, compute, fill)

    def store(self, root: Optional[Path] = None) -> Store:
        """The tier's store under ``root``, by default the current cache dir's."""
        if root is None:
            root = current().cache_dir / self.name
        store = self._stores.get(root)
        if store is None:
            store = self._stores.setdefault(
                root, Store(root, schema=f"{self.name}/{self.schema}", durable=False)
            )
        return store

    def _fill(self, key, compute):
        group, item = self._split(key)
        if not (_plain(group) and _plain(item)):
            return compute(), True
        cell = (current().cache_dir / self.name, group)
        with self._tier_lock:
            read = self._read.get(cell)
            if read is None:
                read = self._read[cell] = self._load(*cell)
            value = read.pop(item, _MISSING)
        if value is not _MISSING:
            return value, False
        value = compute()
        with self._tier_lock:
            self._drop_inherited()
            self._unwritten.setdefault(cell, {})[item] = value
            self._count += 1
            due = self._count >= BATCH
        if due:
            self.flush()
        return value, True

    def _entry_name(self, group) -> str:
        from .pipeline.fingerprint import code_digest  # pipeline imports this module

        text = f"{self.schema}|{code_digest()}|{group!r}"
        return hashlib.sha256(text.encode()).hexdigest()

    def _load(self, root: Path, group) -> dict:
        store = self.store(root)
        prefix = self._entry_name(group) + "-"
        values: dict = {}
        for name in sorted(store.keys()):
            if name.startswith(prefix):
                batch = store.get(name, _batch)
                if batch is not MISS:
                    values.update(batch)
        return values

    def _drop_inherited(self) -> None:
        """Forget unwritten values a forked child inherited: they are
        its parent's to write.  Call with the tier lock held."""
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._unwritten, self._count = {}, 0

    def flush(self) -> None:
        """Write every unwritten value, one entry per (cache dir, group)."""
        with self._tier_lock:
            self._drop_inherited()
            cells, self._unwritten, self._count = self._unwritten, {}, 0
        for (root, group), values in cells.items():
            name = f"{self._entry_name(group)}-{os.urandom(6).hex()}"
            body = pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)
            self.store(root).put(name, body)

    def clear(self) -> None:
        """Drop every entry and zero the counters, and forget the batches
        read and the values not yet written: the memo then stands as a
        new process's would, over the same stores."""
        super().clear()
        with self._tier_lock:
            self._read.clear()
            self._unwritten, self._count = {}, 0
