"""The one in-process memo: compute a value once per key and share it.

Every process-wide memo in the package is a :class:`Memo` (DESIGN.md
§11 lists the nine, with their keys and bounds).  This module alone
decides how a memo is locked, bounded, counted, cleared and switched
off; its users only choose the key and the bound.  A key that must
compare by object identity wraps the object in :class:`Identity`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Hashable, Iterator, Optional, TypeVar

V = TypeVar("V")

_MISSING = object()


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
            value = compute()
            with self._lock:
                self.misses += 1
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
