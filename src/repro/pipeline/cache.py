"""Persistent, content-addressed measurement cache.

One entry per (kernel, target, vectorizer, jitter, seed) cell, keyed
by :func:`~repro.pipeline.fingerprint.measurement_fingerprint`: a
pickled payload in a :class:`~repro.store.Store` at
``<root>/measurements/<fp>``.  The cache is strictly an accelerator,
so its store is not durable: a corrupt, truncated, or mismatched entry
is deleted and recomputed, never raised, and deleting files (or the
whole directory) at any time is always safe.  The model registry and
the sweep checkpoints keep their own stores beside it
(``<root>/registry``, ``<root>/checkpoints``), which clearing the
cache leaves alone.

Configuration:

* ``REPRO_CACHE_DIR`` — cache root (default ``~/.cache/repro-vec``,
  honoring ``XDG_CACHE_HOME``);
* ``REPRO_CACHE=off`` (or ``0``/``false``/``no``) — bypass entirely:
  no reads, no writes, no stat counting.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Optional

from ..store import MISS, Store
from .fingerprint import PIPELINE_SCHEMA_VERSION

_OFF_VALUES = {"off", "0", "false", "no"}


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    base = Path(os.environ.get("XDG_CACHE_HOME") or "~/.cache").expanduser()
    return base / "repro-vec"


def cache_enabled_by_env() -> bool:
    return os.environ.get("REPRO_CACHE", "").strip().lower() not in _OFF_VALUES


class MeasurementCache:
    """On-disk cache of per-kernel measurement results."""

    def __init__(self, root=None, enabled: bool = True):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = enabled
        self.store = Store(
            self.root / "measurements",
            schema=f"measurement/{PIPELINE_SCHEMA_VERSION}",
            durable=False,
        )
        self.stats = self.store.stats

    def get(self, fp: str):
        """Payload for ``fp``, or the :data:`MISS` sentinel."""
        if not self.enabled:
            return MISS
        return self.store.get(fp, pickle.loads)

    def put(self, fp: str, payload) -> None:
        """Store ``payload``; a failed write counts in ``stats.write_errors``."""
        if self.enabled:
            self.store.put(
                fp, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        return self.store.clear()

    def __len__(self) -> int:
        return len(self.store.keys())


_DEFAULT: Optional[MeasurementCache] = None


def default_cache() -> MeasurementCache:
    """Process-wide cache honoring the ``REPRO_CACHE*`` environment."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = MeasurementCache(
            root=default_cache_dir(), enabled=cache_enabled_by_env()
        )
    return _DEFAULT


def set_default_cache(cache: Optional[MeasurementCache]) -> None:
    """Override (or with ``None``, reset) the process-wide cache."""
    global _DEFAULT
    _DEFAULT = cache
