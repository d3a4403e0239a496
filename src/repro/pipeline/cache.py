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

The root is the ``cache_dir`` setting; with the ``cache`` setting off
(``--no-cache``) there are no reads, no writes and no stat counting.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Optional

from ..settings import current
from ..store import MISS, Store
from .fingerprint import PIPELINE_SCHEMA_VERSION


class MeasurementCache:
    """On-disk cache of per-kernel measurement results."""

    def __init__(self, root=None, enabled: bool = True):
        self.root = Path(root) if root is not None else current().cache_dir
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
    """Process-wide cache per the ``cache_dir`` and ``cache`` settings."""
    global _DEFAULT
    want = (current().cache_dir, current().cache)
    if _DEFAULT is None or (_DEFAULT.root, _DEFAULT.enabled) != want:
        _DEFAULT = MeasurementCache(*want)
    return _DEFAULT
