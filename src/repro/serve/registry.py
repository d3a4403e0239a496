"""Versioned, corruption-safe storage for fitted advisor models.

The advisor service must never serve a verdict from weights it cannot
trust.  This registry stores fitted speedup-model weights as JSON
entries versioned by *(dataset fingerprint, featurization key, target,
vectorizer, regressor)* — the exact provenance that decides what a
weight vector means — under one durability contract:

* **atomic, durable installs** — each model key's files live in one
  durable :class:`~repro.store.Store`, which installs them by tmp file
  + fsync + rename and verifies each against the sha256 in its header
  on load;
* **corruption-safe loads** — a torn entry, a flipped bit, or a
  foreign schema is *evicted* and the registry falls back to the
  newest remaining valid version (or heals the active version from
  the in-memory last-good copy), never raising into the request path;
* **validation gate = automatic rollback** — ``publish`` moves the
  ``CURRENT`` pointer only for a candidate that reproduces its own
  held-out validation predictions bit-exactly (and beats an RMSE bound
  against the held-out measurements); a candidate that fails the gate
  is discarded and the last good version keeps serving.  That gate is
  the rollback: there is no operator step that re-activates an older
  version;
* **atomic hot-reload** — ``CURRENT`` is one atomically replaced
  pointer entry per model key; a running service re-reads it on demand
  (``/v1/reload`` or a registry mtime change) and swaps models between
  requests, never mid-request.

Layout under the root (``REPRO_SERVE_REGISTRY`` or
``<cache>/registry``), one store per model key::

    <target>--<vectorizer>/
        entry-<version>.json         # weights + provenance + validation
        CURRENT                      # the active version id
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..costmodel import matrix
from ..costmodel.base import EPS, Sample
from ..store import MISS, Store

#: Bump when the entry layout changes; foreign-schema entries are
#: treated as invalid (evicted on load) rather than misread.
REGISTRY_SCHEMA = 1

#: Held-out rows embedded in each entry for the validation gate.
VALIDATION_ROWS = 8

#: Default RMSE bound for the validation gate (measured speedups live
#: in (0, VF] ≈ (0, 8]; a healthy NNLS fit lands well under 1.0).
DEFAULT_MAX_RMSE = 1.5


class RegistryError(RuntimeError):
    """A registry operation failed (gate rejection, no valid entry, …)."""


@dataclass(frozen=True)
class ModelEntry:
    """One fitted model: weights plus everything that gives them meaning."""

    version: str
    dataset_fingerprint: str
    featurization: str
    target: str
    vectorizer: str
    regressor: str
    weights: tuple[float, ...]
    clip_to_vf: bool
    #: Held-out validation block: feature rows, the predictions the
    #: publisher computed from these very weights (bit-exact replay
    #: check), and the measured speedups (fit-quality check).
    validation_rows: tuple[tuple[float, ...], ...] = ()
    validation_expected: tuple[float, ...] = ()
    validation_measured: tuple[float, ...] = ()
    validation_vf: tuple[float, ...] = ()

    @property
    def model_key(self) -> str:
        return model_key(self.target, self.vectorizer)

    def predict(self, X: np.ndarray, vf: np.ndarray) -> np.ndarray:
        """Batch speedup predictions: one matrix product, VF-clipped.

        Mirrors ``SpeedupModel.predict_batch`` exactly — the registry
        serves the same floats the experiment engine would.
        """
        X = np.asarray(X, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != w.shape[0]:
            raise RegistryError(
                f"feature shape {X.shape} does not match "
                f"{w.shape[0]} weights of {self.version}"
            )
        raw = X @ w
        if self.clip_to_vf:
            return np.clip(raw, EPS, np.asarray(vf, dtype=np.float64))
        return np.maximum(raw, EPS)

    def to_dict(self) -> dict:
        return {
            "schema": REGISTRY_SCHEMA,
            "version": self.version,
            "dataset_fingerprint": self.dataset_fingerprint,
            "featurization": self.featurization,
            "target": self.target,
            "vectorizer": self.vectorizer,
            "regressor": self.regressor,
            "weights": list(self.weights),
            "clip_to_vf": self.clip_to_vf,
            "validation": {
                "rows": [list(r) for r in self.validation_rows],
                "expected": list(self.validation_expected),
                "measured": list(self.validation_measured),
                "vf": list(self.validation_vf),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelEntry":
        if data.get("schema") != REGISTRY_SCHEMA:
            raise RegistryError(
                f"entry schema {data.get('schema')!r} != {REGISTRY_SCHEMA}"
            )
        val = data.get("validation", {})
        return cls(
            version=data["version"],
            dataset_fingerprint=data["dataset_fingerprint"],
            featurization=data["featurization"],
            target=data["target"],
            vectorizer=data["vectorizer"],
            regressor=data["regressor"],
            weights=tuple(float(w) for w in data["weights"]),
            clip_to_vf=bool(data["clip_to_vf"]),
            validation_rows=tuple(
                tuple(float(x) for x in row) for row in val.get("rows", ())
            ),
            validation_expected=tuple(
                float(x) for x in val.get("expected", ())
            ),
            validation_measured=tuple(
                float(x) for x in val.get("measured", ())
            ),
            validation_vf=tuple(float(x) for x in val.get("vf", ())),
        )


def model_key(target: str, vectorizer: str) -> str:
    return f"{target}--{vectorizer}"


#: The store key of a model key's active-version pointer.
CURRENT = "CURRENT"


def entry_name(version: str) -> str:
    """The store key (and file name) of one published version."""
    return f"entry-{version}.json"


def entry_version(
    dataset_fingerprint: str,
    featurization: str,
    target: str,
    vectorizer: str,
    regressor: str,
) -> str:
    """Deterministic version id from the provenance tuple."""
    blob = "|".join(
        (
            dataset_fingerprint,
            featurization,
            target,
            vectorizer,
            regressor,
            f"schema={REGISTRY_SCHEMA}",
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def entry_from_model(
    model,
    samples: Sequence[Sample],
    *,
    target: str,
    vectorizer: str,
    featurization: str = "counts",
) -> ModelEntry:
    """Package a fitted ``SpeedupModel`` into a publishable entry.

    The last ``VALIDATION_ROWS`` samples become the held-out block:
    their feature rows, the model's own predictions on them (replayed
    bit-exactly by the gate), and their measured speedups.
    """
    samples = list(samples)
    if not samples:
        raise RegistryError("cannot package a model without samples")
    fp = matrix.samples_fingerprint(samples)
    holdout = samples[-min(VALIDATION_ROWS, len(samples)):]
    feature_fn = matrix.featurizer_by_key(featurization)
    rows = np.stack([feature_fn(s) for s in holdout]).astype(np.float64)
    vf = np.array([float(s.vf) for s in holdout])
    entry = ModelEntry(
        version=entry_version(
            fp, featurization, target, vectorizer, model.regressor.name
        ),
        dataset_fingerprint=fp,
        featurization=featurization,
        target=target,
        vectorizer=vectorizer,
        regressor=model.regressor.name,
        weights=tuple(float(w) for w in np.asarray(model.weights)),
        clip_to_vf=bool(getattr(model, "clip_to_vf", True)),
        validation_rows=tuple(tuple(map(float, r)) for r in rows),
        validation_measured=tuple(
            float(s.measured_speedup) for s in holdout
        ),
        validation_vf=tuple(float(v) for v in vf),
    )
    expected = entry.predict(rows, vf)
    return ModelEntry(
        **{
            **entry.__dict__,
            "validation_expected": tuple(float(p) for p in expected),
        }
    )


def validate_entry(
    entry: ModelEntry, *, max_rmse: Optional[float] = None
) -> list[str]:
    """The held-out validation gate; returns the reasons it failed.

    Three checks, cheapest first: the weights must be finite and typed
    for the declared featurization; replaying the held-out predictions
    from the stored weights must reproduce the publisher's floats
    bit-exactly (a corrupted or miswritten weight cannot hide); and the
    held-out RMSE against the measured speedups must clear ``max_rmse``
    (a model poisoned by bad training data cannot ship).
    """
    if max_rmse is None:
        env = os.environ.get("REPRO_SERVE_MAX_RMSE")
        max_rmse = float(env) if env else DEFAULT_MAX_RMSE
    reasons: list[str] = []
    w = np.asarray(entry.weights, dtype=np.float64)
    if w.size == 0 or not np.all(np.isfinite(w)):
        reasons.append("weights empty or non-finite")
        return reasons
    try:
        matrix.featurizer_by_key(entry.featurization)
    except KeyError as exc:
        reasons.append(str(exc))
        return reasons
    if not entry.validation_rows:
        reasons.append("no held-out validation block")
        return reasons
    rows = np.asarray(entry.validation_rows, dtype=np.float64)
    if rows.shape[1] != w.size:
        reasons.append(
            f"validation rows have {rows.shape[1]} features, "
            f"weights have {w.size}"
        )
        return reasons
    vf = np.asarray(entry.validation_vf, dtype=np.float64)
    try:
        replayed = entry.predict(rows, vf)
    except RegistryError as exc:
        reasons.append(str(exc))
        return reasons
    expected = np.asarray(entry.validation_expected, dtype=np.float64)
    if expected.shape != replayed.shape or not np.array_equal(
        replayed, expected
    ):
        reasons.append("held-out predictions do not replay bit-exactly")
    measured = np.asarray(entry.validation_measured, dtype=np.float64)
    if measured.size == replayed.size and measured.size > 0:
        rmse = float(np.sqrt(np.mean((replayed - measured) ** 2)))
        if not np.isfinite(rmse) or rmse > max_rmse:
            reasons.append(
                f"held-out RMSE {rmse:.3f} exceeds bound {max_rmse:.3f}"
            )
    return reasons


def default_registry_dir() -> Path:
    env = os.environ.get("REPRO_SERVE_REGISTRY")
    if env:
        return Path(env).expanduser()
    from ..pipeline.cache import default_cache_dir

    return default_cache_dir() / "registry"


@dataclass
class RegistryStats:
    publishes: int = 0
    rejected: int = 0
    reloads: int = 0
    heals: int = 0
    #: model key -> its store, whose ``corrupt`` count is the evictions.
    key_stores: dict = field(default_factory=dict, repr=False)

    @property
    def corrupt_evictions(self) -> int:
        return sum(st.stats.corrupt for st in list(self.key_stores.values()))

    def as_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "key_stores"}
        return {**out, "corrupt_evictions": self.corrupt_evictions}


class ModelRegistry:
    """On-disk model store with in-memory last-good fallback.

    One instance serves many threads; every public method is
    lock-protected.  The in-memory ``_active`` map is the serving copy
    — disk is consulted on publish, reload, and recovery, never on the
    per-request hot path.
    """

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_registry_dir()
        self._lock = threading.RLock()
        #: model key → the entry requests are served from.
        self._active: dict[str, ModelEntry] = {}
        #: model key → last entry that ever passed the gate (the
        #: heal source; survives disk corruption).
        self._last_good: dict[str, ModelEntry] = {}
        self._stores: dict[str, Store] = {}
        self.stats = RegistryStats(key_stores=self._stores)

    # -- disk ---------------------------------------------------------------

    def store_for(self, key: str) -> Store:
        """The durable store holding one model key's entries and ``CURRENT``.

        Its schema names the model key, so a file copied in from another
        key's directory fails verification.
        """
        with self._lock:
            store = self._stores.get(key)
            if store is None:
                store = self._stores[key] = Store(
                    self.root / key,
                    schema=f"model-registry/{REGISTRY_SCHEMA}/{key}",
                    durable=True,
                )
            return store

    def _keys_on_disk(self) -> list[str]:
        try:
            return [
                p.name
                for p in self.root.iterdir()
                if p.is_dir() and not p.name.startswith(".")
            ]
        except OSError:
            return []

    def _install(self, entry: ModelEntry) -> bool:
        """Write ``entry`` and point ``CURRENT`` at it; ``False`` on failure."""
        store = self.store_for(entry.model_key)
        blob = json.dumps(entry.to_dict(), sort_keys=True).encode()
        return store.put(entry_name(entry.version), blob) and store.put(
            CURRENT, entry.version.encode()
        )

    def _read_entry(self, key: str, version: str) -> Optional[ModelEntry]:
        """A verified entry, or ``None`` (the store evicts corruption)."""
        entry = self.store_for(key).get(
            entry_name(version),
            lambda blob: ModelEntry.from_dict(json.loads(blob)),
        )
        return None if entry is MISS else entry

    # -- publish ------------------------------------------------------------

    def publish(
        self, entry: ModelEntry, *, max_rmse: Optional[float] = None
    ) -> ModelEntry:
        """Gate, install, and activate a candidate entry.

        A candidate that fails the held-out gate is rejected with a
        :class:`RegistryError` naming every failed check, and the
        currently-active version keeps serving — the caller observes
        an automatic rollback, not an outage.
        """
        with self._lock:
            reasons = validate_entry(entry, max_rmse=max_rmse)
            if reasons:
                self.stats.rejected += 1
                keeping = self._active.get(entry.model_key)
                kept = f"; keeping {keeping.version}" if keeping else ""
                raise RegistryError(
                    f"candidate {entry.version} failed the validation gate: "
                    + "; ".join(reasons)
                    + kept
                )
            if not self._install(entry):
                raise RegistryError(
                    f"could not install {entry.version} under {self.root}"
                )
            self._active[entry.model_key] = entry
            self._last_good[entry.model_key] = entry
            self.stats.publishes += 1
            return entry

    def _versions_on_disk(self, key: str) -> list[str]:
        """Version ids present on disk, newest mtime first."""
        store = self.store_for(key)
        names = [
            n
            for n in store.keys()
            if n.startswith("entry-") and n.endswith(".json")
        ]
        names.sort(
            key=lambda n: (store.path(n).stat().st_mtime, n), reverse=True
        )
        return [n[len("entry-"):-len(".json")] for n in names]

    # -- serving ------------------------------------------------------------

    def current(self, target: str, vectorizer: str) -> Optional[ModelEntry]:
        """The entry serving this (target, vectorizer), or ``None``.

        Pure in-memory once loaded; call :meth:`reload` to pick up
        external changes (the server wires that to ``/v1/reload``).
        """
        key = model_key(target, vectorizer)
        with self._lock:
            entry = self._active.get(key)
            if entry is not None:
                return entry
            return self._load_current(key)

    def _load_current(self, key: str) -> Optional[ModelEntry]:
        """Resolve ``CURRENT`` from disk, recovering from corruption.

        Recovery ladder: (1) the pointed-at entry, if its bytes verify;
        (2) the in-memory last-good copy, *re-installed to disk* so the
        store heals; (3) the newest other valid version on disk;
        (4) nothing — the advisor serves its static fallback.
        """
        version = self.store_for(key).get(CURRENT, bytes.decode)
        if version is not MISS:
            entry = self._read_entry(key, version)
            if entry is not None and not validate_entry(entry):
                self._active[key] = entry
                self._last_good.setdefault(key, entry)
                return entry
        good = self._last_good.get(key)
        if good is not None:
            # Disk lost or corrupted the active entry but this process
            # still holds the weights: re-install them atomically.
            self._install(good)
            self._active[key] = good
            self.stats.heals += 1
            return good
        for version in self._versions_on_disk(key):
            entry = self._read_entry(key, version)
            if entry is not None and not validate_entry(entry):
                self.store_for(key).put(CURRENT, entry.version.encode())
                self._active[key] = entry
                self._last_good[key] = entry
                return entry
        return None

    def reload(self) -> dict[str, Optional[str]]:
        """Atomic hot-reload: re-resolve ``CURRENT`` for every known key.

        Returns ``{model key: active version or None}``.  The swap is
        per-key atomic — a request in flight keeps the entry object it
        already grabbed; the next request sees the new one.
        """
        with self._lock:
            self.stats.reloads += 1
            keys = set(self._active) | set(self._keys_on_disk())
            out: dict[str, Optional[str]] = {}
            for key in sorted(keys):
                self._active.pop(key, None)
                entry = self._load_current(key)
                out[key] = entry.version if entry is not None else None
            return out

    def versions(self, target: str, vectorizer: str) -> list[dict]:
        """Metadata for every valid on-disk version of a model key."""
        key = model_key(target, vectorizer)
        with self._lock:
            active = self._active.get(key)
            out = []
            for version in self._versions_on_disk(key):
                entry = self._read_entry(key, version)
                if entry is None:
                    continue
                out.append(
                    {
                        "version": version,
                        "dataset_fingerprint": entry.dataset_fingerprint,
                        "featurization": entry.featurization,
                        "regressor": entry.regressor,
                        "weights": len(entry.weights),
                        "active": active is not None
                        and active.version == version,
                    }
                )
            return out

