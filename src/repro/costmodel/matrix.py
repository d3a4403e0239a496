"""Shared feature-matrix cache: materialize (X, y, vf) once per dataset.

Every hot path of the experiment suite — ``fit``, ``predict_all``,
``loocv_predictions``, the decision policies — used to re-walk the
``Sample`` list and re-run the per-sample featurizer for every model it
touched.  The feature matrices only depend on the *dataset content*,
not on which model asks, so this module materializes them once per
(dataset fingerprint, featurization, target kind) and hands out the
shared arrays.

Contract:

* :func:`samples_fingerprint` hashes everything a matrix can depend on
  (kernel names, targets, VFs, measurements, raw feature bytes), so
  any change to the sample list — including ``Sample.with_speedup``
  jitter replays — yields a new fingerprint and a fresh bundle.
* Cached arrays are **shared**: consumers must treat them as
  immutable.  Everything handed out is marked read-only; derive a
  writable copy (``arr.copy()``) before mutating.
* Featurizers are registered by *function object* (see
  :func:`register_featurizer`).  Unregistered callables — ad-hoc
  lambdas in tests, user extensions — fall back to the per-sample loop
  and are never cached, so custom models keep their exact semantics.
* ``REPRO_MATRIX_CACHE=0`` (or :func:`matrix_cache_disabled`) disables
  the cross-call memo; bundles are then rebuilt per call, which is the
  seed-path behavior the benchmarks compare against.
* ``REPRO_MATRIX_CACHE_DIR`` adds an on-disk tier for warm starts
  across processes (the advisor service uses it).  Writes are
  serialized to a tmp file and installed with ``os.replace``, digest
  recorded in a sha256 sidecar, and loads are corruption-safe: a torn
  or tampered bundle is evicted and rebuilt from the samples, never
  served and never fatal.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

#: Bundles kept in the process-wide LRU (suites touch 2–3 datasets;
#: the slack absorbs test fixtures without unbounded growth).
CACHE_CAPACITY = 16

_LOCK = threading.Lock()
_BUNDLES: "OrderedDict[str, MatrixBundle]" = OrderedDict()
_ENABLED = os.environ.get("REPRO_MATRIX_CACHE", "1") != "0"
_HITS = 0
_MISSES = 0


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def samples_fingerprint(samples: Sequence) -> str:
    """Content hash of everything a feature/target matrix depends on."""
    h = hashlib.sha1()
    h.update(str(len(samples)).encode())
    for s in samples:
        h.update(s.name.encode())
        h.update(s.target.encode())
        h.update(np.asarray(s.scalar_features, dtype=np.float64).tobytes())
        h.update(np.asarray(s.vector_features, dtype=np.float64).tobytes())
        if s.lowered_features is not None:
            h.update(np.asarray(s.lowered_features, dtype=np.float64).tobytes())
        else:
            h.update(b"-")
    meta = np.array(
        [
            (
                float(s.vf),
                s.measured_speedup,
                s.measured_scalar_cpi,
                s.measured_vector_cpi,
            )
            for s in samples
        ],
        dtype=np.float64,
    )
    h.update(meta.tobytes())
    return h.hexdigest()


@dataclass
class MatrixBundle:
    """The stacked per-dataset arrays every model draws from.

    ``derived`` holds lazily-built matrices keyed by featurization or
    target kind ("X:rated", "y:speedup", …) so each is computed once
    per dataset no matter how many models consume it.
    """

    fingerprint: str
    n: int
    vf: np.ndarray
    measured: np.ndarray
    scalar_cpi: np.ndarray
    vector_cpi: np.ndarray
    scalar_features: np.ndarray
    vector_features: np.ndarray
    _derived: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def derived(
        self, key: str, build: Callable[["MatrixBundle"], np.ndarray]
    ) -> np.ndarray:
        """The matrix for ``key``, built on first request."""
        with self._lock:
            arr = self._derived.get(key)
            if arr is None:
                arr = _readonly(np.asarray(build(self), dtype=np.float64))
                self._derived[key] = arr
        return arr


def _build_bundle(samples: Sequence, fingerprint: str) -> MatrixBundle:
    return MatrixBundle(
        fingerprint=fingerprint,
        n=len(samples),
        vf=_readonly(np.array([float(s.vf) for s in samples])),
        measured=_readonly(np.array([s.measured_speedup for s in samples])),
        scalar_cpi=_readonly(
            np.array([s.measured_scalar_cpi for s in samples])
        ),
        vector_cpi=_readonly(
            np.array([s.measured_vector_cpi for s in samples])
        ),
        scalar_features=_readonly(
            np.stack([s.scalar_features for s in samples]).astype(np.float64)
        ),
        vector_features=_readonly(
            np.stack([s.vector_features for s in samples]).astype(np.float64)
        ),
    )


def get_bundle(samples: Sequence) -> MatrixBundle:
    """The (cached) matrix bundle for a sample list.

    With the cache disabled a fresh bundle is built per call — same
    values, no sharing across calls.  With ``REPRO_MATRIX_CACHE_DIR``
    set, a memory miss consults the on-disk tier before rebuilding, and
    a rebuild is persisted for the next process.
    """
    global _HITS, _MISSES
    if not samples:
        raise ValueError("cannot bundle an empty sample list")
    fp = samples_fingerprint(samples)
    if not _ENABLED:
        return _build_bundle(samples, fp)
    with _LOCK:
        bundle = _BUNDLES.get(fp)
        if bundle is not None:
            _BUNDLES.move_to_end(fp)
            _HITS += 1
            return bundle
        _MISSES += 1
    # Build outside the lock (stacking ~100×24 floats is cheap but the
    # fingerprint walk above already cost more than a dict race would).
    bundle = _load_disk_bundle(fp)
    if bundle is None:
        bundle = _build_bundle(samples, fp)
        _save_disk_bundle(bundle)
    with _LOCK:
        bundle = _BUNDLES.setdefault(fp, bundle)
        _BUNDLES.move_to_end(fp)
        while len(_BUNDLES) > CACHE_CAPACITY:
            _BUNDLES.popitem(last=False)
    return bundle


# -- on-disk tier (corruption-safe, same contract as the model registry) -----

#: Bump when the serialized layout changes; foreign-schema files are
#: evicted and rebuilt, never deserialized into the wrong shape.
DISK_SCHEMA = 1

#: Array fields persisted per bundle (``derived`` stays lazy/in-memory).
_DISK_FIELDS = (
    "vf",
    "measured",
    "scalar_cpi",
    "vector_cpi",
    "scalar_features",
    "vector_features",
)


def disk_cache_dir() -> Optional[Path]:
    """The on-disk bundle directory, or ``None`` when the tier is off."""
    env = os.environ.get("REPRO_MATRIX_CACHE_DIR")
    if not env:
        return None
    return Path(env).expanduser()


def _disk_paths(root: Path, fp: str) -> tuple[Path, Path]:
    path = root / f"bundle-{fp}.pkl"
    return path, path.with_suffix(".pkl.sha256")


def _evict_disk_bundle(root: Path, fp: str) -> None:
    for path in _disk_paths(root, fp):
        try:
            path.unlink()
        except OSError:
            pass


def _load_disk_bundle(fp: str) -> Optional[MatrixBundle]:
    """A verified on-disk bundle, or ``None`` (evicting anything corrupt).

    A torn write, a flipped bit, a missing sidecar, or a foreign schema
    all count as a miss: the files are evicted and the caller rebuilds
    from the samples — the warm start degrades, nothing poisons it.
    """
    root = disk_cache_dir()
    if root is None:
        return None
    path, sidecar = _disk_paths(root, fp)
    try:
        blob = path.read_bytes()
        recorded = sidecar.read_text().strip()
        if hashlib.sha256(blob).hexdigest() != recorded:
            raise ValueError("sha256 mismatch")
        payload = pickle.loads(blob)
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != DISK_SCHEMA
            or payload.get("fingerprint") != fp
        ):
            raise ValueError("foreign schema or fingerprint")
        arrays = {
            key: _readonly(np.asarray(payload[key])) for key in _DISK_FIELDS
        }
        return MatrixBundle(fingerprint=fp, n=int(payload["n"]), **arrays)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, pickle.UnpicklingError, EOFError):
        _evict_disk_bundle(root, fp)
        return None


def _save_disk_bundle(bundle: MatrixBundle) -> None:
    """Atomically persist a bundle (tmp + ``os.replace``, sidecar last).

    The sidecar is written *after* the payload lands, so a reader never
    sees a digest without its bytes; an unwritable directory degrades
    to no persistence.
    """
    root = disk_cache_dir()
    if root is None:
        return
    payload = {
        "schema": DISK_SCHEMA,
        "fingerprint": bundle.fingerprint,
        "n": bundle.n,
    }
    for key in _DISK_FIELDS:
        payload[key] = np.asarray(getattr(bundle, key))
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    path, sidecar = _disk_paths(root, bundle.fingerprint)
    try:
        root.mkdir(parents=True, exist_ok=True)
        for target, data in (
            (path, blob),
            (sidecar, hashlib.sha256(blob).hexdigest().encode()),
        ):
            tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
    except OSError:
        pass


# -- featurizer registry -----------------------------------------------------

#: feature_fn → (derived-matrix key, batch builder over a bundle).
_FEATURIZERS: dict = {}
#: featurization key → feature_fn (the registry/advisor lookup: model
#: weights are versioned by this key, so a stored model can recover the
#: exact row builder it was fitted with).
_FEATURIZERS_BY_KEY: dict[str, Callable] = {}


def register_featurizer(
    feature_fn: Callable,
    key: str,
    batch: Callable[[MatrixBundle], np.ndarray],
) -> None:
    """Teach the cache to batch-build ``feature_fn``'s design matrix.

    ``batch(bundle)`` must return exactly ``np.stack([feature_fn(s)
    for s in samples])`` — row-for-row equality is what lets the loop
    and matrix paths interchange bit-identically.
    """
    _FEATURIZERS[feature_fn] = (f"X:{key}", batch)
    _FEATURIZERS_BY_KEY[key] = feature_fn


def featurizer_by_key(key: str) -> Callable:
    """The feature function registered under a featurization key.

    Raises ``KeyError`` naming the known keys — a model registry entry
    recorded under an unknown featurization must fail loudly, not
    silently featurize differently than it was fitted.
    """
    try:
        return _FEATURIZERS_BY_KEY[key]
    except KeyError:
        known = ", ".join(sorted(_FEATURIZERS_BY_KEY))
        raise KeyError(
            f"unknown featurization {key!r}; registered: {known}"
        ) from None


def featurization_keys() -> tuple[str, ...]:
    return tuple(sorted(_FEATURIZERS_BY_KEY))


def design_matrix(samples: Sequence, feature_fn: Callable) -> np.ndarray:
    """The stacked feature matrix for a featurizer over ``samples``.

    Registered featurizers come from the shared bundle; unknown ones
    are stacked per-sample, uncached.
    """
    reg = _FEATURIZERS.get(feature_fn)
    if reg is None:
        return np.stack([feature_fn(s) for s in samples])
    key, batch = reg
    return get_bundle(samples).derived(key, batch)


def target_vector(samples: Sequence, kind: str) -> np.ndarray:
    """The shared target vector of the given kind ("speedup", …)."""
    bundle = get_bundle(samples)
    if kind == "speedup":
        return bundle.measured
    builder = _TARGETS.get(kind)
    if builder is None:
        raise KeyError(f"unknown target kind {kind!r}")
    return bundle.derived(f"y:{kind}", builder)


#: target kind → batch builder (populated by the model modules).
_TARGETS: dict = {}


def register_target(kind: str, batch: Callable[[MatrixBundle], np.ndarray]) -> None:
    _TARGETS[kind] = batch


# -- cache control -----------------------------------------------------------


def clear_matrix_cache() -> None:
    """Drop every cached bundle (fingerprints recompute from scratch)."""
    global _HITS, _MISSES
    with _LOCK:
        _BUNDLES.clear()
        _HITS = 0
        _MISSES = 0


def matrix_cache_info() -> dict:
    with _LOCK:
        return {
            "enabled": _ENABLED,
            "bundles": len(_BUNDLES),
            "hits": _HITS,
            "misses": _MISSES,
        }


@contextmanager
def matrix_cache_disabled() -> Iterator[None]:
    """Temporarily rebuild bundles per call (seed-path emulation)."""
    global _ENABLED
    prior = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = prior
