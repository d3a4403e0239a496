"""Content fingerprints for persistent measurement-cache entries.

A cache entry is valid only while *everything* that shaped the
measurement is unchanged: the kernel's IR, the target, the vectorizer,
the jitter/seed pair, and the measurement code itself.  The fingerprint
folds all of those into one SHA-256 digest, so any drift — a retuned
timing table, an edited kernel, a different noise seed — lands in a
different cache slot instead of resurrecting a stale number.

:func:`kernel_fingerprint` is the narrower digest of one kernel's
content alone; the plan-space search memo keys on it.  It is memoized
per kernel object in :data:`FINGERPRINTS`.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ..ir.kernel import LoopKernel
from ..ir.printer import kernel_to_source
from ..memo import Identity, Memo

#: Bump when the cache entry layout (not the measurement semantics)
#: changes; semantic drift is covered by :func:`code_digest`.
PIPELINE_SCHEMA_VERSION = 1

_CODE_DIGEST: str | None = None

#: Kernel content digests by kernel object.
FINGERPRINTS = Memo(max_entries=1024)


def code_digest() -> str:
    """Digest of every ``repro`` source file, computed once per process.

    Measurement semantics live in code (timing tables, lowering rules,
    the functional executor), not in any versioned artifact — hashing
    the package source is the only invalidation signal that cannot go
    stale.  ~150 files hash in a few milliseconds.
    """
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        pkg_root = Path(__file__).resolve().parents[1]
        h = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            h.update(str(path.relative_to(pkg_root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _CODE_DIGEST = h.hexdigest()
    return _CODE_DIGEST


def measurement_fingerprint(
    kernel: LoopKernel,
    target_name: str,
    vectorizer: str,
    jitter: float,
    seed: int,
) -> str:
    """Stable hex key for one (kernel, target, vectorizer, noise) cell.

    The kernel enters through its printed IR (arrays, dtypes, trip
    counts, body) *and* its name: the body because it decides the
    measurement, the name because the jitter RNG is seeded from
    ``crc32(kernel.name)`` in :mod:`repro.sim.measure`.
    """
    text = "\n".join(
        [
            f"schema={PIPELINE_SCHEMA_VERSION}",
            f"code={code_digest()}",
            f"target={target_name}",
            f"vectorizer={vectorizer}",
            f"jitter={float(jitter)!r}",
            f"seed={int(seed)}",
            f"kernel-name={kernel.name}",
            kernel_to_source(kernel),
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def kernel_fingerprint(kernel: LoopKernel) -> str:
    """Content digest of a kernel (name + printed source), memoized."""
    return FINGERPRINTS.get(
        Identity(kernel),
        lambda: hashlib.sha256(
            (kernel.name + "\n" + kernel_to_source(kernel)).encode()
        ).hexdigest(),
    )
