"""Content fingerprints for persistent measurement-cache entries.

A cache entry is valid only while *everything* that shaped the
measurement is unchanged: the kernel's IR, the target, the vectorizer,
the jitter/seed pair, and the measurement code itself.  The fingerprint
folds all of those into one SHA-256 digest, so any drift — a retuned
timing table, an edited kernel, a different noise seed — lands in a
different cache slot instead of resurrecting a stale number.

:func:`kernel_fingerprint` is the narrower digest of one kernel's
content alone; the plan-space search memo keys on it.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from pathlib import Path

from ..ir.kernel import LoopKernel
from ..ir.printer import kernel_to_source

#: Bump when the cache entry layout (not the measurement semantics)
#: changes; semantic drift is covered by :func:`code_digest`.
PIPELINE_SCHEMA_VERSION = 1

_CODE_DIGEST: str | None = None

#: kernel_fingerprint memo, keyed by id(kernel); the kernel object is
#: stored in the value to pin its id while the entry is alive.
_FP_MEMO: "OrderedDict[int, tuple[LoopKernel, str]]" = OrderedDict()
_FP_MEMO_MAX = 1024


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
    key = id(kernel)
    hit = _FP_MEMO.get(key)
    if hit is not None and hit[0] is kernel:
        _FP_MEMO.move_to_end(key)
        return hit[1]
    digest = hashlib.sha256(
        (kernel.name + "\n" + kernel_to_source(kernel)).encode()
    ).hexdigest()
    _FP_MEMO[key] = (kernel, digest)
    while len(_FP_MEMO) > _FP_MEMO_MAX:
        _FP_MEMO.popitem(last=False)
    return digest
