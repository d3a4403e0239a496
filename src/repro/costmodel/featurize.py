"""Feature extraction: instruction streams → model feature vectors.

The paper's models are linear in per-instruction-type counts of the
*vectorized* basic block (slide 5), optionally replaced by the type's
share of the block ("rated instruction count", slide 9).  Features here
are the per-iteration class counts of an :class:`MStream` with
prologue/epilogue amortized, laid out in the fixed
:data:`repro.targets.classes.FEATURE_ORDER`.
"""

from __future__ import annotations

import numpy as np

from ..codegen.minstr import MStream
from ..targets.classes import FEATURE_ORDER, IClass

FEATURE_NAMES: tuple[str, ...] = tuple(c.value for c in FEATURE_ORDER)
N_FEATURES = len(FEATURE_ORDER)


def feature_vector(stream: MStream, include_overhead: bool = True) -> np.ndarray:
    """Per-iteration weighted class counts of ``stream``."""
    return counts_vector(stream.counts(include_overhead=include_overhead))


def counts_vector(counts: dict[IClass, float]) -> np.ndarray:
    """Class counts (as :meth:`MStream.counts` gives them) as a feature row."""
    return np.array(
        [counts.get(c, 0.0) for c in FEATURE_ORDER], dtype=np.float64
    )


def rated(features: np.ndarray) -> np.ndarray:
    """Composition features: each class as a fraction of the block.

    ``S_est = Σ (cᵢ / c_total) · ωᵢ`` — this exposes arithmetic
    intensity (a block that is 60% memory ops looks different from one
    that is 20% memory ops even when the raw counts scale together).
    """
    arr = np.asarray(features, dtype=np.float64)
    total = arr.sum(axis=-1, keepdims=True)
    safe = np.where(total > 0, total, 1.0)
    return arr / safe


def features_matrix(streams: list[MStream]) -> np.ndarray:
    return np.stack([feature_vector(s) for s in streams])


def describe(features: np.ndarray, min_count: float = 1e-9) -> str:
    """Human-readable non-zero feature summary (for reports)."""
    parts = [
        f"{name}={val:.2f}"
        for name, val in zip(FEATURE_NAMES, np.asarray(features))
        if abs(val) > min_count
    ]
    return ", ".join(parts)


def class_count(features: np.ndarray, iclass: IClass) -> float:
    return float(np.asarray(features)[FEATURE_ORDER.index(iclass)])
