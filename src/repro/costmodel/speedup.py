"""Speedup-target linear model (paper slide 7).

Instead of fitting block *costs* — whose targets vary over a large
interval — fit the measured *speedup* directly:

    S_est = Σ cᵢ · ωᵢ

with cᵢ the vector block's instruction-type counts.  Targets now live
in the small interval (0, VF], which fits markedly better (slide 8).
Predictions are clipped to that interval, matching the physical range
of a VF-wide vectorization.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..fitting.base import Regressor
from . import matrix
from .base import EPS, Sample


def vector_count_features(sample: Sample) -> np.ndarray:
    """Raw per-class instruction counts of the vector block only."""
    return sample.vector_features


def count_features(sample: Sample) -> np.ndarray:
    """Instruction counts of the scalar and vector blocks, concatenated.

    The paper's worked example (slide 6) writes one linear equation per
    *block* — the scalar original and its vectorized counterpart — so
    the speedup fit sees both mixes.  Empirically the scalar block's
    counts are what anchor the achievable speedup of small blocks
    (dropping them inflates false negatives dramatically).
    """
    return np.concatenate([sample.scalar_features, sample.vector_features])


matrix.register_featurizer(
    vector_count_features, "vector-counts", lambda b: b.vector_features
)
matrix.register_featurizer(
    count_features,
    "counts",
    lambda b: np.concatenate([b.scalar_features, b.vector_features], axis=1),
)


class SpeedupModel:
    """Linear speedup model over vector-block features."""

    def __init__(
        self,
        regressor: Regressor,
        feature_fn: Optional[Callable[[Sample], np.ndarray]] = None,
        clip_to_vf: bool = True,
        label: str = "speedup",
    ):
        self.regressor = regressor
        self.feature_fn = feature_fn or count_features
        self.clip_to_vf = clip_to_vf
        self.name = f"{label}-{regressor.name}"
        self._fitted = False

    def training_data(
        self, samples: Sequence[Sample]
    ) -> tuple[np.ndarray, np.ndarray]:
        # Registered featurizers draw from the shared matrix bundle
        # (built once per dataset fingerprint); custom feature_fns are
        # stacked per-sample exactly as before.  The returned arrays
        # may be shared — treat them as read-only.
        X = matrix.design_matrix(samples, self.feature_fn)
        y = matrix.target_vector(samples, "speedup")
        return X, y

    def fit(self, samples: Sequence[Sample]) -> "SpeedupModel":
        X, y = self.training_data(samples)
        self.regressor.fit(X, y)
        self._fitted = True
        return self

    def predict_speedup(self, sample: Sample) -> float:
        if not self._fitted:
            raise RuntimeError("predict before fit")
        raw = float(self.regressor.predict(self.feature_fn(sample)[None, :])[0])
        if self.clip_to_vf:
            return float(np.clip(raw, EPS, float(sample.vf)))
        return max(raw, EPS)

    def predict_batch(self, samples: Sequence[Sample]) -> np.ndarray:
        """All speedup predictions in one matrix product.

        Row-for-row this is ``[predict_speedup(s) for s in samples]``:
        the design matrix stacks the same per-sample feature rows and
        the clipping matches ``predict_speedup`` exactly.
        """
        if not self._fitted:
            raise RuntimeError("predict before fit")
        X = matrix.design_matrix(samples, self.feature_fn)
        raw = np.asarray(self.regressor.predict(X), dtype=np.float64)
        if self.clip_to_vf:
            vf = np.array([float(s.vf) for s in samples])
            return np.clip(raw, EPS, vf)
        return np.maximum(raw, EPS)

    @property
    def weights(self) -> np.ndarray:
        return self.regressor.coef_
