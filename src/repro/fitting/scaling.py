"""Feature scaling utilities.

Raw counts and rated fractions live on different scales; SVR in
particular benefits from standardized inputs.  The scaler follows the
fit/transform convention and composes with any regressor via
:class:`ScaledRegressor`.
"""

from __future__ import annotations

import numpy as np

from .base import Regressor, check_Xy


class StandardScaler:
    """Column-wise (x − μ)/σ with σ floored to keep constants finite."""

    def __init__(self, with_mean: bool = True):
        self.with_mean = with_mean
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        std = X.std(axis=0)
        self.scale_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("transform() before fit()")
        return (np.asarray(X, dtype=np.float64) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class ScaledRegressor:
    """Standardize features, then delegate to an inner regressor.

    Note scaling breaks the sign interpretation of coefficients, so the
    non-negative fits (NNLS, non-negative SVR) are used *unscaled* in
    the experiments; this wrapper exists for the unconstrained fits.
    """

    def __init__(self, inner: Regressor, with_mean: bool = True):
        self.inner = inner
        self.with_mean = with_mean
        self.name = f"scaled-{inner.name}"
        self._scaler = StandardScaler(with_mean=with_mean)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ScaledRegressor":
        X, y = check_Xy(X, y)
        self.inner.fit(self._scaler.fit_transform(X), y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.inner.predict(self._scaler.transform(X))

    @property
    def coef_(self) -> np.ndarray:
        return self.inner.coef_
