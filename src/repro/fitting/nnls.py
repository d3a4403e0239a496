"""NNLS fitting: non-negative least squares.

The paper's preferred fit — constraining all coefficients to be ≥ 0
keeps the weights physically interpretable (an instruction type cannot
have negative cost / negative speedup contribution) and, per slides
8/11, removes the false negatives that unconstrained L2 produces.
"""

from __future__ import annotations

import numpy as np

from .base import FitError, check_Xy


class NonNegativeLeastSquares:
    """min_w ||X w − y||₂  s.t.  w ≥ 0 (Lawson–Hanson via SciPy)."""

    name = "NNLS"

    def __init__(self):
        self._coef: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NonNegativeLeastSquares":
        import scipy.optimize  # here, so a process that fits nothing never loads SciPy

        X, y = check_Xy(X, y)
        try:
            self._coef, _ = scipy.optimize.nnls(X, y)
        except Exception as exc:  # pragma: no cover - scipy internal failure
            raise FitError(f"NNLS failed: {exc}") from exc
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._coef is None:
            raise RuntimeError("predict() before fit()")
        return np.asarray(X, dtype=np.float64) @ self._coef

    @property
    def coef_(self) -> np.ndarray:
        if self._coef is None:
            raise RuntimeError("coef_ before fit()")
        return self._coef

    @property
    def support_(self) -> np.ndarray:
        """Indices of the strictly positive fitted coefficients."""
        return np.nonzero(self.coef_ > 0.0)[0]
