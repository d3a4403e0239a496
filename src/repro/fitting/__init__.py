"""Fitting backends: L2 least squares, NNLS, linear ε-SVR, scaling."""

from .base import FitError, Regressor, check_Xy, residual_norm
from .l2 import LeastSquares
from .nnls import NonNegativeLeastSquares
from .svr import (
    CERT_REL_GAP,
    LinearSVR,
    SVRWarmStats,
    svr_fold_objective,
    svr_warm_loocv,
)
from .scaling import ScaledRegressor, StandardScaler


def make_regressor(name: str, **kwargs) -> Regressor:
    """Regressor factory by the paper's method names: l2 | nnls | svr."""
    key = name.lower()
    if key == "l2":
        return LeastSquares(**kwargs)
    if key == "nnls":
        return NonNegativeLeastSquares(**kwargs)
    if key == "svr":
        return LinearSVR(**kwargs)
    raise ValueError(f"unknown fitting method {name!r} (use l2, nnls, or svr)")


__all__ = [
    "FitError",
    "Regressor",
    "check_Xy",
    "residual_norm",
    "LeastSquares",
    "NonNegativeLeastSquares",
    "LinearSVR",
    "CERT_REL_GAP",
    "SVRWarmStats",
    "svr_fold_objective",
    "svr_warm_loocv",
    "ScaledRegressor",
    "StandardScaler",
    "make_regressor",
]
