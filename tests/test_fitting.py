"""Fitting backend tests, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fitting import (
    FitError,
    LeastSquares,
    LinearSVR,
    NonNegativeLeastSquares,
    ScaledRegressor,
    StandardScaler,
    make_regressor,
    residual_norm,
)


def synthetic(n=60, d=6, seed=0, noise=0.0, nonneg=False):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 4, size=(n, d))
    w = rng.uniform(0.2, 2.0, size=d) if nonneg else rng.normal(0, 1, size=d)
    y = X @ w + noise * rng.normal(size=n)
    return X, y, w


class TestLeastSquares:
    def test_exact_recovery(self):
        X, y, w = synthetic()
        reg = LeastSquares().fit(X, y)
        np.testing.assert_allclose(reg.coef_, w, rtol=1e-8)

    def test_predict(self):
        X, y, _ = synthetic()
        reg = LeastSquares().fit(X, y)
        np.testing.assert_allclose(reg.predict(X), y, rtol=1e-8)

    def test_ridge_stabilizes_collinear(self):
        X, y, _ = synthetic(d=3)
        Xc = np.hstack([X, X[:, :1]])  # duplicate column
        reg = LeastSquares(ridge=1e-6).fit(Xc, y)
        assert np.all(np.isfinite(reg.coef_))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            LeastSquares().predict(np.ones((2, 2)))


class TestNNLS:
    def test_nonnegative_coefficients(self):
        X, y, _ = synthetic(nonneg=False)  # true weights partly negative
        reg = NonNegativeLeastSquares().fit(X, y)
        assert (reg.coef_ >= 0).all()

    def test_recovers_nonneg_truth(self):
        X, y, w = synthetic(nonneg=True)
        reg = NonNegativeLeastSquares().fit(X, y)
        np.testing.assert_allclose(reg.coef_, w, rtol=1e-6)

    def test_l2_residual_never_worse(self):
        X, y, _ = synthetic(nonneg=False, noise=0.5)
        l2 = LeastSquares().fit(X, y)
        nnls = NonNegativeLeastSquares().fit(X, y)
        assert residual_norm(l2, X, y) <= residual_norm(nnls, X, y) + 1e-12

    def test_support_is_positive_coefs(self):
        X, y, _ = synthetic(nonneg=False, noise=0.5)
        reg = NonNegativeLeastSquares().fit(X, y)
        assert np.array_equal(reg.support_, np.nonzero(reg.coef_ > 0)[0])


class TestSVR:
    def test_recovers_clean_linear(self):
        X, y, w = synthetic(noise=0.0)
        reg = LinearSVR(C=100.0, epsilon=0.01).fit(X, y)
        np.testing.assert_allclose(reg.coef_, w, atol=0.05)

    def test_robust_to_outliers(self):
        X, y, w = synthetic(n=80, noise=0.0)
        y_out = y.copy()
        y_out[:4] += 50.0  # gross outliers
        svr = LinearSVR(C=1.0, epsilon=0.1).fit(X, y_out)
        l2 = LeastSquares().fit(X, y_out)
        svr_err = np.linalg.norm(svr.coef_ - w)
        l2_err = np.linalg.norm(l2.coef_ - w)
        assert svr_err < l2_err

    def test_nonneg_bounds(self):
        X, y, _ = synthetic()
        reg = LinearSVR(nonneg=True).fit(X, y)
        assert (reg.coef_ >= -1e-12).all()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LinearSVR(C=0)
        with pytest.raises(ValueError):
            LinearSVR(epsilon=-1)

    def test_scale_invariance(self):
        """Column scaling must not change predictions (w rescales)."""
        X, y, _ = synthetic(noise=0.1)
        reg1 = LinearSVR().fit(X, y)
        scale = np.array([1.0, 10.0, 100.0, 0.1, 5.0, 1.0])
        reg2 = LinearSVR().fit(X * scale, y)
        np.testing.assert_allclose(
            reg1.predict(X), reg2.predict(X * scale), rtol=1e-2, atol=1e-2
        )


class TestValidation:
    def test_shape_checks(self):
        with pytest.raises(FitError):
            LeastSquares().fit(np.ones(3), np.ones(3))
        with pytest.raises(FitError):
            LeastSquares().fit(np.ones((3, 2)), np.ones(4))
        with pytest.raises(FitError):
            LeastSquares().fit(np.ones((0, 2)), np.ones(0))

    def test_nonfinite_rejected(self):
        X = np.ones((3, 2))
        y = np.array([1.0, np.nan, 2.0])
        with pytest.raises(FitError):
            LeastSquares().fit(X, y)


class TestScaler:
    def test_standardizes(self):
        X = np.random.default_rng(0).normal(5, 3, size=(100, 4))
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1, atol=1e-10)

    def test_constant_column_safe(self):
        X = np.ones((10, 2))
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))

    def test_scaled_regressor_roundtrip(self):
        X, y, _ = synthetic()
        reg = ScaledRegressor(LeastSquares(), with_mean=False).fit(X, y)
        np.testing.assert_allclose(reg.predict(X), y, rtol=1e-6)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("l2", LeastSquares),
        ("L2", LeastSquares),
        ("nnls", NonNegativeLeastSquares),
        ("svr", LinearSVR),
    ])
    def test_names(self, name, cls):
        assert isinstance(make_regressor(name), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_regressor("xgboost")


# -- property-based tests ------------------------------------------------------


@st.composite
def regression_problem(draw):
    n = draw(st.integers(min_value=8, max_value=40))
    d = draw(st.integers(min_value=1, max_value=6))
    X = draw(
        arrays(
            np.float64,
            (n, d),
            elements=st.floats(0.0, 10.0, allow_nan=False),
        )
    )
    w = draw(
        arrays(
            np.float64,
            (d,),
            elements=st.floats(-3.0, 3.0, allow_nan=False),
        )
    )
    return X, w


@given(regression_problem())
@settings(max_examples=40, deadline=None)
def test_l2_residual_is_minimal(problem):
    """No weight vector beats the least-squares solution."""
    X, w_true = problem
    rng = np.random.default_rng(0)
    y = X @ w_true + rng.normal(0, 0.1, size=len(X))
    reg = LeastSquares().fit(X, y)
    base = residual_norm(reg, X, y)
    for _ in range(5):
        w_alt = reg.coef_ + rng.normal(0, 0.1, size=len(reg.coef_))
        alt = np.sqrt(np.mean((X @ w_alt - y) ** 2))
        assert alt >= base - 1e-9


@given(regression_problem())
@settings(max_examples=40, deadline=None)
def test_nnls_always_nonnegative(problem):
    X, w_true = problem
    y = X @ w_true
    reg = NonNegativeLeastSquares().fit(X, y)
    assert (reg.coef_ >= 0).all()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_exact_interpolation_of_linear_truth(seed):
    """All three fitters recover a non-negative linear ground truth."""
    X, y, w = synthetic(seed=seed, nonneg=True)
    for reg in (LeastSquares(), NonNegativeLeastSquares(), LinearSVR(C=100, epsilon=0.01)):
        reg.fit(X, y)
        np.testing.assert_allclose(reg.predict(X), y, atol=0.2)
