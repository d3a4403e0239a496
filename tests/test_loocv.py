"""Cross-validation harness tests."""

import numpy as np
import pytest

from repro.costmodel import RatedSpeedupModel, SpeedupModel
from repro.fitting import LeastSquares, NonNegativeLeastSquares
from repro.validation import kfold_predictions, loocv_predictions
from repro.validation.loocv import fast_loocv_eligible

from tests.test_costmodel import feat, mk_sample


def linear_truth_samples(n=25, seed=0):
    """Samples whose speedups are exactly linear in vector counts."""
    rng = np.random.default_rng(seed)
    w = {"load": 0.6, "add": 0.4, "mul": 0.3, "store": 0.2}
    out = []
    for i in range(n):
        counts = {k: float(rng.integers(1, 4)) for k in w}
        v = feat(**counts)
        speedup = sum(w[k] * counts[k] for k in w)
        out.append(
            mk_sample(name=f"s{i}", scalar=feat(load=1), vector=v, speedup=speedup)
        )
    return out


def test_loocv_exact_on_linear_truth():
    samples = linear_truth_samples()
    preds = loocv_predictions(
        lambda: SpeedupModel(
            LeastSquares(),
            feature_fn=lambda s: s.vector_features,
            clip_to_vf=False,
        ),
        samples,
    )
    measured = np.array([s.measured_speedup for s in samples])
    np.testing.assert_allclose(preds, measured, atol=1e-6)


def test_loocv_one_prediction_per_sample():
    samples = linear_truth_samples(12)
    preds = loocv_predictions(
        lambda: SpeedupModel(LeastSquares(), feature_fn=lambda s: s.vector_features),
        samples,
    )
    assert len(preds) == 12
    assert np.isfinite(preds).all()


def test_loocv_does_not_peek(monkeypatch):
    """The held-out sample must not be in any training fold."""
    samples = linear_truth_samples(8)
    seen = []

    class SpyModel:
        name = "spy"

        def fit(self, train):
            seen.append({s.name for s in train})
            return self

        def predict_speedup(self, s):
            return 1.0

    loocv_predictions(SpyModel, samples)
    for i, train_names in enumerate(seen):
        assert samples[i].name not in train_names
        assert len(train_names) == 7


def test_kfold_covers_everything():
    samples = linear_truth_samples(20)
    preds = kfold_predictions(
        lambda: SpeedupModel(
            LeastSquares(),
            feature_fn=lambda s: s.vector_features,
            clip_to_vf=False,
        ),
        samples,
        k=5,
    )
    assert np.isfinite(preds).all()
    measured = np.array([s.measured_speedup for s in samples])
    np.testing.assert_allclose(preds, measured, atol=1e-6)


def test_kfold_invalid_k():
    samples = linear_truth_samples(5)
    with pytest.raises(ValueError):
        kfold_predictions(lambda: SpeedupModel(LeastSquares()), samples, k=1)
    with pytest.raises(ValueError):
        kfold_predictions(lambda: SpeedupModel(LeastSquares()), samples, k=6)


def test_failed_fold_yields_nan():
    samples = linear_truth_samples(6)

    class FailingModel:
        name = "failing"

        def fit(self, train):
            from repro.fitting import FitError

            raise FitError("nope")

        def predict_speedup(self, s):  # pragma: no cover
            return 1.0

    preds = loocv_predictions(FailingModel, samples)
    assert np.isnan(preds).all()


# -- fast path (hat-matrix identity) ----------------------------------------


def l2_factories():
    """Every model shape the fast path claims to handle."""
    return [
        lambda: SpeedupModel(LeastSquares()),
        lambda: SpeedupModel(LeastSquares(), clip_to_vf=False),
        lambda: SpeedupModel(LeastSquares(ridge=0.25)),
        lambda: RatedSpeedupModel(LeastSquares()),
    ]


def test_eligibility_is_l2_only():
    assert fast_loocv_eligible(SpeedupModel(LeastSquares()))
    assert fast_loocv_eligible(RatedSpeedupModel(LeastSquares(ridge=1.0)))
    assert not fast_loocv_eligible(SpeedupModel(NonNegativeLeastSquares()))

    class NotAModel:
        name = "other"

    assert not fast_loocv_eligible(NotAModel())


@pytest.mark.parametrize("factory", l2_factories())
def test_fast_matches_naive_on_synthetic(factory):
    samples = linear_truth_samples(30, seed=3)
    fast = loocv_predictions(factory, samples)
    naive = loocv_predictions(factory, samples, fast=False)
    np.testing.assert_allclose(fast, naive, atol=1e-8)


@pytest.mark.parametrize("spec_name", ["arm", "x86"])
@pytest.mark.parametrize("factory", l2_factories())
def test_fast_matches_naive_on_suite(spec_name, factory):
    """Acceptance cross-check: identical to the refit loop on real data."""
    from repro.experiments import ARM_LLV, X86_SLP, build_dataset

    ds = build_dataset(ARM_LLV if spec_name == "arm" else X86_SLP)
    fast = loocv_predictions(factory, ds.samples)
    naive = loocv_predictions(factory, ds.samples, fast=False)
    assert np.isfinite(fast).all()
    np.testing.assert_allclose(fast, naive, atol=1e-8)


def test_fast_applies_vf_clipping():
    samples = linear_truth_samples(20, seed=1)
    preds = loocv_predictions(lambda: SpeedupModel(LeastSquares()), samples)
    vfs = np.array([float(s.vf) for s in samples])
    assert (preds <= vfs).all()
    assert (preds > 0).all()


def test_fast_handles_unit_leverage_rows():
    """A sample with a unique feature direction has leverage ≈ 1; the
    fast path must hand it to the refit loop instead of dividing by 0."""
    samples = linear_truth_samples(12, seed=4)
    # One sample is the only user of the 'div' class.
    odd = mk_sample(
        name="unique", scalar=feat(load=1), vector=feat(div=5.0), speedup=1.5
    )
    mixed = samples + [odd]
    fast = loocv_predictions(
        lambda: SpeedupModel(
            LeastSquares(), feature_fn=lambda s: s.vector_features
        ),
        mixed,
    )
    naive = loocv_predictions(
        lambda: SpeedupModel(
            LeastSquares(), feature_fn=lambda s: s.vector_features
        ),
        mixed,
        fast=False,
    )
    np.testing.assert_allclose(fast, naive, atol=1e-8)


def test_fast_two_samples_minimum():
    samples = linear_truth_samples(2, seed=5)
    fast = loocv_predictions(lambda: SpeedupModel(LeastSquares()), samples)
    naive = loocv_predictions(
        lambda: SpeedupModel(LeastSquares()), samples, fast=False
    )
    np.testing.assert_allclose(fast, naive, atol=1e-8)
