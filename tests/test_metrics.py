"""Metric and decision-policy tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.validation import (
    always_cycles,
    confusion,
    evaluate,
    mae,
    never_cycles,
    oracle_cycles,
    pearson,
    policy_cycles,
    rmse,
    spearman,
)

from tests.test_costmodel import mk_sample


class TestCorrelation:
    def test_perfect_positive(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
        assert spearman(x, x**3) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_constant_input_is_zero(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0
        assert spearman(np.arange(5.0), np.ones(5)) == 0.0

    def test_too_few_points(self):
        assert pearson(np.array([1.0]), np.array([2.0])) == 0.0

    def test_matches_scipy_with_ties(self):
        """The numpy correlations agree with ``scipy.stats`` (the
        reference they replace) on random data, rounded so that ties
        occur on both sides, to 1e-12."""
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 17, 64, 301):
            for _ in range(20):
                x = np.round(rng.normal(size=n), 1)
                y = np.round(0.5 * x + rng.normal(size=n), 1)
                if np.std(x) < 1e-12 or np.std(y) < 1e-12:
                    continue
                assert abs(
                    pearson(x, y) - scipy_stats.pearsonr(x, y).statistic
                ) <= 1e-12
                assert abs(
                    spearman(x, y) - scipy_stats.spearmanr(x, y).statistic
                ) <= 1e-12


class TestErrors:
    def test_rmse_mae(self):
        p = np.array([1.0, 2.0, 3.0])
        m = np.array([1.0, 4.0, 3.0])
        assert rmse(p, m) == pytest.approx(np.sqrt(4 / 3))
        assert mae(p, m) == pytest.approx(2 / 3)

    def test_zero_on_exact(self):
        x = np.arange(10.0)
        assert rmse(x, x) == 0.0


class TestConfusion:
    def test_quadrants(self):
        predicted = np.array([2.0, 2.0, 0.5, 0.5])
        measured = np.array([2.0, 0.5, 2.0, 0.5])
        c = confusion(predicted, measured)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
        assert c.accuracy == 0.5
        assert c.false_predictions == 2

    def test_counts_partition(self):
        rng = np.random.default_rng(0)
        p, m = rng.uniform(0, 4, 50), rng.uniform(0, 4, 50)
        c = confusion(p, m)
        assert c.total == 50

    def test_custom_threshold(self):
        p = np.array([1.5, 1.5])
        m = np.array([1.5, 1.5])
        c = confusion(p, m, threshold=2.0)
        assert c.tn == 2

    def test_evaluate_report(self):
        p = np.array([1.0, 2.0, 3.0])
        r = evaluate("m", p, p)
        assert r.pearson == pytest.approx(1.0)
        assert r.confusion.false_predictions == 0
        row = r.row()
        assert row["model"] == "m"
        assert set(row) >= {"pearson", "spearman", "rmse", "FP", "FN"}


class TestPolicies:
    def _samples(self):
        # kernel A: vectorization wins (1.0 -> 0.5/elem)
        # kernel B: vectorization loses (1.0 -> 2.0/elem)
        a = mk_sample(name="A", scpi=1.0, vcpi=2.0, vf=4)   # vec 0.5/elem
        b = mk_sample(name="B", scpi=1.0, vcpi=8.0, vf=4)   # vec 2.0/elem
        return [a, b]

    def test_reference_policies(self):
        samples = self._samples()
        assert never_cycles(samples).cycles == pytest.approx(2.0)
        assert always_cycles(samples).cycles == pytest.approx(2.5)
        oracle = oracle_cycles(samples)
        assert oracle.cycles == pytest.approx(1.5)
        assert oracle.vectorized == 1

    def test_model_policy(self):
        samples = self._samples()
        perfect = policy_cycles(samples, np.array([2.0, 0.5]))
        assert perfect.cycles == pytest.approx(oracle_cycles(samples).cycles)
        inverted = policy_cycles(samples, np.array([0.5, 2.0]))
        assert inverted.cycles == pytest.approx(3.0)

    def test_nan_predictions_fall_back_to_scalar(self):
        samples = self._samples()
        p = policy_cycles(samples, np.array([np.nan, np.nan]))
        assert p.cycles == pytest.approx(never_cycles(samples).cycles)

    def test_oracle_never_worse(self):
        rng = np.random.default_rng(3)
        samples = [
            mk_sample(name=f"s{i}", scpi=float(rng.uniform(1, 4)),
                      vcpi=float(rng.uniform(1, 16)), vf=4)
            for i in range(20)
        ]
        oracle = oracle_cycles(samples).cycles
        assert oracle <= never_cycles(samples).cycles + 1e-9
        assert oracle <= always_cycles(samples).cycles + 1e-9
        preds = rng.uniform(0, 4, 20)
        assert oracle <= policy_cycles(samples, preds).cycles + 1e-9


# -- property-based ------------------------------------------------------------

finite = st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False)


@given(
    arrays(np.float64, st.integers(3, 40), elements=finite),
)
@settings(max_examples=50, deadline=None)
def test_pearson_bounded(x):
    rng = np.random.default_rng(0)
    y = rng.uniform(0.01, 100.0, size=len(x))
    r = pearson(x, y)
    assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9


@given(arrays(np.float64, st.integers(2, 40), elements=finite))
@settings(max_examples=50, deadline=None)
def test_confusion_partitions(x):
    rng = np.random.default_rng(1)
    y = rng.uniform(0.01, 100.0, size=len(x))
    c = confusion(x, y)
    assert c.tp + c.fp + c.tn + c.fn == len(x)
    assert 0.0 <= c.accuracy <= 1.0


@given(arrays(np.float64, st.integers(2, 30), elements=finite))
@settings(max_examples=50, deadline=None)
def test_rmse_at_least_mae(x):
    rng = np.random.default_rng(2)
    y = rng.uniform(0.01, 100.0, size=len(x))
    assert rmse(x, y) >= mae(x, y) - 1e-12
