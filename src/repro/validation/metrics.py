"""Evaluation metrics for speedup predictions.

The paper reports three kinds of numbers: the correlation between
estimated and measured speedup (its headline metric), the count of
false vectorization decisions (false positives = vectorized though
slower, false negatives = skipped though faster), and the execution
time that results from following a model's decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Speedup threshold above which vectorization is the right decision.
BENEFIT_THRESHOLD = 1.0


def pearson(predicted: np.ndarray, measured: np.ndarray) -> float:
    """Pearson correlation coefficient between prediction and truth."""
    predicted = np.asarray(predicted, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    if len(predicted) < 2 or np.std(predicted) < 1e-12 or np.std(measured) < 1e-12:
        return 0.0
    # The steps of scipy.stats.pearsonr: scale each centred vector by
    # its largest magnitude before the norm (no premature overflow),
    # clip rounding overshoot, and a pair correlates exactly ±1.
    xm = predicted - predicted.mean()
    ym = measured - measured.mean()
    xmax = np.max(np.abs(xm))
    ymax = np.max(np.abs(ym))
    normxm = xmax * np.sqrt(np.sum((xm / xmax) ** 2))
    normym = ymax * np.sqrt(np.sum((ym / ymax) ** 2))
    r = float(np.clip(np.dot(xm / normxm, ym / normym), -1.0, 1.0))
    return float(round(r)) if len(predicted) == 2 else r


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    group = np.cumsum(starts) - 1
    bounds = np.r_[np.flatnonzero(starts), len(values)]
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def spearman(predicted: np.ndarray, measured: np.ndarray) -> float:
    """Rank correlation — robust to monotone miscalibration."""
    predicted = np.asarray(predicted, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    if len(predicted) < 2 or np.std(predicted) < 1e-12 or np.std(measured) < 1e-12:
        return 0.0
    if np.isnan(predicted).any() or np.isnan(measured).any():
        return float("nan")
    # One observation per row, as scipy.stats.spearmanr lays it out.
    ranks = np.column_stack(
        (_average_ranks(predicted), _average_ranks(measured))
    )
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def rmse(predicted: np.ndarray, measured: np.ndarray) -> float:
    d = np.asarray(predicted) - np.asarray(measured)
    return float(np.sqrt(np.mean(d * d)))


def mae(predicted: np.ndarray, measured: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(predicted) - np.asarray(measured))))


@dataclass(frozen=True)
class Confusion:
    """Vectorize/don't-vectorize decision quality.

    A *false positive* predicts benefit where measurement shows none
    (code runs slower after vectorization); a *false negative* predicts
    no benefit and forgoes real speedup.
    """

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def false_predictions(self) -> int:
        return self.fp + self.fn

    def __str__(self) -> str:
        return (
            f"TP={self.tp} FP={self.fp} TN={self.tn} FN={self.fn} "
            f"(accuracy {self.accuracy:.1%})"
        )


def confusion(
    predicted: np.ndarray,
    measured: np.ndarray,
    threshold: float = BENEFIT_THRESHOLD,
) -> Confusion:
    predicted = np.asarray(predicted, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    pred_pos = predicted > threshold
    meas_pos = measured > threshold
    return Confusion(
        tp=int(np.sum(pred_pos & meas_pos)),
        fp=int(np.sum(pred_pos & ~meas_pos)),
        tn=int(np.sum(~pred_pos & ~meas_pos)),
        fn=int(np.sum(~pred_pos & meas_pos)),
    )


@dataclass(frozen=True)
class EvalReport:
    """All headline metrics for one model on one sample set."""

    model: str
    pearson: float
    spearman: float
    rmse: float
    mae: float
    confusion: Confusion

    def row(self) -> dict:
        return {
            "model": self.model,
            "pearson": round(self.pearson, 3),
            "spearman": round(self.spearman, 3),
            "rmse": round(self.rmse, 3),
            "FP": self.confusion.fp,
            "FN": self.confusion.fn,
            "accuracy": round(self.confusion.accuracy, 3),
        }


def evaluate(model_name: str, predicted, measured) -> EvalReport:
    predicted = np.asarray(predicted, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    return EvalReport(
        model=model_name,
        pearson=pearson(predicted, measured),
        spearman=spearman(predicted, measured),
        rmse=rmse(predicted, measured),
        mae=mae(predicted, measured),
        confusion=confusion(predicted, measured),
    )
