"""Cost-model interfaces and the dataset sample they consume.

A :class:`Sample` is one TSVC kernel's view for the modelling study:
the scalar and vector instruction-mix features, the VF, and the
measured timings.  Cost models implement ``predict_speedup(sample)``;
fitted models additionally implement ``fit(samples)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..sim.measure import MeasuredSample
from . import matrix
from .featurize import feature_vector

#: Floor for predicted/implied costs and speedups (guards divisions).
EPS = 1e-9


@dataclass(frozen=True)
class Sample:
    """One kernel × target datapoint of the study."""

    name: str
    category: str
    target: str
    vf: int
    scalar_features: np.ndarray  # per scalar iteration
    #: IR-level instruction mix of the vector block (what LLVM's cost
    #: model sees: one gather, one masked store, one vector intrinsic)
    vector_features: np.ndarray  # per vector iteration (VF elements)
    measured_speedup: float
    measured_scalar_cpi: float  # cycles per scalar iteration
    measured_vector_cpi: float  # cycles per vector iteration
    vector_bound: str = ""      # "compute" | "memory" | "recurrence"
    #: machine-lowered instruction mix (post-scalarization; used by the
    #: ablation benches to quantify the IR-vs-machine feature choice)
    lowered_features: Optional[np.ndarray] = None

    def with_speedup(self, speedup: float) -> "Sample":
        return replace(self, measured_speedup=speedup)


def sample_from_measurement(m: MeasuredSample, category: str = "") -> Sample:
    """Convert a measurement into the model-facing datapoint."""
    return Sample(
        name=m.kernel.name,
        category=category or m.kernel.category,
        target=m.target.name,
        vf=m.vf,
        scalar_features=feature_vector(m.scalar_stream),
        vector_features=feature_vector(m.ir_vector_stream),
        lowered_features=feature_vector(m.vector_stream),
        measured_speedup=m.speedup,
        measured_scalar_cpi=m.scalar_breakdown.per_iter,
        measured_vector_cpi=m.vector_breakdown.per_iter,
        vector_bound=m.vector_breakdown.bound,
    )


@runtime_checkable
class CostModel(Protocol):
    """Anything that predicts a vectorization speedup for a sample."""

    name: str

    def predict_speedup(self, sample: Sample) -> float: ...


class FittedModel(CostModel, Protocol):
    def fit(self, samples: Sequence[Sample]) -> "FittedModel": ...


def predict_all(model: CostModel, samples: Sequence[Sample]) -> np.ndarray:
    """Predicted speedup for every sample.

    Models exposing ``predict_batch`` (the built-in family) answer
    with one matrix product over the shared feature bundle; anything
    else falls back to the per-sample loop.
    """
    batch = getattr(model, "predict_batch", None)
    if batch is not None and len(samples) > 0:
        return np.asarray(batch(samples), dtype=np.float64)
    return np.array([model.predict_speedup(s) for s in samples])


def model_identity(model) -> tuple:
    """Everything but the fitted weights that decides ``model``'s predictions.

    The model's class and name (its label and regressor), its
    featurization, ``clip_to_vf``, and the regressor's class and
    hyperparameters.  A feature function enters by the key it is
    registered under in :mod:`.matrix`; an unregistered one enters as
    itself, so its model has no name outside this process (the engine
    memo keeps it in memory only).  Registry entries, which carry their
    featurization key and regressor name, describe themselves the same
    way.  The engine memo keys fits, LOOCV sweeps and reports on this;
    the plan-search fingerprint adds the weights.
    """
    featurization = getattr(model, "featurization", None)
    feature_fn = getattr(model, "feature_fn", None)
    if feature_fn is not None:
        featurization = matrix.featurizer_key(feature_fn) or feature_fn
    return (
        _class_name(model),
        getattr(model, "name", None),
        featurization,
        getattr(model, "clip_to_vf", None),
        _hyperparameters(getattr(model, "regressor", None)),
    )


def _class_name(obj) -> str:
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


def _hyperparameters(obj):
    """A regressor's class and public attributes, a nested regressor
    described alike (fitted state is private or ends in ``_``); any
    other value stands for itself."""
    if not (hasattr(obj, "fit") and hasattr(obj, "__dict__")):
        return obj
    return (
        _class_name(obj),
        tuple(
            (k, _hyperparameters(v))
            for k, v in sorted(vars(obj).items())
            if not (k.startswith("_") or k.endswith("_"))
        ),
    )


def measured_speedups(samples: Sequence[Sample]) -> np.ndarray:
    return np.array([s.measured_speedup for s in samples])
