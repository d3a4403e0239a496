"""Measurement pipeline: supervised suite sweeps over a persistent cache.

The package the experiment layer builds datasets through — see
DESIGN.md §"Measurement pipeline" for the architecture and
``python -m repro.experiments --help`` for the runtime knobs.
"""

from .build import measure_suite, resolve_workers
from .corpus import CorpusResult, measure_corpus
from .faultinject import (
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    parse_faults,
)
from .resilience import (
    FailureReport,
    KernelFailure,
    RetryPolicy,
    SweepError,
    pipeline_diagnostics,
    run_supervised,
)
from .cache import MISS, MeasurementCache, default_cache
from .fingerprint import (
    PIPELINE_SCHEMA_VERSION,
    code_digest,
    kernel_fingerprint,
    measurement_fingerprint,
)

__all__ = [
    "measure_suite",
    "resolve_workers",
    "CorpusResult",
    "measure_corpus",
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "parse_faults",
    "FailureReport",
    "KernelFailure",
    "RetryPolicy",
    "SweepError",
    "pipeline_diagnostics",
    "run_supervised",
    "MISS",
    "MeasurementCache",
    "default_cache",
    "PIPELINE_SCHEMA_VERSION",
    "code_digest",
    "kernel_fingerprint",
    "measurement_fingerprint",
]
