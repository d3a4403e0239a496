"""Measurement pipeline: supervised suite sweeps over a persistent cache.

The package the experiment layer builds datasets through — see
DESIGN.md §"Measurement pipeline" for the architecture and
``python -m repro.experiments --help`` for the runtime knobs.
"""

from .build import (
    PipelineConfig,
    configure,
    measure_suite,
    resolve_timeout,
    resolve_workers,
)
from .corpus import CorpusResult, measure_corpus
from .faultinject import (
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    parse_faults,
    plan_from_env,
)
from .resilience import (
    FailureReport,
    KernelFailure,
    RetryPolicy,
    SweepError,
    default_checkpoint_dir,
    pipeline_diagnostics,
    run_supervised,
)
from .cache import (
    MISS,
    MeasurementCache,
    cache_enabled_by_env,
    default_cache,
    default_cache_dir,
    set_default_cache,
)
from .fingerprint import (
    PIPELINE_SCHEMA_VERSION,
    code_digest,
    kernel_fingerprint,
    measurement_fingerprint,
)

__all__ = [
    "PipelineConfig",
    "configure",
    "measure_suite",
    "resolve_timeout",
    "resolve_workers",
    "CorpusResult",
    "measure_corpus",
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "parse_faults",
    "plan_from_env",
    "FailureReport",
    "KernelFailure",
    "RetryPolicy",
    "SweepError",
    "default_checkpoint_dir",
    "pipeline_diagnostics",
    "run_supervised",
    "MISS",
    "MeasurementCache",
    "cache_enabled_by_env",
    "default_cache",
    "default_cache_dir",
    "set_default_cache",
    "PIPELINE_SCHEMA_VERSION",
    "code_digest",
    "kernel_fingerprint",
    "measurement_fingerprint",
]
