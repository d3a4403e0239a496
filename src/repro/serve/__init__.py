"""Fault-tolerant vectorization-advisor service (ROADMAP item 1).

A long-lived, stdlib-only HTTP service answering "should this loop be
vectorized, and what speedup should I expect?" from the fitted cost
models — with a versioned model registry, per-request deadlines,
bounded-queue backpressure, a circuit breaker around the analysis
prepass, and a deterministic chaos gate proving that none of that
machinery can change a verdict.
"""

from .advisor import (
    Advisor,
    AdvisorError,
    InvalidRequest,
    canonical_verdict,
    kernel_from_payload,
    verdict_core,
)
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .registry import (
    ModelEntry,
    ModelRegistry,
    RegistryError,
    entry_from_model,
    entry_version,
    validate_entry,
)
from .server import AdvisorServer
from .workers import Ticket, WorkerPool

__all__ = [
    "Advisor",
    "AdvisorError",
    "InvalidRequest",
    "canonical_verdict",
    "kernel_from_payload",
    "verdict_core",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "ModelEntry",
    "ModelRegistry",
    "RegistryError",
    "entry_from_model",
    "entry_version",
    "validate_entry",
    "AdvisorServer",
    "Ticket",
    "WorkerPool",
]
