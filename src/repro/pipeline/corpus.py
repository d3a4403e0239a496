"""Resumable sweeps over arbitrary kernel corpora.

``measure_corpus`` sweeps a generated corpus an order of magnitude
larger than the TSVC suite as contiguous *blocks*, one ``measure_suite``
call each, with its own retry budget and checkpoint
(namespaced per block, so an interrupted corpus sweep resumes without
replaying finished blocks).

A block holds at most as many kernels as the process-wide
:class:`~repro.analysis.framework.passmanager.AnalysisManager` keeps.
``measure_suite`` runs the static prepass over its whole kernel set
before it measures any of it; over a larger set the manager's LRU would
evict the early kernels' analyses before their measurement asks for
them again.

Bit-identity with one ``measure_suite`` call is a theorem, not an
aspiration: per-kernel measurements depend only on ``(kernel name,
spec)`` — noise is seeded from ``crc32(name)``, never from worker count
or arrival order — and blocks are contiguous runs of the input order,
so concatenating block outputs reproduces the single-call output
exactly.  The chaos harness (``repro.experiments chaos --corpus``)
asserts this under injected faults.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..analysis.framework.passmanager import default_manager
from .build import measure_suite
from .cache import MeasurementCache
from .faultinject import FaultPlan
from .resilience import FailureReport, RetryPolicy

__all__ = ["CorpusResult", "measure_corpus"]


@dataclass
class CorpusResult:
    """One ``measure_corpus`` invocation: merged payloads and failures."""

    samples: list
    failures: list
    report: FailureReport

    @property
    def quarantined_names(self) -> list[str]:
        return self.report.names()


def _blocks(names: list[str]) -> list[list[str]]:
    """Contiguous near-even blocks, none larger than the manager holds."""
    bound = max(1, default_manager().max_kernels)
    count = -(-len(names) // bound)
    base, extra = divmod(len(names), max(1, count))
    blocks, lo = [], 0
    for k in range(count):
        hi = lo + base + (1 if k < extra else 0)
        blocks.append(names[lo:hi])
        lo = hi
    return blocks


def _merge_report(into: FailureReport, part: FailureReport) -> None:
    into.quarantined.extend(part.quarantined)
    into.retries += part.retries
    into.pool_rebuilds += part.pool_rebuilds
    into.degraded_to_serial = into.degraded_to_serial or part.degraded_to_serial


def measure_corpus(
    names: Sequence[str],
    spec,
    *,
    workers: Optional[int] = None,
    cache: Optional[MeasurementCache] = None,
    prepass: Optional[bool] = None,
    timeout: Optional[float] = None,
    max_attempts: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Union[FaultPlan, str, None] = None,
    checkpoint_dir=None,
    resume: Optional[bool] = None,
) -> CorpusResult:
    """Sweep ``names`` (suite and/or generated kernels) for ``spec``.

    Every name must resolve through :func:`repro.tsvc.get_kernel` —
    suite names directly, generated ``gx…`` names via the corpus
    generator.  Blocks always run with ``partial=True`` semantics:
    quarantines are collected into the merged :class:`FailureReport`
    rather than aborting the remaining blocks.
    """
    from ..tsvc import get_kernel

    names = list(names)
    blocks = _blocks(names)
    digest = hashlib.sha256("\0".join(names).encode()).hexdigest()[:12]
    result = CorpusResult(samples=[], failures=[], report=FailureReport())
    for k, block in enumerate(blocks):
        samples, failures, part = measure_suite(
            spec,
            workers=workers,
            cache=cache,
            prepass=prepass,
            timeout=timeout,
            max_attempts=max_attempts,
            retry=retry,
            partial=True,
            resume=resume,
            checkpoint_dir=checkpoint_dir,
            faults=faults,
            kernels=[get_kernel(n) for n in block],
            journal_tag=f"corpus:{digest}:{k + 1}/{len(blocks)}",
        )
        result.samples.extend(samples)
        result.failures.extend(failures)
        _merge_report(result.report, part)
    return result
