"""The measurement sweep: suite × spec → samples, cached and supervised.

``measure_suite`` is the one hot path every experiment, bench, and
example funnels through.  Its results are bit-identical however a
sweep runs:

1. **persistent cache** — each kernel's result is looked up by content
   fingerprint before any work is dispatched (see :mod:`.cache`);
2. **serial by default** — cache misses are measured one after another
   in this process;
3. **determinism** — per-kernel measurement noise is seeded from
   ``crc32(kernel.name)`` independently of sweep order, so serial,
   pooled, and cached builds all produce the same floats.

Every sweep runs under the supervisor in :mod:`.resilience`: bounded
retries, quarantine, and checkpoint/resume.  It starts a process pool
only when the sweep needs a process it can kill or lose: a per-kernel
deadline (``timeout``), or an active fault plan with more than one
worker.  Workers receive kernel *names* and rebuild from the registry,
so nothing unpicklable crosses the boundary.  The pool width resolves
as: explicit argument > the ``workers`` setting > ``os.cpu_count()``,
capped at the number of pending (uncached) kernels so no idle process
is ever spawned.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from functools import partial
from typing import TYPE_CHECKING, Optional, Union

from ..analysis.framework.diagnostics import Severity
from ..analysis.framework.lint import lint_kernel
from ..analysis.framework.passmanager import default_manager
from ..costmodel.base import Sample, sample_from_measurement
from ..ir.verify import VerificationError, verify_kernel
from ..memo import Identity, Memo
from ..settings import current
from ..sim.measure import measure_kernel
from ..targets.registry import get_target
from ..tsvc.suite import all_kernels, get_kernel
from ..vectorize.plan import VectorizationFailure
from ..store import MISS, Store
from . import faultinject
from .cache import MeasurementCache, default_cache
from .faultinject import FaultPlan
from .fingerprint import (
    PIPELINE_SCHEMA_VERSION,
    code_digest,
    measurement_fingerprint,
)
from .resilience import (
    PASS_NAME,
    SUITE_LOC,
    FailureReport,
    RetryPolicy,
    SweepError,
    pipeline_diagnostics,
    run_supervised,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.dataset import DatasetSpec


def resolve_workers(
    explicit: Optional[int] = None, *, pending: Optional[int] = None
) -> int:
    """Pool width: explicit, else the ``workers`` setting, else the CPU
    count; always at least 1.  ``pending`` (when given) caps the count
    at the number of kernels actually waiting, so a 64-worker request
    over 3 cache misses spawns 3 processes.
    """
    workers = explicit if explicit is not None else current().workers
    workers = max(1, int(workers)) if workers is not None else os.cpu_count() or 1
    if pending is not None:
        workers = min(workers, max(1, pending))
    return workers


#: Kernel objects that passed verify + lint + range check, so the check
#: runs once per kernel object per process.
PREPASSED = Memo()


def static_prepass(kernels) -> None:
    """Verify + lint + range-check every kernel before measurement.

    Structural problems and lint *errors* are fatal — a malformed
    kernel must never reach the measurement cache.  A kernel the
    abstract interpreter classifies ``proven-unsafe`` — an unguarded
    access whose exact static index range leaves the wrap-legal
    window, so a full run must fault — is rejected here too, before
    the executor runs it.  Results are memoized (per kernel object,
    with the framework's analysis results shared) so repeated sweeps
    over the cached suite stay cheap.
    """
    am = default_manager()
    for kern in kernels:
        PREPASSED.get(Identity(kern), partial(_check_kernel, kern, am))


def _check_kernel(kern, am) -> bool:
    from ..analysis.framework.ranges import prove_safe

    verify_kernel(kern)
    errors = [r for r in lint_kernel(kern, am) if r.severity is Severity.ERROR]
    if errors:
        raise VerificationError("; ".join(r.message for r in errors), kern.name)
    safety = prove_safe(kern, am)
    if safety.classification == "proven-unsafe":
        raise VerificationError(
            "range analysis proves an out-of-bounds access: "
            + "; ".join(safety.reasons),
            kern.name,
        )
    return True


#: What one kernel's sweep cell resolves to: the model-facing sample,
#: or the reason vectorization was refused.
Payload = tuple[Optional[Sample], Optional[str]]


def _measure_named(
    name: str,
    target_name: str,
    vectorizer: str,
    jitter: float,
    seed: int,
    attempt: int = 0,
    plan: Optional[FaultPlan] = None,
) -> Payload:
    """Measure one kernel looked up by name (every sweep path ends here).

    ``attempt``/``plan`` feed the fault-injection harness: any
    scheduled crash/hang/transient fires here, before the measurement,
    exactly where a real worker failure would land.
    """
    faultinject.perturb(plan, name, attempt)
    result = measure_kernel(
        get_kernel(name),
        get_target(target_name),
        vectorizer=vectorizer,
        jitter=jitter,
        seed=seed,
    )
    if isinstance(result, VectorizationFailure):
        return None, result.reason
    return sample_from_measurement(result), None


def _supervised_worker(task: tuple) -> tuple[str, Payload]:
    """Supervisor entry point, in a pool or in-process: ``((args…),
    attempt, plan)``."""
    (name, target_name, vectorizer, jitter, seed), attempt, plan = task
    return name, _measure_named(
        name, target_name, vectorizer, jitter, seed, attempt, plan
    )


def measure_suite(
    spec: "DatasetSpec",
    *,
    workers: Optional[int] = None,
    cache: Optional[MeasurementCache] = None,
    prepass: Optional[bool] = None,
    timeout: Optional[float] = None,
    max_attempts: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    partial: bool = False,
    resume: Optional[bool] = None,
    checkpoint_dir=None,
    faults: Union[FaultPlan, str, None] = None,
    kernels=None,
    journal_tag: str = "",
):
    """Sweep a kernel set (default: the whole TSVC suite) for one spec.

    Returns ``(samples, failures)`` in input order — independent of
    worker count, cache state, and any faults the supervisor absorbed.
    ``kernels`` overrides the sweep set (e.g. a generated-corpus block);
    every kernel must be rebuildable by name through
    :func:`repro.tsvc.get_kernel`, because pool workers re-resolve
    kernels that way.  ``journal_tag`` namespaces the checkpoint
    (blocks of one corpus must not share one).  ``prepass`` controls
    the verify+lint gate run before the cache is consulted (default
    on).

    Fault tolerance (see :mod:`.resilience`): each uncached kernel
    gets up to ``max_attempts`` tries (or a full ``retry`` policy) and,
    with ``timeout`` set, that many seconds per attempt; a kernel that
    exhausts them is *quarantined*.  With ``partial=True`` the sweep
    returns ``(samples, failures, report)`` — the surviving payloads
    plus the structured :class:`FailureReport` — instead of raising
    :class:`SweepError`.  When a checkpoint directory is active
    (``checkpoint_dir``, else the ``checkpoint_dir`` setting), each
    completed payload lands in the sweep's checkpoint and
    ``resume=True`` restores them, re-measuring only the kernels the
    interrupted sweep never finished (or whose entries fail
    verification).  ``faults`` injects deterministic chaos (a
    :class:`FaultPlan` or ``REPRO_FAULTS``-style string; default: the
    settings' plan).  Every ``None`` parameter takes its setting.

    The sweep runs serially in this process unless it needs a pool: a
    deadline always gets one (only a worker process can be killed
    mid-kernel), and so does an active fault plan when more than one
    worker is available (injected crashes and hangs land in real
    worker processes).  ``workers`` sets that pool's width.
    """
    get_target(spec.target)  # validate the spec before any work
    settings = current()
    if cache is None:
        cache = default_cache()
    if timeout is None:
        timeout = settings.timeout
    timeout = float(timeout) if timeout and timeout > 0 else None
    if retry is None:
        attempts = settings.max_attempts if max_attempts is None else max_attempts
        retry = RetryPolicy(max_attempts=attempts)
    if isinstance(faults, str):
        faults = faultinject.parse_faults(faults)
    elif faults is None:
        faults = settings.fault_plan
    if resume is None:
        resume = settings.resume

    kernels = list(all_kernels()) if kernels is None else list(kernels)
    if prepass is None or prepass:
        static_prepass(kernels)
    results: dict[str, Payload] = {}
    pending: list[str] = []
    fingerprints: dict[str, str] = {}
    for kern in kernels:
        fp = measurement_fingerprint(
            kern, spec.target, spec.vectorizer, spec.jitter, spec.seed
        )
        fingerprints[kern.name] = fp
        payload = cache.get(fp)
        if payload is MISS:
            pending.append(kern.name)
        else:
            results[kern.name] = payload

    checkpoint = _resolve_checkpoint(spec, checkpoint_dir, tag=journal_tag)
    if checkpoint is not None:
        if resume:
            for name in pending:
                payload = checkpoint.get(fingerprints[name], pickle.loads)
                if payload is not MISS:
                    results[name] = payload
                    cache.put(fingerprints[name], payload)
            pending = [n for n in pending if n not in results]
            if checkpoint.stats.corrupt:
                pipeline_diagnostics().warning(
                    PASS_NAME,
                    SUITE_LOC,
                    f"evicted {checkpoint.stats.corrupt} damaged entries "
                    f"from checkpoint {checkpoint.root.name}; re-measuring "
                    "those kernels",
                    args=(("evicted", checkpoint.stats.corrupt),),
                )
        else:
            checkpoint.clear()  # a fresh sweep starts a fresh checkpoint

    report = FailureReport()
    if pending:
        width = resolve_workers(workers, pending=len(pending))
        # Only sweep kinds need a pool; a serve-only plan faults nothing here.
        faults_active = faults is not None and faults.active
        use_pool = timeout is not None or (faults_active and width > 1)

        def on_complete(name: str, payload: Payload) -> None:
            results[name] = payload
            cache.put(fingerprints[name], payload)
            faultinject.maybe_corrupt_cache(
                faults, cache, fingerprints[name], name
            )
            if checkpoint is not None:
                checkpoint.put(
                    fingerprints[name],
                    pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
                )

        tasks = {
            name: (name, spec.target, spec.vectorizer, spec.jitter, spec.seed)
            for name in pending
        }
        report = run_supervised(
            tasks,
            _supervised_worker,
            workers=width if use_pool else None,
            policy=retry,
            timeout=timeout,
            plan=faults,
            on_complete=on_complete,
        )

    if report.quarantined and not partial:
        raise SweepError(report)
    if checkpoint is not None and not report.quarantined:
        checkpoint.clear()  # complete: nothing left to resume

    samples: list[Sample] = []
    failures: list[tuple[str, str]] = []
    for kern in kernels:
        if kern.name not in results:  # quarantined
            continue
        sample, reason = results[kern.name]
        if sample is None:
            failures.append((kern.name, reason))
        else:
            samples.append(sample)
    if partial:
        return samples, failures, report
    return samples, failures


def _resolve_checkpoint(
    spec: "DatasetSpec", checkpoint_dir, tag: str = ""
) -> Optional[Store]:
    """The sweep's checkpoint store, or ``None`` when checkpointing is off.

    It lives at ``<checkpoint_dir>/sweep-<key>/``, one durable entry
    per completed fingerprint.  ``<key>`` hashes the code digest and
    the spec, so no build ever opens a checkpoint another build wrote.
    """
    directory = checkpoint_dir or current().checkpoint_dir
    if directory is None:
        return None
    parts = [
        code_digest(), spec.target, spec.vectorizer, spec.jitter, spec.seed
    ]
    if tag:
        parts.append(tag)
    key = hashlib.sha256("\0".join(map(str, parts)).encode()).hexdigest()
    return Store(
        os.path.join(directory, f"sweep-{key[:16]}"),
        schema=f"checkpoint/{PIPELINE_SCHEMA_VERSION}",
        durable=True,
    )
