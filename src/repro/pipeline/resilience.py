"""Supervised execution for the measurement sweep.

Every sweep runs under a supervisor that treats per-kernel failure as
data.  It runs in this process by default; a sweep that needs a
process it can kill or lose (a deadline, or injected crashes and
hangs) gets a ``ProcessPoolExecutor`` instead:

* **deadlines** — each in-flight kernel gets ``timeout`` seconds; an
  overdue worker is killed and the kernel retried on a fresh pool;
* **retries** — failures back off exponentially (with deterministic
  per-kernel jitter) under a :class:`RetryPolicy`, and a retry is a
  *new attempt*: the fault-injection schedule draws again, so
  transient faults drain;
* **crash isolation** — ``BrokenProcessPool`` rebuilds the pool and
  requeues the victims; with an active fault plan the deterministic
  schedule identifies the culprit so innocent bystanders retry for
  free;
* **quarantine** — a kernel that exhausts its attempts is recorded in
  a structured :class:`FailureReport` (attempts, wall time, the whole
  exception chain) and the sweep continues;
* **checkpointing** — every completed payload lands in the sweep's
  durable checkpoint store (one verified entry per kernel, see
  :mod:`repro.store`) so an interrupted sweep resumes from the last
  completed kernel;
* **degradation** — if the pool cannot be (re)built the supervisor
  drops to the serial in-process path and says so through the
  static-analysis diagnostics engine
  (``[-Rpass-missed=measurement-pipeline]``).

Because the per-kernel measurement is deterministic (noise seeded from
``crc32(kernel.name)``), none of this machinery can change a value:
once retries drain, a faulted sweep is bit-identical to a clean one —
the property ``tests/test_resilience.py`` and the CI chaos job pin.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ..analysis.framework.diagnostics import Diagnostics
from . import faultinject
from .faultinject import FaultPlan

#: Pass name the supervisor emits remarks under.
PASS_NAME = "measurement-pipeline"

#: Pseudo-kernel location for sweep-wide remarks.
SUITE_LOC = "<suite>"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``delay(name, attempt)`` is the pause before attempt ``attempt+1``
    of kernel ``name``: ``base_delay * 2**attempt`` capped at ``cap``,
    scaled by a ±25 % jitter hashed from the kernel name and attempt —
    reproducible, but de-synchronized across kernels so a retry
    stampede cannot re-align on a struggling worker pool.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.cap < 0:
            raise ValueError("base_delay and cap must be non-negative")

    def delay(self, name: str, attempt: int) -> float:
        if self.base_delay <= 0:
            return 0.0
        raw = min(self.base_delay * (2.0**attempt), self.cap)
        digest = hashlib.sha256(f"retry:{name}:{attempt}".encode()).digest()
        jitter = 0.75 + 0.5 * (digest[0] / 255.0)  # in [0.75, 1.25]
        return raw * jitter


@dataclass(frozen=True)
class KernelFailure:
    """One quarantined kernel: what was tried and how it died."""

    name: str
    attempts: int
    wall_time_s: float
    error_chain: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "attempts": self.attempts,
            "wall_time_s": round(self.wall_time_s, 4),
            "error_chain": list(self.error_chain),
        }


@dataclass
class FailureReport:
    """Structured record of everything the sweep survived.

    ``quarantined`` is the terminal list — kernels that exhausted their
    retry budget; ``retries``/``pool_rebuilds``/``degraded_to_serial``
    count the incidents the supervisor absorbed on the way.
    """

    quarantined: list[KernelFailure] = field(default_factory=list)
    retries: int = 0
    pool_rebuilds: int = 0
    degraded_to_serial: bool = False

    def __len__(self) -> int:
        return len(self.quarantined)

    def __bool__(self) -> bool:
        return bool(self.quarantined)

    def names(self) -> list[str]:
        return [f.name for f in self.quarantined]

    def summary(self) -> str:
        if not self.quarantined:
            return "no kernels quarantined"
        parts = [
            f"{f.name} ({f.attempts} attempts: {f.error_chain[-1]})"
            for f in self.quarantined
        ]
        return f"{len(self.quarantined)} quarantined — " + "; ".join(parts)

    def as_dict(self) -> dict:
        return {
            "quarantined": [f.as_dict() for f in self.quarantined],
            "retries": self.retries,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded_to_serial": self.degraded_to_serial,
        }


class SweepError(RuntimeError):
    """Raised by a non-``partial`` sweep when kernels were quarantined."""

    def __init__(self, report: FailureReport):
        self.report = report
        super().__init__(
            "measurement sweep failed: " + report.summary()
            + " (pass partial=True to keep the surviving samples)"
        )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

_DIAG = Diagnostics()


def pipeline_diagnostics() -> Diagnostics:
    """The engine supervision remarks are emitted into (process-wide)."""
    return _DIAG


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def default_checkpoint_dir() -> Path:
    env = os.environ.get("REPRO_CHECKPOINT_DIR")
    if env:
        return Path(env).expanduser()
    from .cache import default_cache_dir

    return default_cache_dir() / "checkpoints"


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


def _describe(exc: BaseException) -> str:
    """One line per link of the exception chain, innermost last."""
    chain: list[str] = []
    seen: set[int] = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        chain.append(f"{type(exc).__name__}: {exc}")
        exc = exc.__cause__ or exc.__context__
    return " <- ".join(chain)


def run_supervised(
    tasks: dict[str, tuple],
    worker: Callable[[tuple], tuple[str, object]],
    *,
    workers: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    plan: Optional[FaultPlan] = None,
    on_complete: Callable[[str, object], None],
) -> FailureReport:
    """Run every task to completion or quarantine; never raise for one.

    ``tasks`` maps kernel name → the measurement args; ``worker`` is a
    picklable function taking ``(args, attempt, plan)`` and returning
    ``(name, payload)``.  ``workers`` is the width of the process pool
    the tasks run in; ``None`` runs them one after another in this
    process, with retries and quarantine but no deadline.
    ``on_complete`` fires in the supervisor as each payload lands
    (cache write, checkpoint).  Returns the
    :class:`FailureReport`; completed names are exactly
    ``set(tasks) - set(report.names())``.
    """
    policy = policy or RetryPolicy()
    report = FailureReport()
    clock = time.monotonic
    #: (name, attempt, not_before) — attempt is 0-based.
    queue: deque[tuple[str, int, float]] = deque(
        (name, 0, 0.0) for name in tasks
    )
    errors: dict[str, list[str]] = {}
    started: dict[str, float] = {}

    def fail(name: str, attempt: int, message: str) -> None:
        errors.setdefault(name, []).append(message)
        nxt = attempt + 1
        if nxt >= policy.max_attempts:
            wall = clock() - started.get(name, clock())
            report.quarantined.append(
                KernelFailure(name, nxt, wall, tuple(errors[name]))
            )
            _DIAG.warning(
                PASS_NAME,
                name,
                f"kernel quarantined after {nxt} attempts: "
                f"{errors[name][-1]}",
                args=(("attempts", nxt),),
            )
        else:
            report.retries += 1
            queue.append((name, nxt, clock() + policy.delay(name, attempt)))

    def run_serial() -> None:
        """In-process fallback: retries and quarantine, no deadlines."""
        while queue:
            name, attempt, not_before = queue.popleft()
            pause = not_before - clock()
            if pause > 0:
                time.sleep(pause)
            started.setdefault(name, clock())
            try:
                _, payload = worker((tasks[name], attempt, plan))
            except Exception as exc:
                fail(name, attempt, _describe(exc))
                continue
            on_complete(name, payload)

    if workers is None:
        run_serial()
        return report

    pool: Optional[ProcessPoolExecutor] = None
    #: future -> (name, attempt, dispatch time)
    inflight: dict = {}

    def kill_pool() -> None:
        nonlocal pool
        if pool is None:
            return
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except Exception:
                pass
        # wait=True: the workers are dead (or dying), so the management
        # thread exits promptly — joining it here keeps the interpreter's
        # exit handlers from tripping over a half-torn-down executor.
        pool.shutdown(wait=True, cancel_futures=True)
        pool = None

    def pop_ready(now: float):
        for i, (name, attempt, not_before) in enumerate(queue):
            if not_before <= now:
                entry = queue[i]
                del queue[i]
                return entry
        return None

    def degrade(reason: str) -> None:
        report.degraded_to_serial = True
        _DIAG.warning(
            PASS_NAME,
            SUITE_LOC,
            f"process pool unavailable ({reason}); "
            "degrading to serial measurement",
        )

    while queue or inflight:
        now = clock()
        if pool is None:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=faultinject.mark_worker,
                )
            except (OSError, PermissionError, ImportError) as exc:
                degrade(_describe(exc))
                run_serial()
                return report

        # Fill to capacity — never more in flight than workers, so a
        # dispatch timestamp approximates an execution start time and
        # the per-kernel deadline measures the worker, not the queue.
        submit_broke = False
        while len(inflight) < workers:
            entry = pop_ready(now)
            if entry is None:
                break
            name, attempt, _ = entry
            started.setdefault(name, now)
            try:
                fut = pool.submit(worker, (tasks[name], attempt, plan))
            except Exception:  # pool broke between waits
                queue.appendleft((name, attempt, now))
                submit_broke = True
                break
            inflight[fut] = (name, attempt, clock())

        if submit_broke:
            report.pool_rebuilds += 1
            kill_pool()
            continue

        if not inflight:
            # Everything runnable is backing off; sleep to the nearest.
            wake = min(nb for _, _, nb in queue)
            time.sleep(max(0.0, min(wake - clock(), 0.25)))
            continue

        tick = 0.1
        if timeout is not None:
            oldest = min(t0 for _, _, t0 in inflight.values())
            tick = min(tick, max(0.005, oldest + timeout - now))
        done, _ = wait(
            set(inflight), timeout=tick, return_when=FIRST_COMPLETED
        )

        crashed: list[tuple[str, int]] = []
        for fut in done:
            name, attempt, _ = inflight.pop(fut)
            try:
                _, payload = fut.result()
            except BrokenProcessPool:
                crashed.append((name, attempt))
                continue
            except Exception as exc:
                fail(name, attempt, _describe(exc))
                continue
            on_complete(name, payload)

        if crashed:
            # The executor is dead; every remaining in-flight future is
            # doomed too.  With a fault plan active the deterministic
            # schedule identifies the culprit(s); bystanders requeue
            # without burning an attempt.  Without a plan we cannot
            # know who crashed, so everyone is charged (real crashes
            # repeat on the same kernel, so the culprit still drains
            # to quarantine instead of looping forever).
            for fut, (name, attempt, _) in list(inflight.items()):
                crashed.append((name, attempt))
                del inflight[fut]
            report.pool_rebuilds += 1
            kill_pool()
            for name, attempt in crashed:
                if plan is not None and not plan.decide(
                    "crash", name, attempt
                ):
                    queue.append((name, attempt, clock()))
                else:
                    fail(name, attempt, "worker process crashed")
            continue

        if timeout is not None:
            now = clock()
            overdue = [
                fut
                for fut, (_, _, t0) in inflight.items()
                if now - t0 > timeout
            ]
            if overdue:
                # Kill the pool (the hung worker ignores cancellation);
                # overdue kernels are charged an attempt, the rest ride
                # along for free on the fresh pool.
                for fut, (name, attempt, t0) in list(inflight.items()):
                    del inflight[fut]
                    if now - t0 > timeout:
                        fail(
                            name,
                            attempt,
                            f"TimeoutError: no result within {timeout:.3g}s",
                        )
                    else:
                        queue.append((name, attempt, now))
                report.pool_rebuilds += 1
                kill_pool()

    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)
    return report
