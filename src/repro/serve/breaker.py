"""Circuit breakers for the advisor service's fallible dependencies.

A :class:`CircuitBreaker` wraps an operation that can fail repeatedly
— the analysis prepass hitting an internal fault — and converts "keeps
failing" into "stop trying for a while":

* **closed** — normal operation; consecutive failures are counted and
  ``failure_threshold`` of them trip the breaker;
* **open** — the protected operation is skipped entirely (callers take
  their degraded path) until ``recovery_time`` seconds pass;
* **half-open** — a bounded number of probe calls are let through; one
  success closes the breaker, one failure re-opens it and re-arms the
  recovery timer.

The clock is injectable so tests (and the deterministic chaos harness)
can drive state transitions without sleeping.  All methods are
thread-safe: the service's worker pool shares one breaker per
dependency.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

#: Breaker states (string-valued for cheap JSON/stats exposure).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Classic three-state breaker with a bounded half-open probe budget."""

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = 3,
        recovery_time: float = 5.0,
        half_open_probes: int = 1,
        clock: Optional[Callable[[], float]] = None,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if recovery_time < 0:
            raise ValueError(f"recovery_time must be >= 0, got {recovery_time}")
        if half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_probes = half_open_probes
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_inflight = 0
        # lifetime counters for /stats
        self._trips = 0
        self._recoveries = 0
        self._rejections = 0

    # -- queries ------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """May the caller attempt the protected operation right now?

        In the half-open state this *claims* a probe slot: a caller
        that was told yes must report back via ``record_success`` /
        ``record_failure`` so the slot is released.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                self._rejections += 1
                return False
            # half-open: bounded probes
            if self._probes_inflight < self.half_open_probes:
                self._probes_inflight += 1
                return True
            self._rejections += 1
            return False

    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.recovery_time
        ):
            self._state = HALF_OPEN
            self._probes_inflight = 0

    # -- outcome reporting --------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._recoveries += 1
            self._consecutive_failures = 0
            self._probes_inflight = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                # the probe failed: back to open, timer re-armed
                self._state = OPEN
                self._opened_at = self._clock()
                self._probes_inflight = 0
                self._trips += 1
                return
            self._consecutive_failures += 1
            if (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self._trips += 1

    # -- test/operator hooks ------------------------------------------------

    def force_open(self) -> None:
        """Trip the breaker now (operator override / degraded-mode tests)."""
        with self._lock:
            if self._state != OPEN:
                self._trips += 1
            self._state = OPEN
            self._opened_at = self._clock()
            self._probes_inflight = 0

    def force_close(self) -> None:
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
            self._probes_inflight = 0

    def stats(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self._trips,
                "recoveries": self._recoveries,
                "rejections": self._rejections,
            }
