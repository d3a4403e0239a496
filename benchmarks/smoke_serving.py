"""Serving perf smoke: prices the advisor service's request path and
emits a ``BENCH_serving.json`` artifact for cross-PR trajectory
tracking.

    PYTHONPATH=src python benchmarks/smoke_serving.py [--out PATH]
        [--kernels N] [--rounds K] [--workers W]

Measured, all through a real :class:`~repro.serve.workers.WorkerPool`
over a bootstrapped model registry:

* ``clean``    — end-to-end request latency (p50/p99) and throughput
  over ``--rounds`` passes of the request set, no faults;
* ``faulted``  — the same stream under a ~10% deterministic fault mix
  (worker crash, corrupted registry entry — no slow handler, so
  retried latency stays bounded by work, not by hangs), each request
  retried through ``RetryPolicy`` to a final verdict;
* ``overload`` — a concurrent burst against a deliberately tiny pool
  whose one worker is wedged: the rejection rate at admission (429)
  and the guarantee that every answer, including the rejections,
  arrives within the deadline.

Gates, evaluated at exit:

* ``faulted.p99_s <= 3.0 * max(clean.p99_s, 0.01)`` — the headline:
  fault handling may cost retries, never an unbounded tail;
* no request lost in the faulted pass (every one ends 200);
* faulted verdict cores bit-identical to the clean pass;
* the overload burst sheds load (>0 rejections) and answers every
  request within the deadline plus scheduling grace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.pipeline.faultinject import FaultPlan  # noqa: E402
from repro.pipeline.resilience import RetryPolicy  # noqa: E402
from repro.serve import Advisor, ModelRegistry, WorkerPool, canonical_verdict  # noqa: E402
from repro.serve.chaos import DEADLINE_GRACE_S, bootstrap_registry, suite_payloads  # noqa: E402

#: ~10% total fault mass, split over the two fault kinds that cost
#: work rather than wall-clock waiting.  ``slow_handler`` is excluded
#: on purpose: it turns a request into a deadline-length hang, so its
#: retried latency measures the configured timeout, not the service.
FAULTED_MIX = {
    "worker_crash": 0.05,
    "corrupt_registry": 0.05,
}

#: The headline gate: the p99 under ~10% faults may pay retries but
#: must stay within 3x of the clean p99 (10 ms floor against noise on
#: sub-millisecond clean paths).
P99_RATIO_BAR = 3.0

def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def drive(
    pool: WorkerPool,
    requests: list[tuple[str, dict]],
    rounds: int,
    policy: RetryPolicy,
) -> dict:
    """Run ``rounds`` passes, timing each request end to end (retries
    included) and keeping its final body for the parity check."""
    latencies: list[float] = []
    finals: dict[str, dict] = {}
    statuses: list[int] = []
    retries = 0
    t_start = time.perf_counter()
    for rnd in range(rounds):
        for name, payload in requests:
            # Round-unique ids keep the deterministic fault schedule
            # drawing fresh decisions every pass instead of replaying
            # round 0's.
            request_id = f"{name}#r{rnd}"
            t0 = time.perf_counter()
            status, body = 500, {"error": "never attempted"}
            for attempt in range(policy.max_attempts):
                status, body = pool.submit(
                    dict(payload), request_id=request_id, attempt=attempt
                )
                if status not in (429, 503):
                    break
                retries += 1
                time.sleep(policy.delay(request_id, attempt))
            latencies.append(time.perf_counter() - t0)
            statuses.append(status)
            if rnd == 0:
                finals[name] = {"status": status, "body": body}
    wall_s = time.perf_counter() - t_start
    count = len(latencies)
    return {
        "requests": count,
        "lost": sum(1 for s in statuses if s != 200),
        "retries": retries,
        "p50_s": round(percentile(latencies, 0.50), 5),
        "p99_s": round(percentile(latencies, 0.99), 5),
        "mean_s": round(statistics.fmean(latencies), 5),
        "requests_per_s": round(count / wall_s, 2) if wall_s > 0 else 0.0,
        "finals": finals,
    }


def overload_bench(registry: ModelRegistry, payload: dict) -> dict:
    """Burst a tiny pool whose single worker is wedged by a hang fault:
    admission must shed the burst with 429s, and nothing — admitted or
    rejected — may outlive the deadline."""
    timeout = 0.5
    pool = WorkerPool(
        Advisor(registry),
        workers=1,
        queue_size=2,
        timeout=timeout,
        fault_plan=FaultPlan(
            rates={"slow_handler": 1.0}, seed=0, hang_seconds=60.0
        ),
        hang_s=60.0,
    ).start()
    outcomes: list[tuple[int, float]] = []
    lock = threading.Lock()

    def fire(i: int) -> None:
        t0 = time.perf_counter()
        status, _ = pool.submit(
            {**payload}, request_id=f"burst{i}", attempt=0
        )
        elapsed = time.perf_counter() - t0
        with lock:
            outcomes.append((status, elapsed))

    try:
        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(24)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        pool.stop(drain=False, timeout=1.0)
    statuses = [s for s, _ in outcomes]
    worst = max((e for _, e in outcomes), default=0.0)
    return {
        "burst": 24,
        "answered": len(outcomes),
        "rejected_429": statuses.count(429),
        "timed_out_503": statuses.count(503),
        "succeeded_200": statuses.count(200),
        "rejection_rate": round(statuses.count(429) / max(1, len(outcomes)), 3),
        "worst_answer_s": round(worst, 4),
        "deadline_s": timeout,
        "within_deadline": worst <= timeout + DEADLINE_GRACE_S,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_serving.json"))
    parser.add_argument("--kernels", type=int, default=16)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--timeout", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    selected = suite_payloads(args.kernels)
    requests = [(name, payload) for name, payload, _ in selected]
    samples = [sample for _, _, sample in selected]
    policy = RetryPolicy(max_attempts=10, base_delay=0.02, cap=0.5)

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")
        entry = bootstrap_registry(
            registry, samples, target="armv8-neon", vectorizer="llv"
        )

        clean_pool = WorkerPool(
            Advisor(registry), workers=args.workers, timeout=args.timeout
        ).start()
        try:
            drive(clean_pool, requests, 1, policy)  # warm-up, off the clock
            clean = drive(clean_pool, requests, args.rounds, policy)
        finally:
            clean_pool.stop()

        plan = FaultPlan(
            rates=dict(FAULTED_MIX), seed=args.seed, hang_seconds=60.0
        )
        faulted_pool = WorkerPool(
            Advisor(registry),
            workers=args.workers,
            timeout=args.timeout,
            fault_plan=plan,
        ).start()
        try:
            faulted = drive(faulted_pool, requests, args.rounds, policy)
            faults_injected = faulted_pool.health().get("faults_injected", 0)
        finally:
            faulted_pool.stop()

        mismatches = [
            rid
            for rid, rec in faulted.pop("finals").items()
            if rec["status"] == 200
            and canonical_verdict(rec["body"])
            != canonical_verdict(clean["finals"][rid]["body"])
        ]
        clean.pop("finals")
        faulted["faults_injected"] = faults_injected

        overload = overload_bench(registry, requests[0][1])

    p99_bar = round(P99_RATIO_BAR * max(clean["p99_s"], 0.01), 5)
    gates = {
        "p99_ratio_ok": faulted["p99_s"] <= p99_bar,
        "no_lost_requests": faulted["lost"] == 0 and clean["lost"] == 0,
        "verdicts_bit_identical": not mismatches,
        "overload_shed_and_bounded": overload["rejected_429"] > 0
        and overload["answered"] == overload["burst"]
        and overload["within_deadline"],
    }
    report = {
        "schema": 1,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "kernels": len(requests),
            "rounds": args.rounds,
            "workers": args.workers,
            "timeout_s": args.timeout,
            "fault_mix": FAULTED_MIX,
            "model_version": entry.version,
        },
        "clean": clean,
        "faulted": faulted,
        "faulted_p99_bar_s": p99_bar,
        "verdict_mismatches": mismatches,
        "overload": overload,
        "gates": gates,
    }

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out}")

    if not all(gates.values()):
        failed = ", ".join(k for k, v in gates.items() if not v)
        print(f"SERVING SMOKE FAILURE: {failed}")
        return 1
    print(
        f"serving smoke PASSED: clean p99 {clean['p99_s']}s, faulted p99 "
        f"{faulted['p99_s']}s (bar {p99_bar}s), "
        f"{faulted['faults_injected']} faults injected, "
        f"{overload['rejected_429']} burst rejections"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
