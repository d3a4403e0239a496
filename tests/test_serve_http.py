"""HTTP service + worker pool: probes, batches, backpressure, deadlines."""

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.pipeline.faultinject import FaultPlan
from repro.serve import Advisor, AdvisorServer, ModelRegistry, WorkerPool
from repro.serve.workers import Ticket
from repro.settings import Settings, use

SAXPY = """
kernel saxpy {
    f32 a[256], b[256];
    f32 alpha = 2.0;
    for (i = 0; i < 256; i++) {
        a[i] = a[i] + alpha * b[i];
    }
}
"""


def http(method, url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=15) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


@pytest.fixture
def server(tmp_path):
    srv = AdvisorServer(
        Advisor(ModelRegistry(tmp_path / "registry")),
        workers=2,
        timeout=10.0,
    ).start()
    yield srv
    srv.stop()


def test_health_and_readiness_probes(server):
    status, body, _ = http("GET", server.url + "/v1/health")
    assert status == 200
    assert body["status"] == "ok"
    assert body["pool"]["alive"] == 2
    assert {b["name"] for b in body["breakers"]} == {"prepass"}

    status, body, _ = http("GET", server.url + "/v1/ready")
    assert status == 200 and body["ready"] is True


def test_mixed_valid_invalid_batch(server):
    batch = [
        ({"kernel": SAXPY}, 200),
        ({"kernel": "kernel x { not valid }"}, 400),
        ({}, 400),
        ({"kernel": SAXPY, "target": "vax"}, 400),
        ({"kernel": SAXPY, "target": "x86-avx2"}, 200),
    ]
    for payload, expected in batch:
        status, body, _ = http("POST", server.url + "/v1/advise", payload)
        assert status == expected, body
        if expected == 200:
            assert isinstance(body["vectorized"], bool)
            assert body["kernel"] == "saxpy"
        else:
            assert "error" in body


def test_unknown_route_404_and_malformed_body_400(server):
    status, _, _ = http("GET", server.url + "/v1/nothing")
    assert status == 404
    req = urllib.request.Request(
        server.url + "/v1/advise", data=b"not json", method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=15) as resp:
            status = resp.status
    except urllib.error.HTTPError as exc:
        status = exc.code
    assert status == 400


def test_models_and_reload_endpoints(server):
    status, body, _ = http(
        "GET", server.url + "/v1/models?target=armv8-neon&vectorizer=llv"
    )
    assert status == 200 and body["versions"] == []
    status, body, _ = http("POST", server.url + "/v1/reload")
    assert status == 200 and body["reloaded"] == {}


def test_graceful_shutdown_drains_in_flight_work(tmp_path):
    srv = AdvisorServer(
        Advisor(ModelRegistry(tmp_path / "registry")),
        workers=2,
        timeout=10.0,
    ).start()
    results = []

    def fire():
        results.append(http("POST", srv.url + "/v1/advise", {"kernel": SAXPY}))

    threads = [threading.Thread(target=fire) for _ in range(4)]
    for t in threads:
        t.start()
    time.sleep(0.05)  # let the requests reach the pool
    srv.stop(drain=True)
    for t in threads:
        t.join(timeout=15)
    assert len(results) == 4
    assert all(status == 200 for status, _, _ in results)
    # After shutdown the listener is gone.
    with pytest.raises(Exception):
        http("GET", srv.url + "/v1/ready")


# -- worker pool directly ----------------------------------------------------


def hang_plan(rate=1.0, **rates):
    rates = {"slow_handler": rate, **rates}
    return FaultPlan(rates=rates, seed=0, hang_seconds=60.0)


def test_pool_backpressure_rejects_with_retry_after(tmp_path):
    pool = WorkerPool(
        Advisor(ModelRegistry(tmp_path / "r")),
        workers=1,
        queue_size=1,
        timeout=0.6,
        fault_plan=hang_plan(),
        hang_s=60.0,
    ).start()
    try:
        outcomes = []
        threads = [
            threading.Thread(
                target=lambda i=i: outcomes.append(
                    pool.submit(
                        {"kernel": SAXPY}, request_id=f"r{i}", attempt=0
                    )
                )
            )
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        statuses = sorted(s for s, _ in outcomes)
        # With one hung worker and a one-deep queue, most of the burst
        # must be shed at admission (429); whatever was admitted times
        # out at its deadline (503).  Nothing hangs, nothing gets 200.
        assert len(outcomes) == 6
        assert statuses.count(429) >= 3
        assert all(s in (429, 503) for s in statuses)
        for status, body in outcomes:
            assert body.get("retry_after", 0) > 0
    finally:
        pool.stop(drain=False, timeout=0.5)


def test_pool_deadline_answered_in_time_and_worker_replaced(tmp_path):
    plan = FaultPlan(rates={"worker_crash": 0.5}, seed=0, hang_seconds=60.0)
    # Pick a request id whose deterministic schedule crashes attempt 0
    # but spares attempt 1 — the retry-drains-the-fault property.
    rid = next(
        f"crash{i}"
        for i in range(100)
        if plan.decide("worker_crash", f"crash{i}", 0)
        and not plan.decide("worker_crash", f"crash{i}", 1)
    )
    pool = WorkerPool(
        Advisor(ModelRegistry(tmp_path / "r")),
        workers=2,
        queue_size=8,
        timeout=0.4,
        fault_plan=plan,
    ).start()
    try:
        t0 = time.monotonic()
        status, body = pool.submit(
            {"kernel": SAXPY}, request_id=rid, attempt=0
        )
        elapsed = time.monotonic() - t0
        assert status == 503
        assert "crash" in body["error"]
        assert elapsed < 0.4 + 0.5
        # The supervisor replaces the dead worker.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if pool.stats.as_dict()["workers_replaced"] >= 1:
                break
            time.sleep(0.02)
        assert pool.stats.as_dict()["workers_replaced"] >= 1
        assert pool.health()["alive"] == 2
        # A retry (fresh attempt) drains the fault and succeeds.
        status, body = pool.submit(
            {"kernel": SAXPY}, request_id=rid, attempt=1
        )
        assert status == 200 and body["kernel"] == "saxpy"
    finally:
        pool.stop(drain=False, timeout=0.5)


def test_pool_answers_within_deadline_under_hang(tmp_path):
    pool = WorkerPool(
        Advisor(ModelRegistry(tmp_path / "r")),
        workers=1,
        queue_size=4,
        timeout=0.3,
        fault_plan=hang_plan(),
        hang_s=60.0,
    ).start()
    try:
        t0 = time.monotonic()
        status, body = pool.submit(
            {"kernel": SAXPY}, request_id="hangme", attempt=0
        )
        elapsed = time.monotonic() - t0
        assert status == 503
        assert elapsed < 0.3 + 0.5
    finally:
        pool.stop(drain=False, timeout=0.5)


def test_serve_knobs_env(tmp_path):
    defaults = Settings.from_env({})
    assert defaults.serve_timeout == 10.0
    assert defaults.serve_queue == 64
    assert 2 <= defaults.serve_workers <= 4
    env = {
        "REPRO_SERVE_TIMEOUT": "2.5",
        "REPRO_SERVE_QUEUE": "8",
        "REPRO_SERVE_WORKERS": "3",
    }
    use(Settings.from_env({**os.environ, **env}))
    pool = WorkerPool(Advisor(ModelRegistry(tmp_path / "registry")))
    assert (pool.timeout, pool.queue_size, pool.workers) == (2.5, 8, 3)


def test_pool_reads_fault_plan_env_and_draws_only_serve_kinds(tmp_path):
    """One ``REPRO_FAULTS`` plan feeds sweeps and the pool; the pool
    fires only the request-scoped kinds."""
    env = {"REPRO_FAULTS": "crash:1.0,worker_crash:1.0", "REPRO_FAULTS_HANG_S": "7"}
    use(Settings.from_env({**os.environ, **env}))
    pool = WorkerPool(Advisor(ModelRegistry(tmp_path / "registry")), workers=1)
    assert pool.fault_plan.rates == {"crash": 1.0, "worker_crash": 1.0}
    assert pool.hang_s == 7.0
    ticket = Ticket("r0", {}, attempt=0, deadline=0.0)
    assert pool._decide_faults(ticket) == {"worker_crash"}
    assert pool.health()["faults"] == ["worker_crash"]
