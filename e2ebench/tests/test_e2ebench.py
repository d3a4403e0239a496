"""Self-tests of the benchmark (not part of the program's test suite).

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import http.server
import json
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import streams  # noqa: E402
import tracer  # noqa: E402


def temp_dir() -> Path:
    run.WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))


def test_seed_fixes_request_order_and_kernel_stream():
    pool = streams.load_pool()
    assert streams.advise_plan(7, 120, pool) == streams.advise_plan(7, 120, pool)
    assert streams.explore_names(7, 64, pool) == streams.explore_names(7, 64, pool)
    assert streams.advise_plan(7, 120, pool) != streams.advise_plan(8, 120, pool)
    assert streams.explore_names(7, 64, pool) != streams.explore_names(8, 64, pool)
    repeat, requests = streams.advise_plan(7, 120, pool)
    novel = [name for _, cls, name in requests if cls == "novel"]
    assert len(novel) == 60 and len(set(novel)) == 60
    assert {name for _, cls, name in requests if cls == "repeat"} <= set(repeat)
    assert len({rid for rid, _, _ in requests}) == 120


def _span(name, layer, start, end, parent, args=None, tid=1):
    return [name, layer, start, end, tid, parent, args]


def test_self_time_on_hand_built_span_tree():
    # root [0, 100] -> a [10, 30], b [40, 70] -> c [45, 55]; d [120, 130] alone.
    spans = [
        _span("root", "pipeline", 0, 100, -1),
        _span("a", "codegen", 10, 30, 0),
        _span("b", "codegen", 40, 70, 0),
        _span("c", "sim.timing", 45, 55, 2),
        _span("d", "codegen", 120, 130, -1),
    ]
    assert tracer.self_times(spans) == [50, 20, 20, 10, 10]
    assert tracer.covered_ns((s[2], s[3]) for s in spans) == 110
    proc = {"spans": spans, "counters": {}, "spawn_ns": 0, "exit_ns": 200}
    metrics = tracer.layer_metrics([proc])
    assert metrics["pipeline.self_s"] == 50e-9
    assert metrics["codegen.self_s"] == 50e-9
    assert metrics["codegen.calls"] == 3
    assert metrics["sim.timing.self_s"] == 10e-9
    assert metrics["trace.unattributed_share"] == 90 / 200

    # Two pool threads under run_suite: the drivers overlap, so the
    # suite keeps only what the union of its children leaves.
    # run_suite [0, 100] (thread 1) -> E1 [10, 60] (thread 2) -> fit [30, 40],
    #                                  E2 [20, 90] (thread 3).
    spans = [
        _span("run_suite", "experiments", 0, 100, -1),
        _span("driver.E1", "experiments", 10, 60, 0, tid=2),
        _span("driver.E2", "experiments", 20, 90, 0, tid=3),
        _span("LeastSquares.fit", "fitting", 30, 40, 1, tid=2),
    ]
    assert tracer.self_times(spans) == [20, 40, 70, 10]
    metrics = tracer.layer_metrics([{"spans": spans, "counters": {}, "spawn_ns": 0,
                                     "exit_ns": 100}])
    assert metrics["experiments.self_s"] == pytest.approx(130e-9)
    assert metrics["fitting.self_s"] == 10e-9
    assert metrics["trace.unattributed_share"] == 0.0

    # A child on another thread that outlasts its parent (a deadline
    # answered while the worker still runs) covers only the overlap.
    spans = [
        _span("WorkerPool.submit", "serve", 0, 50, -1),
        _span("Advisor.advise", "serve", 10, 80, 0, tid=2),
    ]
    assert tracer.self_times(spans) == [10, 70]


def test_spans_handed_to_other_threads_keep_their_parent():
    from concurrent.futures import ThreadPoolExecutor

    t = tracer.Tracer()
    fit = t.wrap("fitting", "fit", lambda: None)
    advise = t.wrap("serve", "Advisor.advise", lambda _self, payload: None)

    def suite():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(t.carry(lambda _: fit()), range(4)))

    t.wrap("experiments", "run_suite", suite)()
    fit()
    payload, other = {}, {}

    def submit(_self, handed):
        thread = threading.Thread(target=advise, args=(None, handed))
        thread.start()
        thread.join()

    t.wrap("serve", "WorkerPool.submit", submit)(None, payload)
    advise(None, other)
    by_name = {}
    for rec in t.spans:
        by_name.setdefault(rec[tracer.NAME], []).append(rec)
    (run_suite,) = by_name["run_suite"]
    assert [r[tracer.PARENT] for r in by_name["fit"]] == [run_suite] * 4 + [None]
    assert run_suite[tracer.TID] not in {r[tracer.TID] for r in by_name["fit"][:4]}
    (sent,) = by_name["WorkerPool.submit"]
    assert [r[tracer.PARENT] for r in by_name["Advisor.advise"]] == [sent, None]
    assert t._handed == {}


def test_serve_attribution_joins_client_and_server_spans():
    spans = [
        _span("WorkerPool.submit", "serve", 0, 30_000_000, -1,
              {"request_id": "r1", "payload": 5, "status": 200}),
        _span("Advisor.advise", "serve", 5_000_000, 25_000_000, -1, {"payload": 5}),
    ]
    proc = {"spans": spans, "counters": {}, "spawn_ns": 0, "exit_ns": 10**9}
    metrics = tracer.layer_metrics([proc], requests={"r1": 70.0})
    assert metrics["serve.advise_ms"] == 20.0
    assert metrics["serve.queue_wait_ms"] == 10.0
    assert metrics["serve.http_ms"] == 40.0


def test_traced_and_untraced_runs_give_identical_outputs():
    pool = streams.load_pool()
    names = streams.explore_names(3, 8, pool)

    try:
        plain = run.explore_process(3, names, False, "plain")
        traced = run.explore_process(3, names, True, "traced")
    finally:
        run.stop_all()
        shutil.rmtree(run.WORK / "tmp", ignore_errors=True)
    assert plain["kernels"] == traced["kernels"]
    assert plain["kernels"] == {n: pool["novel"][n]["explore"] for n in names}
    assert "spans" not in plain["report"]
    trace = json.loads(json.dumps(tracer.chrome_trace([traced["report"]])))
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["cat"] for e in spans} >= {"import", "pipeline", "dse", "codegen"}
    assert all(e["dur"] >= 0 and {"name", "ts", "pid", "tid"} <= set(e) for e in spans)


class _CountingHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    lock = threading.Lock()
    open_now = 0
    open_max = 0
    opened = 0

    def setup(self):
        super().setup()
        cls = type(self)
        with cls.lock:
            cls.open_now += 1
            cls.opened += 1
            cls.open_max = max(cls.open_max, cls.open_now)

    def finish(self):
        super().finish()
        with type(self).lock:
            type(self).open_now -= 1

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        blob = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


def test_load_generator_holds_at_most_nproc_connections():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        clients = run.host_clients()
        requests = [(f"r{i}", "repeat", "k") for i in range(60)]
        results = run.run_load(server.server_address[1], requests, {"k": {}}, clients)
    finally:
        server.shutdown()
        server.server_close()
    assert all(r[0] == 200 for r in results)
    assert _CountingHandler.open_max <= clients
    assert _CountingHandler.opened == clients


def _bench() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_result_line_names_exactly_the_declared_metrics():
    bench = _bench()
    full = {m["name"]: 1.5 for m in bench["end_to_end"]}
    line = json.loads(run.result_line(bench, False, run.result(3, 0, full)))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["metrics"] == {
        m["name"]: {"value": 1.5, "unit": m["unit"]} for m in bench["end_to_end"]
    }
    partial = {k: v for k, v in full.items() if k != "warm_ms"}
    with pytest.raises(run.BenchError):
        run.result_line(bench, False, run.result(3, 0, partial))
    with pytest.raises(run.BenchError):
        run.result_line(bench, True, run.result(3, 0, full))


@pytest.mark.parametrize("workload", ["reproduce", "advise", "explore"])
def test_every_workload_reports_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in _bench()["end_to_end"]]
    assert all(v["value"] > 0 for v in line["metrics"].values())


def _bench_copy(with_program: str | None) -> Path:
    root = temp_dir()
    shutil.copy(HERE.parent / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_program is not None:
        (root / "src" / "repro").mkdir(parents=True)
        (root / "src" / "repro" / "__init__.py").write_text(with_program)
    return root


def _run_copy(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "explore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _no_metrics_line(stdout: str) -> bool:
    for line in stdout.splitlines():
        try:
            if "metrics" in json.loads(line):
                return False
        except (ValueError, TypeError):
            continue
    return True


def test_missing_program_exits_nonzero_without_metrics():
    root = _bench_copy(None)
    try:
        proc = _run_copy(root)
    finally:
        shutil.rmtree(root)
    assert proc.returncode != 0
    assert _no_metrics_line(proc.stdout)


def test_broken_program_exits_nonzero_without_metrics():
    root = _bench_copy("raise ImportError('broken on purpose')\n")
    try:
        proc = _run_copy(root)
    finally:
        shutil.rmtree(root)
    assert proc.returncode != 0
    assert _no_metrics_line(proc.stdout)
