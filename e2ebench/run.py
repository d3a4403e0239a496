"""End-to-end benchmark of the three paths users take through ``repro``.

    python3 e2ebench/run.py --workload {reproduce,advise,explore} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload starts the program in
fresh processes (through ``launch.py``) with empty cache directories
under ``.e2ebench/tmp``, drives it for about ``--seconds`` seconds of
work, checks every output against ``expected/`` and prints, as the last
line of standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``:
each workload gives each metric its own definition (``manifest.json``,
``end_to_end``), with a cold and a warm class of operation on every
path.  ``--trace 1`` runs the same work untraced and then
traced, writes the traced spans as Chrome trace-event JSON to
``.e2ebench/trace-<workload>.json`` and reports the per-layer metrics,
including the tracing overhead.  An output that differs from the
recorded one, a program that cannot start, or a host whose C toolchain
state differs from the one recorded in ``manifest.json`` ends the run
with a non-zero exit and no metrics line.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".e2ebench"
sys.path.insert(0, str(HERE))

import streams  # noqa: E402
import tracer  # noqa: E402

#: A program process that outlives this is killed and counts as failed.
PROCESS_TIMEOUT_S = 150.0
#: Process starts per run that ``setup_s`` takes the median over
#: (advise: server starts; explore: cold/warm process pairs, over which
#: the kernel stream is split so that the host is sampled at several
#: times of the run; reproduce uses all of its processes).
SETUPS = 3
#: Seconds one reproduce pair (cold + warm) takes on a 2-vCPU x86_64 host.
PAIR_SECONDS = 6


class BenchError(Exception):
    """The run cannot give trustworthy numbers: no metrics line."""


# -- program processes -----------------------------------------------------------

_LIVE: list["Program"] = []


def fresh_dir(tag: str) -> Path:
    base = WORK / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=base))
    for sub in ("home", "cache", "tmp"):
        (path / sub).mkdir()
    return path


def isolated_env(dirs: Path, seed: int) -> dict:
    """Environment of a program process: every cache default under ``dirs``.

    The program keeps its measurement cache, native artifacts, serve
    registry and checkpoints under ``$XDG_CACHE_HOME/repro-vec`` (or
    ``~/.cache``) unless a ``REPRO_*`` variable moves them, so those
    variables are dropped and HOME, XDG_CACHE_HOME and TMPDIR point into
    ``dirs``.  The seed becomes the hash seed, the one input a fixed
    command line leaves.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        HOME=str(dirs / "home"),
        XDG_CACHE_HOME=str(dirs / "cache"),
        TMPDIR=str(dirs / "tmp"),
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED=str(seed % 2**32),
        PYTHONUNBUFFERED="1",
    )
    return env


class Program:
    """One program process started through ``launch.py``."""

    def __init__(self, args: list, *, dirs: Path, seed: int, traced: bool, label: str):
        self.label = label
        self.dirs = dirs
        self.report_path = dirs / f"report-{label}.json"
        self.stdout_path = dirs / f"stdout-{label}.txt"
        self.stderr_path = dirs / f"stderr-{label}.txt"
        cmd = [sys.executable, str(HERE / "launch.py"), "--report", str(self.report_path)]
        if traced:
            cmd.append("--trace")
        cmd += [str(a) for a in args]
        self.returncode = None
        with open(self.stdout_path, "w") as out, open(self.stderr_path, "w") as err:
            self.spawn_ns = time.perf_counter_ns()
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=isolated_env(dirs, seed), stdout=out, stderr=err
            )
        _LIVE.append(self)
        self._timer = threading.Timer(PROCESS_TIMEOUT_S, self.kill)
        self._timer.daemon = True
        self._timer.start()

    def kill(self) -> None:
        if self.returncode is None:
            try:
                self.proc.kill()
            except OSError:
                pass

    def terminate(self) -> None:
        if self.returncode is None:
            self.proc.send_signal(signal.SIGTERM)

    def wait(self, block: bool = True):
        """Exit code, or ``None`` if still running (``block=False``)."""
        if self.returncode is not None:
            return self.returncode
        pid, status, usage = os.wait4(self.proc.pid, 0 if block else os.WNOHANG)
        if pid == 0:
            return None
        self.exit_ns = time.perf_counter_ns()
        self._timer.cancel()
        self.returncode = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.wall_s = (self.exit_ns - self.spawn_ns) / 1e9
        _LIVE.remove(self)
        return self.returncode

    def check_exit(self) -> None:
        code = self.wait()
        if code != 0:
            tail = self.stderr_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"{self.label} process exited {code}:\n{tail}")

    def stdout(self) -> str:
        return self.stdout_path.read_text(errors="replace")

    def report(self) -> dict:
        with open(self.report_path) as fh:
            rep = json.load(fh)
        rep.update(spawn_ns=self.spawn_ns, exit_ns=self.exit_ns, label=self.label)
        return rep


def stop_all() -> None:
    for prog in list(_LIVE):
        prog.kill()
        prog.wait()


# -- statistics ------------------------------------------------------------------


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- reproduce -----------------------------------------------------------------


def reproduce(args, layers: bool) -> dict:
    """Cold then warm ``python -m repro.experiments all --no-scatter``."""
    expected = (streams.EXPECTED / "tables.txt").read_text()
    pairs = max(1, round(args.seconds / PAIR_SECONDS))
    runs = {False: [], True: []}
    for _ in range(pairs):
        for traced in (False, True) if layers else (False,):
            dirs = fresh_dir("reproduce")
            for phase in ("cold", "warm"):
                prog = Program(
                    ["module", "repro.experiments", "all", "--no-scatter"],
                    dirs=dirs, seed=args.seed, traced=traced, label=phase,
                )
                prog.check_exit()
                if streams.table_text(prog.stdout()) != expected:
                    raise BenchError(
                        f"{phase} reproduction tables differ from expected/tables.txt"
                    )
                rep = prog.report()
                if traced:
                    check_cache_state(phase, rep["counters"])
                runs[traced].append((phase, prog, rep))
            shutil.rmtree(dirs)
    attempted = sum(len(v) for v in runs.values())
    if layers:
        wall = {t: sum(p.wall_s for _, p, _ in runs[t]) for t in (False, True)}
        reports = [rep for _, _, rep in runs[True]]
        metrics = tracer.layer_metrics(
            reports, overhead_share=wall[True] / wall[False] - 1.0
        )
        write_trace("reproduce", reports)
        return result(attempted, 0, metrics)
    plain = runs[False]
    return result(attempted, 0, {
        "setup_s": statistics.median((r["imported_ns"] - p.spawn_ns) / 1e9 for _, p, r in plain),
        "cold_ms": statistics.median(p.wall_s for ph, p, _ in plain if ph == "cold") * 1e3,
        "warm_ms": statistics.median(p.wall_s for ph, p, _ in plain if ph == "warm") * 1e3,
        "ops_per_s": len(plain) / sum(p.wall_s for _, p, _ in plain),
        "speedup_x": policy_speedup(expected),
        "peak_rss_mb": max(p.rss_mb for _, p, _ in plain),
    })


def policy_speedup(tables: str) -> float:
    """Suite speedup of the decisions of the held-out fitted model (E6):
    the never-vectorize policy's suite cycles over the rated-NNLS LOOCV
    policy's."""
    cycles = dict(re.findall(
        r"^(never-vectorize|rated-NNLS LOOCV policy) *\| *([0-9.]+)", tables, re.M
    ))
    if len(cycles) != 2:
        raise BenchError("E6 has no never-vectorize and rated-NNLS LOOCV policy rows")
    return float(cycles["never-vectorize"]) / float(cycles["rated-NNLS LOOCV policy"])


def check_cache_state(phase: str, counters: dict) -> None:
    """Cold must miss every measurement-cache lookup, warm must hit every one."""
    hits = counters.get("pipeline.cache_hits", 0)
    misses = counters.get("pipeline.cache_misses", 0)
    ratio = hits / (hits + misses) if hits + misses else -1.0
    if ratio != (0.0 if phase == "cold" else 1.0):
        raise BenchError(
            f"{phase} process saw pipeline.cache_hit_ratio {ratio:.3f} "
            f"({hits} hits, {misses} misses): its cache directories were not {phase}"
        )


# -- advise ----------------------------------------------------------------------


def start_server(seed: int, traced: bool, label: str):
    """Spawn ``serve --fit`` in fresh directories; return it, its port and
    the seconds from spawn to the first 200 from ``/v1/ready``."""
    dirs = fresh_dir("advise")
    prog = Program(
        ["module", "repro.experiments", "serve", "--fit", "--port", "0"],
        dirs=dirs, seed=seed, traced=traced, label=label,
    )
    port = None
    while port is None:
        match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", prog.stdout())
        if match:
            port = int(match.group(1))
        elif prog.wait(block=False) is not None:
            prog.check_exit()
            raise BenchError("advisor exited before listening")
        else:
            time.sleep(0.002)
    while True:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/v1/ready")
            resp = conn.getresponse()
            resp.read()
            if resp.status == 200:
                return prog, port, (time.perf_counter_ns() - prog.spawn_ns) / 1e9
        except OSError:
            pass
        finally:
            conn.close()
        if prog.wait(block=False) is not None:
            prog.check_exit()
            raise BenchError("advisor exited before it was ready")
        time.sleep(0.002)


def stop_server(prog: Program) -> None:
    prog.terminate()
    prog.check_exit()


def run_load(port: int, requests: list, bodies: dict, clients: int) -> list:
    """Closed loop: ``clients`` threads, one keep-alive connection each,
    send the requests in order; each waits for its answer before taking
    the next.  Returns ``(status, latency_ms, body, start_ns, end_ns,
    thread)`` per request, in request order."""
    results: list = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                rid, _cls, name = requests[i]
                blob = json.dumps(dict(bodies[name], request_id=rid)).encode()
                start = time.perf_counter_ns()
                try:
                    conn.request(
                        "POST", "/v1/advise", body=blob,
                        headers={"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    data, status = resp.read(), resp.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    data, status = b"", 0
                end = time.perf_counter_ns()
                results[i] = (status, (end - start) / 1e6, data, start, end,
                              threading.get_ident())
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def serve_and_load(args, plan, bodies, clients: int, traced: bool, setups: int) -> dict:
    """Start the advisor ``setups`` times; drive the last start."""
    repeat, requests = plan
    setup = []
    for k in range(setups - 1):
        prog, _, seconds = start_server(args.seed, False, f"setup{k}")
        setup.append(seconds)
        stop_server(prog)
        shutil.rmtree(prog.dirs)
    prog, port, seconds = start_server(args.seed, traced, "serve")
    setup.append(seconds)
    try:
        warm = run_load(port, [(f"warm-{n}", "warm-up", n) for n in repeat], bodies, clients)
        start = time.perf_counter_ns()
        load = run_load(port, requests, bodies, clients)
        load_s = (time.perf_counter_ns() - start) / 1e9
    finally:
        stop_server(prog)
    report = prog.report()
    shutil.rmtree(prog.dirs)
    return {"setup": setup, "warm": warm, "load": load, "load_s": load_s,
            "rss_mb": prog.rss_mb, "report": report}


def check_verdicts(pool: dict, names: list, answers: list) -> None:
    from repro.serve.advisor import verdict_core

    for name, (status, _, data, *_rest) in zip(names, answers):
        if status != 200:
            continue
        recorded = pool["repeat"].get(name) or pool["novel"][name]["verdict"]
        if verdict_core(json.loads(data)) != streams.expected_core(name, recorded):
            raise BenchError(f"verdict core for {name} differs from expected/pool.json")


def advised_speedup(names: list, answers: dict) -> float:
    """Geomean simulated speedup of what each answer tells the user to run."""
    from repro.dse import measure_points
    from repro.frontend import parse_kernel
    from repro.targets.registry import get_target
    from repro.vectorize.plan import PlanPoint

    target = get_target(streams.TARGET)
    speedups = []
    for name in names:
        answer = answers[name]
        if answer.get("plan"):
            point = PlanPoint(**answer["plan"]["point"])
        elif answer["vectorized"]:
            point = PlanPoint(answer["vf"], 1, 1, streams.VECTORIZER, target.name)
        else:
            speedups.append(1.0)
            continue
        ir = answer["_payload"]["ir"]
        kernel = parse_kernel(f"kernel {ir['name']} {{\n{ir['body']}\n}}")
        (measured,) = measure_points(kernel, target, [point])
        speedups.append(measured.speedup if measured.ok else 1.0)
    return geomean(speedups)


def advise(args, layers: bool) -> dict:
    pool = streams.load_pool()
    total = streams.REQUESTS_PER_SECOND * args.seconds
    plan = streams.advise_plan(args.seed, total, pool)
    repeat, requests = plan
    from repro.gen import generate_kernel
    from repro.tsvc import get_kernel

    bodies = {n: streams.payload(get_kernel(n), n) for n in repeat}
    for _, cls, name in requests:
        if cls == "novel":
            bodies[name] = streams.payload(generate_kernel(name), name)
    clients = host_clients()
    serves = [serve_and_load(args, plan, bodies, clients, False, 1 if layers else SETUPS)]
    if layers:
        serves.append(serve_and_load(args, plan, bodies, clients, True, 1))
    names = [n for _, _, n in requests]
    failed = 0
    for s in serves:
        check_verdicts(pool, repeat, s["warm"])
        check_verdicts(pool, names, s["load"])
        if any(w[0] != 200 for w in s["warm"]):
            raise BenchError("a warm-up request was not answered 200")
        failed += sum(1 for r in s["load"] if r[0] != 200)
    attempted = len(requests) * len(serves)
    if layers:
        plain, traced = serves
        latencies = {rid: r[1] for (rid, _, _), r in zip(requests, traced["load"])}
        metrics = tracer.layer_metrics(
            [dict(traced["report"], label="advisor")],
            requests=latencies,
            overhead_share=traced["load_s"] / plain["load_s"] - 1.0,
        )
        client_spans = [
            ("client.request", r[3], r[4], r[5],
             {"request_id": rid, "class": cls, "status": r[0]})
            for (rid, cls, _), r in zip(requests, traced["load"])
        ]
        write_trace("advise", [dict(traced["report"], label="advisor")], client_spans)
        return result(attempted, failed, metrics)

    s = serves[0]

    def p50_ms(cls: str) -> float:
        return statistics.median(
            r[1] for (_, c, _), r in zip(requests, s["load"]) if c == cls and r[0] == 200
        )

    metrics = {
        "setup_s": statistics.median(s["setup"]),
        "cold_ms": p50_ms("novel"),
        "warm_ms": p50_ms("repeat"),
        "ops_per_s": sum(1 for r in s["load"] if r[0] == 200) / s["load_s"],
    }
    answers = {}
    for name, r in list(zip(repeat, s["warm"])) + list(zip(names, s["load"])):
        if r[0] == 200 and name not in answers:
            answers[name] = dict(json.loads(r[2]), _payload=bodies[name])
    advised = streams.advised_kernels(repeat, requests)
    if any(n not in answers for n in advised):
        raise BenchError("a kernel of the speedup_x set got no answer")
    metrics["speedup_x"] = advised_speedup(advised, answers)
    metrics["peak_rss_mb"] = s["rss_mb"]
    return result(attempted, failed, metrics)


# -- explore ---------------------------------------------------------------------


def explore_process(
    seed: int, names: list, traced: bool, label: str, dirs: Path | None = None
) -> dict:
    """One explore process over ``names``, in ``dirs`` if given, else in
    fresh directories removed afterwards."""
    own = dirs is None
    if own:
        dirs = fresh_dir("explore")
    spec = dirs / f"spec-{label}.json"
    out = dirs / f"out-{label}.json"
    spec.write_text(json.dumps({"chunk": streams.CHUNK, "names": names}))
    prog = Program(["explore", spec, out], dirs=dirs, seed=seed, traced=traced, label=label)
    prog.check_exit()
    with open(out) as fh:
        data = json.load(fh)
    data["setup_s"] = (data["ready_ns"] - prog.spawn_ns) / 1e9
    data["report"] = prog.report()
    data["rss_mb"] = prog.rss_mb
    if own:
        shutil.rmtree(dirs)
    return data


def explore_pair(seed: int, names: list, traced: bool) -> tuple[dict, dict]:
    """A cold explore process over ``names`` on empty directories, then a
    warm one over the same names on the directories the cold one filled."""
    dirs = fresh_dir("explore")
    pair = tuple(explore_process(seed, names, traced, phase, dirs) for phase in ("cold", "warm"))
    shutil.rmtree(dirs)
    return pair


def stream_s(swept: dict) -> float:
    return (swept["chunks"][-1][2] - swept["chunks"][0][1]) / 1e9


def kernel_ms(swept: dict) -> list:
    """Latency of each kernel of a pass: an equal share of its chunk's
    batched sweep plus its own search, if it was searched."""
    out = []
    for n, start, end, searched in swept["chunks"]:
        share = (end - start - sum(searched)) / n
        out += [(share + ns) / 1e6 for ns in searched] + [share / 1e6] * (n - len(searched))
    return out


def explore(args, layers: bool) -> dict:
    pool = streams.load_pool()
    names = streams.explore_names(args.seed, streams.KERNELS_PER_SECOND * args.seconds, pool)
    size = math.ceil(len(names) / SETUPS)
    blocks = [names[lo : lo + size] for lo in range(0, len(names), size)]
    runs = {
        traced: [explore_pair(args.seed, block, traced) for block in blocks]
        for traced in ((False, True) if layers else (False,))
    }
    for pairs in runs.values():
        for block, pair in zip(blocks, pairs):
            for swept in pair:
                for name in block:
                    recorded = pool["novel"][name]["explore"]
                    if swept["kernels"].get(name, "missing") != recorded:
                        raise BenchError(
                            f"explore result for {name} differs from expected/pool.json"
                        )
    attempted = 2 * len(names) * len(runs)
    passes = {t: [swept for pair in pairs for swept in pair] for t, pairs in runs.items()}

    if layers:
        for pair in runs[True]:
            for phase, swept in zip(("cold", "warm"), pair):
                check_cache_state(phase, swept["report"]["counters"])
        reports = [swept["report"] for swept in passes[True]]
        metrics = tracer.layer_metrics(
            reports,
            overhead_share=sum(map(stream_s, passes[True])) / sum(map(stream_s, passes[False]))
            - 1.0,
        )
        write_trace("explore", reports)
        return result(attempted, 0, metrics)
    pairs = runs[False]
    found = [v[1] for cold, _ in pairs for v in cold["kernels"].values() if v is not None]
    return result(attempted, 0, {
        "setup_s": statistics.median(cold["setup_s"] for cold, _ in pairs),
        "cold_ms": statistics.median(ms for cold, _ in pairs for ms in kernel_ms(cold)),
        "warm_ms": statistics.median(ms for _, warm in pairs for ms in kernel_ms(warm)),
        "ops_per_s": 2 * len(names) / sum(map(stream_s, passes[False])),
        "speedup_x": geomean(found),
        "peak_rss_mb": max(swept["rss_mb"] for swept in passes[False]),
    })


# -- shared ----------------------------------------------------------------------


def load_manifest() -> dict:
    with open(HERE / "manifest.json") as fh:
        return json.load(fh)


def host_clients() -> int:
    return min(load_manifest()["host"]["nproc"], os.cpu_count() or 1)


def check_host() -> None:
    """Refuse to compare native-tier numbers with NumPy-tier ones."""
    from repro.sim.toolchain import find_toolchain

    recorded = load_manifest()["host"]["c_toolchain"]
    found = find_toolchain() is not None
    if found != recorded:
        raise BenchError(
            f"C toolchain found={found}, but manifest.json records c_toolchain={recorded}"
        )


def write_trace(workload: str, reports: list, client_spans=()) -> None:
    path = WORK / f"trace-{workload}.json"
    with open(path, "w") as fh:
        json.dump(tracer.chrome_trace(reports, client_spans), fh)
    print(f"e2ebench: trace written to {path}", file=sys.stderr)


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def result_line(bench: dict, traced: bool, out: dict) -> str:
    """The JSON result line; it names every metric of ``BENCHMARK.json``
    the run reports (per-layer when traced, else end-to-end) and no other."""
    declared = bench["per_layer" if traced else "end_to_end"]
    if sorted(out["metrics"]) != sorted(m["name"] for m in declared):
        raise BenchError(
            f"the run measured {sorted(out['metrics'])}, but BENCHMARK.json declares "
            f"{sorted(m['name'] for m in declared)}"
        )
    return json.dumps({
        "correct": True,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    })


WORKLOADS = {"reproduce": reproduce, "advise": advise, "explore": explore}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops the program processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        try:
            with open(ROOT / "BENCHMARK.json") as fh:
                bench = json.load(fh)
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program at {ROOT / 'src' / 'repro'}")
        client = fresh_dir("client")
        os.environ.update(isolated_env(client, args.seed))
        tempfile.tempdir = None
        sys.path.insert(0, str(ROOT / "src"))
        check_host()
        out = WORKLOADS[args.workload](args, bool(args.trace))
        line = result_line(bench, bool(args.trace), out)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_all()
        shutil.rmtree(WORK / "tmp", ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
