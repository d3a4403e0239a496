"""Record the outputs the benchmark checks every run against.

    python3 e2ebench/regen.py

Writes ``expected/tables.txt`` (the rendered E1–E12 tables of ``python
-m repro.experiments all --no-scatter``, notes left out) and
``expected/pool.json``: the suite kernels the advise workload repeats
and a fixed pool of generated kernels that every seed draws its novel
requests and its explore stream from, each with the verdict core that
``python -m repro.experiments serve --fit`` answers, started and asked
over HTTP as the advise workload does, and, for generated kernels, the
plan and speedup the verified DSE driver finds in the explore process.

Run it only with a change that is meant to alter those outputs.  A
change that should keep them must pass the benchmark's output checks
against the recorded files unchanged.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import streams  # noqa: E402

#: Generator stream and size of the pool of novel kernels.
POOL_SEED = 2018
POOL_SIZE = 1600
#: The recording server answers every pool kernel, far more requests
#: than one benchmark run sends: let it live this long.
REGEN_PROCESS_TIMEOUT_S = 1800.0


def record_tables() -> str:
    dirs = run.fresh_dir("regen")
    prog = run.Program(
        ["module", "repro.experiments", "all", "--no-scatter"],
        dirs=dirs, seed=0, traced=False, label="tables",
    )
    prog.check_exit()
    text = streams.table_text(prog.stdout())
    shutil.rmtree(dirs)
    return text


def record_verdicts(names: list, bodies: dict) -> dict:
    """Compact verdict core of every kernel ``serve --fit`` answers 200.

    The kernels are sent to the server the advise workload starts, over
    its HTTP client.  A kernel refused with 400 stays out of the pool;
    any other status means the server was overloaded or failing, and the
    recording stops.
    """
    from repro.serve.advisor import verdict_core

    prog, port, _ = run.start_server(0, False, "regen")
    try:
        requests = [(f"regen-{i:05d}", "regen", name) for i, name in enumerate(names)]
        answers = run.run_load(port, requests, bodies, run.host_clients())
    finally:
        run.stop_server(prog)
    out = {}
    for name, (status, _, data, *_rest) in zip(names, answers):
        if status == 200:
            out[name] = streams.compact_core(verdict_core(json.loads(data)))
        elif status != 400:
            raise run.BenchError(f"{name} was answered {status}; nothing recorded")
    return out


def main() -> int:
    client = run.fresh_dir("regen-client")
    os.environ.update(run.isolated_env(client, 0))
    tempfile.tempdir = None
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        tables = record_tables()
        from repro.gen import corpus_names, generate_kernel
        from repro.serve.chaos import suite_payloads
        from repro.tsvc import get_kernel, kernel_names

        suite = [name for name, _, _ in suite_payloads(len(kernel_names()))]
        candidates = corpus_names(POOL_SIZE, seed=POOL_SEED)
        bodies = {n: streams.payload(get_kernel(n), n) for n in suite}
        bodies.update((n, streams.payload(generate_kernel(n), n)) for n in candidates)
        run.PROCESS_TIMEOUT_S = REGEN_PROCESS_TIMEOUT_S
        verdicts = record_verdicts(suite + candidates, bodies)
        repeat = {n: verdicts[n] for n in suite if n in verdicts}
        novel = {n: verdicts[n] for n in candidates if n in verdicts}
        explored = run.explore_process(0, sorted(novel), False, "regen")["kernels"]
    finally:
        run.stop_all()
        shutil.rmtree(run.WORK / "tmp", ignore_errors=True)
    streams.EXPECTED.mkdir(exist_ok=True)
    (streams.EXPECTED / "tables.txt").write_text(tables)
    novel = {
        name: {"verdict": novel[name], "explore": explored[name]} for name in novel
    }

    def block(entries: dict) -> str:
        # One kernel per line keeps the diff of a deliberate change readable.
        return ",\n".join(
            f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())
        )

    (streams.EXPECTED / "pool.json").write_text(
        f'{{"pool_seed": {POOL_SEED},\n"repeat": {{\n{block(repeat)}\n}},\n'
        f'"novel": {{\n{block(novel)}\n}}}}\n'
    )
    print(f"recorded {len(repeat)} repeat and {len(novel)} novel kernels")
    return 0


if __name__ == "__main__":
    sys.exit(main())
