"""Process-side launcher: run one ``repro`` program process for the benchmark.

    python3 e2ebench/launch.py --report FILE [--trace] module NAME [ARGS...]
    python3 e2ebench/launch.py --report FILE [--trace] explore SPEC OUT

``module`` runs ``python -m NAME ARGS`` in this process (through
``runpy``, as ``-m`` does).  ``explore`` runs the corpus/DSE stream
described by the JSON file ``SPEC`` and writes per-kernel results and
per-chunk timings, with the search time of each searched kernel, to ``OUT``.

Untraced, the launcher only reads the clock once ``import repro`` has
finished and writes that time to ``--report`` at exit; it wraps nothing.
With ``--trace`` it times ``import repro`` as the ``import`` layer,
installs :mod:`tracer` around the program's layers, and adds the spans
and counters to the report.
"""

from __future__ import annotations

import atexit
import json
import os
import runpy
import sys
import time


def _write_report(path: str, report: dict, tracer) -> None:
    if os.getpid() != report["pid"]:
        return
    if tracer is not None:
        tracer.enabled = False
        report.update(tracer.report())
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(report, fh)
    os.replace(tmp, path)


def explore(spec_path: str, out_path: str) -> int:
    """Set up the ARM oracle, then sweep and search the kernel stream."""
    from repro.dse import search_kernel
    from repro.experiments.base import make_speedup_model
    from repro.experiments.dataset import ARM_LLV, build_dataset
    from repro.gen import generate_kernel
    from repro.pipeline import measure_corpus
    from repro.targets.registry import get_target

    with open(spec_path) as fh:
        spec = json.load(fh)
    dataset = build_dataset(ARM_LLV)
    model = make_speedup_model("nnls").fit(dataset.samples)
    ready_ns = time.perf_counter_ns()
    out = {"ready_ns": ready_ns, "chunks": [], "kernels": {}}
    target = get_target(ARM_LLV.target)
    names = spec["names"]
    chunk = spec["chunk"]
    for lo in range(0, len(names), chunk):
        block = names[lo : lo + chunk]
        start = time.perf_counter_ns()
        swept = measure_corpus(block, ARM_LLV)
        searched = []
        for sample in swept.samples:
            begin = time.perf_counter_ns()
            found = search_kernel(
                generate_kernel(sample.name), target, model, driver="verified"
            )
            searched.append(time.perf_counter_ns() - begin)
            out["kernels"][sample.name] = [found.best.label(), found.predicted]
        for name, _reason in swept.failures:
            out["kernels"][name] = None
        out["chunks"].append([len(block), start, time.perf_counter_ns(), searched])
    tmp = f"{out_path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(out, fh)
    os.replace(tmp, out_path)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--report":
        print(__doc__, file=sys.stderr)
        return 2
    report_path, argv = argv[1], argv[2:]
    traced = argv[0] == "--trace"
    if traced:
        argv = argv[1:]
    mode, args = argv[0], argv[1:]
    report = {"pid": os.getpid()}
    tracer = None
    if traced:
        from tracer import Tracer, install

        tracer = Tracer()
        with tracer.span("import repro", "import"):
            import repro  # noqa: F401
        report["imported_ns"] = time.perf_counter_ns()
        install(tracer)
    else:
        import repro  # noqa: F401

        report["imported_ns"] = time.perf_counter_ns()
    atexit.register(_write_report, report_path, report, tracer)
    if mode == "module":
        sys.argv = [args[0], *args[1:]]
        runpy.run_module(args[0], run_name="__main__", alter_sys=True)
        return 0
    if mode == "explore":
        return explore(*args)
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
