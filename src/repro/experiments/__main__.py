"""CLI: ``python -m repro.experiments [E1 E2 … | all] [--no-scatter]``.

Runs the requested paper-figure reproductions through the suite
scheduler — shared dataset builds, shared fitted models, drivers on a
bounded executor (``--serial`` / ``--jobs`` control it) — and prints
their tables and text scatters.  ``--bench`` times the engine against
the per-driver seed path and writes ``BENCH_experiments.json``.
Measurement-pipeline knobs (worker processes, the persistent cache)
are configured here and apply to every dataset the selected
experiments build.

``python -m repro.experiments analyze …`` dispatches to the static
analysis CLI instead (see :mod:`.analyze`), ``… chaos`` to the
fault-injection parity check (see :mod:`repro.pipeline.faultinject`),
``… serve`` to the advisor service (see :mod:`repro.serve.server`),
``… serve-chaos`` to the service-level chaos gate (see
:mod:`repro.serve.chaos`), ``… corpus`` to the sharded synthetic
corpus sweep (see :mod:`.corpus`), and ``… dse`` to the plan-space
search experiment (see :mod:`repro.dse.experiment`).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..pipeline import configure, default_cache
from .registry import EXPERIMENTS


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "analyze":
        from .analyze import main as analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "chaos":
        from ..pipeline.faultinject import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "serve":
        from ..serve.server import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "serve-chaos":
        from ..serve.chaos import main as serve_chaos_main

        return serve_chaos_main(argv[1:])
    if argv and argv[0] == "corpus":
        from .corpus import main as corpus_main

        return corpus_main(argv[1:])
    if argv and argv[0] == "dse":
        from ..dse.experiment import main as dse_main

        return dse_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures (see DESIGN.md §4).",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        default=["all"],
        help="experiment ids (E1..E14) or 'all' (E13/E14 run only when "
        "named explicitly)",
    )
    parser.add_argument(
        "--no-scatter", action="store_true", help="omit the text scatter plots"
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    sched = parser.add_argument_group("suite scheduler")
    sched.add_argument(
        "--parallel",
        action="store_true",
        default=True,
        help="run independent drivers on a bounded thread executor "
        "(the default; report tables are bit-identical to --serial)",
    )
    sched.add_argument(
        "--serial",
        dest="parallel",
        action="store_false",
        help="run the drivers one after another",
    )
    sched.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="driver threads for --parallel (default: bounded by cpu "
        "count and the number of selected experiments)",
    )
    sched.add_argument(
        "--bench",
        action="store_true",
        help="time the engine against the per-driver seed path (4 suite "
        "passes), assert serial/parallel table parity, and write the "
        "results to --bench-out",
    )
    sched.add_argument(
        "--bench-out",
        default="BENCH_experiments.json",
        metavar="FILE",
        help="where --bench writes its timings (default: %(default)s)",
    )
    pipe = parser.add_argument_group("measurement pipeline")
    pipe.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="measurement processes per dataset build "
        "(default: REPRO_WORKERS env or cpu count; 1 = serial)",
    )
    pipe.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent measurement-cache directory "
        "(default: REPRO_CACHE_DIR env or ~/.cache/repro-vec)",
    )
    pipe.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent measurement cache",
    )
    pipe.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete all persistent cache entries before running",
    )
    pipe.add_argument(
        "--cache-stats",
        action="store_true",
        help="print cache hit/miss statistics after the run",
    )
    fault = parser.add_argument_group("fault tolerance")
    fault.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-kernel measurement deadline; a worker that exceeds it "
        "is killed and the kernel retried (default: REPRO_TIMEOUT env "
        "or no deadline)",
    )
    fault.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="attempts per kernel before quarantine "
        "(default: REPRO_MAX_ATTEMPTS env or 3)",
    )
    fault.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="journal completed measurements here so an interrupted "
        "sweep can be resumed (default: REPRO_CHECKPOINT_DIR env; "
        "off when unset)",
    )
    fault.add_argument(
        "--resume",
        action="store_true",
        help="replay the checkpoint journal: only kernels the previous "
        "(interrupted) sweep never completed are re-measured",
    )
    args = parser.parse_args(argv)

    if args.list:
        for eid, (title, _) in EXPERIMENTS.items():
            print(f"{eid:4s} {title}")
        return 0

    configure(
        workers=args.workers,
        cache_dir=args.cache_dir,
        cache_enabled=False if args.no_cache else None,
        timeout=args.timeout,
        max_attempts=args.max_attempts,
        checkpoint_dir=args.checkpoint_dir,
        resume=True if args.resume else None,
    )
    if args.resume and args.checkpoint_dir is None:
        # --resume without a directory still needs a journal to read.
        from ..pipeline import default_checkpoint_dir

        configure(checkpoint_dir=str(default_checkpoint_dir()))
    if args.clear_cache:
        removed = default_cache().clear()
        print(f"[cache] cleared {removed} entries from {default_cache().root}")

    from .scheduler import bench_suite, run_suite

    if args.bench:
        bench = bench_suite(args.ids, jobs=args.jobs)
        with open(args.bench_out, "w") as fh:
            json.dump(bench, fh, indent=2, sort_keys=True)
        print(json.dumps(bench, indent=2, sort_keys=True))
        print(f"[bench written to {args.bench_out}]")
        if not bench["parallel_serial_tables_identical"]:
            print("FAIL: parallel and serial report tables differ")
            return 1
        return 0

    run = run_suite(args.ids, parallel=args.parallel, jobs=args.jobs)
    for result in run.results:
        print(result.to_text(include_scatter=not args.no_scatter))
        print(f"[{result.id} completed in {result.wall_s:.1f}s]\n")
    print(
        f"[suite: {len(run.results)} experiments in {run.total_s:.1f}s "
        f"({run.mode}, {run.jobs} job(s); dataset builds {run.build_s:.1f}s)]"
    )
    if args.cache_stats:
        print(f"[{default_cache().stats}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
