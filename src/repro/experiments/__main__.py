"""CLI: ``python -m repro.experiments [E1 E2 … | all] [--no-scatter]``.

Runs the requested paper-figure reproductions through the suite
scheduler — shared dataset builds, shared fitted models — and prints
their tables and text scatters.  ``--bench`` times the engine against
the per-driver seed path and writes ``BENCH_experiments.json``.
Measurement-pipeline flags (the persistent cache, deadlines and the
worker processes that enforce them) are folded into the process's
settings (:mod:`repro.settings`) here and apply to every dataset the
selected experiments build.

``python -m repro.experiments analyze …`` dispatches to the static
analysis CLI instead (see :mod:`.analyze`), ``… chaos`` to the
fault-injection parity check (see :mod:`repro.pipeline.faultinject`),
``… serve`` to the advisor service (see :mod:`repro.serve.server`),
``… serve-chaos`` to the service-level chaos gate (see
:mod:`repro.serve.chaos`), ``… corpus`` to the synthetic
corpus sweep (see :mod:`.corpus`), and ``… dse`` to the plan-space
search experiment (see :mod:`repro.dse.experiment`).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..pipeline import default_cache
from ..settings import current, use
from .base import ENGINE
from .registry import EXPERIMENTS


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    current()  # a malformed REPRO_* value stops every subcommand here
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
        "--bench",
        action="store_true",
        help="time the engine against the per-driver seed path (3 suite "
        "passes) and write the results to --bench-out",
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
        help="measurement processes when a sweep needs a pool (under "
        "--timeout or a fault plan; default: REPRO_WORKERS env or cpu "
        "count); other sweeps run serially",
    )
    pipe.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent cache directory: measurements, fitted models and "
        "plan searches (default: REPRO_CACHE_DIR env or ~/.cache/repro-vec)",
    )
    pipe.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent caches: neither read nor write "
        "measurements, fitted models or plan searches",
    )
    pipe.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete all cached measurements, fitted models and plan "
        "searches before running (the registry and checkpoints under the "
        "cache root stay)",
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
        help="checkpoint completed measurements here so an interrupted "
        "sweep can be resumed (default: REPRO_CHECKPOINT_DIR env; "
        "off when unset)",
    )
    fault.add_argument(
        "--resume",
        action="store_true",
        help="resume from the sweep's checkpoint: only kernels the previous "
        "(interrupted) sweep never completed are re-measured",
    )
    args = parser.parse_args(argv)

    if args.list:
        for eid, (title, _) in EXPERIMENTS.items():
            print(f"{eid:4s} {title}")
        return 0

    settings = current().replace(
        workers=args.workers,
        cache_dir=args.cache_dir,
        cache=False if args.no_cache else None,
        timeout=args.timeout,
        max_attempts=args.max_attempts,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume or None,
    )
    if settings.resume and settings.checkpoint_dir is None:
        # --resume without a directory still needs a checkpoint to read.
        settings = settings.replace(checkpoint_dir=settings.cache_dir / "checkpoints")
    use(settings)
    if args.clear_cache:
        from ..dse import SEARCHES

        removed = default_cache().clear() + ENGINE.store().clear() + SEARCHES.store().clear()
        print(f"[cache] cleared {removed} entries from {default_cache().root}")

    from .scheduler import bench_suite, run_suite

    if args.bench:
        bench = bench_suite(args.ids)
        with open(args.bench_out, "w") as fh:
            json.dump(bench, fh, indent=2, sort_keys=True)
        print(json.dumps(bench, indent=2, sort_keys=True))
        print(f"[bench written to {args.bench_out}]")
        return 0

    run = run_suite(args.ids)
    for result in run.results:
        print(result.to_text(include_scatter=not args.no_scatter))
        print(f"[{result.id} completed in {result.wall_s:.1f}s]\n")
    print(
        f"[suite: {len(run.results)} experiments in {run.total_s:.1f}s "
        f"(dataset builds {run.build_s:.1f}s)]"
    )
    if args.cache_stats:
        from ..dse import SEARCHES

        ENGINE.flush()  # so the counts include this run's writes
        SEARCHES.flush()
        print(f"[cache: {default_cache().stats}]")
        print(f"[engine cache: {ENGINE.store().stats}]")
        print(f"[search cache: {SEARCHES.store().stats}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
