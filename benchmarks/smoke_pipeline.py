"""Pipeline perf smoke: times the measurement pipeline end to end and
emits a ``BENCH_pipeline.json`` artifact for cross-PR trajectory
tracking.

    PYTHONPATH=src python benchmarks/smoke_pipeline.py [--out PATH]
        [--repeat K] [--pytest-bench]

Measured (best of ``--repeat`` runs, full ARM+x86 suite sweep):

* ``cold_serial_s``    — uncached build;
* ``warm_cache_s``     — rebuild served from the persistent cache;
* ``static_prepass``   — warm rebuild with vs without the verify+lint
  pre-pass (must stay within 5% of each other);
* ``loocv_refit_s`` / ``loocv_fast_s`` — L2 LOOCV, refit loop vs
  hat-matrix fast path, on the ARM dataset;
* ``experiments``      — the E1–E12 suite through the experiment
  engine (shared matrix bundles + engine memo + warm SVR folds) vs
  the per-driver seed path, written to its own
  ``BENCH_experiments.json``.  Gated: engine-cold ≥3× over seed,
  seed/engine E1–E11 tables bit-identical, and ≥80% of SVR LOOCV
  folds warm-certified on every suite dataset.

``--experiments-only`` runs just that last section (the CI
``experiments`` job uses it).  ``--pytest-bench`` additionally runs
the two pytest-benchmark files (``bench_pipeline_micro.py``,
``bench_dataset_build.py``) and embeds their stats under
``pytest_benchmarks``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.costmodel import RatedSpeedupModel  # noqa: E402
from repro.experiments import ARM_LLV, X86_SLP, build_dataset  # noqa: E402
from repro.fitting import LeastSquares  # noqa: E402
from repro.pipeline import MeasurementCache, measure_suite  # noqa: E402
from repro.validation import loocv_predictions  # noqa: E402

BOTH_SPECS = (ARM_LLV, X86_SLP)


def best_of(repeat: int, fn) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def sweep_both(cache: MeasurementCache, prepass: bool | None = None) -> int:
    total = 0
    for spec in BOTH_SPECS:
        samples, failures = measure_suite(spec, cache=cache, prepass=prepass)
        total += len(samples) + len(failures)
    return total


def run_pytest_benchmarks() -> dict:
    """Run the two bench files and return pytest-benchmark's stats."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "pytest_bench.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}:{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "benchmarks/bench_pipeline_micro.py",
                "benchmarks/bench_dataset_build.py",
                "--benchmark-only",
                f"--benchmark-json={out}",
                "-q",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0 or not out.exists():
            return {"error": (proc.stdout + proc.stderr)[-2000:]}
        data = json.loads(out.read_text())
    return {
        b["name"]: {
            "mean_s": b["stats"]["mean"],
            "min_s": b["stats"]["min"],
            "rounds": b["stats"]["rounds"],
        }
        for b in data.get("benchmarks", [])
    }


def run_experiments_bench(out_path: Path) -> tuple[dict, bool]:
    """Benchmark the experiment engine (E1–E12 suite) against the
    per-driver seed path, write ``BENCH_experiments.json``, and
    evaluate the engine gates."""
    from repro.experiments import bench_suite

    bench = bench_suite()
    out_path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(json.dumps(bench, indent=2, sort_keys=True))
    print(f"\nwrote {out_path}")

    speedup_ok = bench["speedup_vs_seed"] >= 3.0
    seed_parity_ok = bench["seed_engine_tables_identical_e1_e11"]
    svr_ok = bool(bench["svr_warm"]) and all(
        d["acceptance"] >= 0.8 for d in bench["svr_warm"].values()
    )
    ok = speedup_ok and seed_parity_ok and svr_ok
    if not ok:
        print(
            "EXPERIMENTS SMOKE FAILURE: "
            f"speedup_vs_seed={bench['speedup_vs_seed']} (need >=3), "
            f"seed/engine E1-E11 parity={seed_parity_ok}, "
            f"svr warm acceptance ok={svr_ok}"
        )
    return bench, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_pipeline.json"))
    parser.add_argument(
        "--experiments-out",
        default=str(REPO_ROOT / "BENCH_experiments.json"),
        help="where the experiment-engine section writes its timings",
    )
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--experiments-only",
        action="store_true",
        help="run only the experiment-engine bench (the CI experiments "
        "job's entry point)",
    )
    parser.add_argument(
        "--pytest-bench",
        action="store_true",
        help="also run the pytest-benchmark files (slower)",
    )
    args = parser.parse_args(argv)

    if args.experiments_only:
        _, experiments_ok = run_experiments_bench(Path(args.experiments_out))
        return 0 if experiments_ok else 1

    with tempfile.TemporaryDirectory() as tmp:
        off = MeasurementCache(root=Path(tmp) / "off", enabled=False)
        cold_serial = best_of(args.repeat, lambda: sweep_both(off))

        warm = MeasurementCache(root=Path(tmp) / "warm")
        sweep_both(warm)  # prime (also pays the one-time prepass)
        warm_cache = best_of(args.repeat, lambda: sweep_both(warm))
        warm_nopre = best_of(
            args.repeat, lambda: sweep_both(warm, prepass=False)
        )
        warm_pre = best_of(
            args.repeat, lambda: sweep_both(warm, prepass=True)
        )

    samples = build_dataset(ARM_LLV).samples
    factory = lambda: RatedSpeedupModel(LeastSquares())  # noqa: E731
    loocv_predictions(factory, samples)  # numpy warmup
    fast_s = best_of(args.repeat, lambda: loocv_predictions(factory, samples))
    refit_s = best_of(
        args.repeat, lambda: loocv_predictions(factory, samples, fast=False)
    )
    agree = float(
        np.nanmax(
            np.abs(
                loocv_predictions(factory, samples)
                - loocv_predictions(factory, samples, fast=False)
            )
        )
    )

    report = {
        "schema": 1,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "config": {"repeat": args.repeat},
        "dataset_build": {
            "cold_serial_s": round(cold_serial, 4),
            "warm_cache_s": round(warm_cache, 4),
            "warm_speedup": round(cold_serial / warm_cache, 2),
        },
        "static_prepass": {
            "warm_with_prepass_s": round(warm_pre, 4),
            "warm_without_prepass_s": round(warm_nopre, 4),
            "overhead_s": round(warm_pre - warm_nopre, 4),
            "overhead_pct": round(
                100.0 * (warm_pre - warm_nopre) / warm_nopre, 2
            ),
        },
        "loocv_l2": {
            "refit_loop_s": round(refit_s, 5),
            "fast_path_s": round(fast_s, 5),
            "fast_speedup": round(refit_s / fast_s, 2),
            "max_abs_difference": agree,
        },
    }
    if args.pytest_bench:
        report["pytest_benchmarks"] = run_pytest_benchmarks()

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out}")

    experiments_bench, experiments_ok = run_experiments_bench(
        Path(args.experiments_out)
    )

    ok = report["loocv_l2"]["max_abs_difference"] < 1e-8
    warm_ok = report["dataset_build"]["warm_speedup"] >= 1.0
    # The verify+lint gate is memoized; a warm rebuild must not pay
    # more than 5% for it (timer-noise floor of 2 ms for tiny sweeps).
    prepass_ok = (warm_pre - warm_nopre) < max(0.05 * warm_nopre, 0.002)
    if not (ok and warm_ok and prepass_ok and experiments_ok):
        print(
            "SMOKE FAILURE: fast LOOCV disagrees, warm build regressed, "
            "the static prepass costs >5% on a warm rebuild, or the "
            "experiment engine missed its gates"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
