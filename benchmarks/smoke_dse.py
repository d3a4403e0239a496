"""DSE perf smoke: gates the plan-space search engine and emits
``BENCH_dse.json``.

    PYTHONPATH=src python benchmarks/smoke_dse.py [--out PATH]
        [--limit N] [--seed S]

Sections (all run on the TSVC suite, ``--limit`` takes a name-ordered
slice for the CI leg):

* ``regret`` — the E14 arms on the slice.  **Gated**: the deployable
  model-guided arm (``verified``: model prunes to a shortlist,
  measurement decides) must achieve ≥1.0× the natural-VF default's
  geomean speedup.  The pure-model (exhaustive) geomean is recorded
  but not gated — its regret against the oracle is the experiment's
  reported finding, not a regression.
* ``memo``   — the full slice searched cold (empty memo) and warm
  (everything memoized).  **Gated**: warm must be ≥10× faster.
* ``parity`` — serial vs thread-pool searches of the same slice from
  cold caches.  **Gated**: bit-identical ``SearchResult`` payloads.
* ``chaos``  — the slice searched under injected crash faults
  (drained by the engine's bounded retry loop).  **Gated**:
  bit-identical to the unfaulted results.

Exit status 1 when any gate fails, so CI can consume it directly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.costmodel.base import EPS  # noqa: E402
from repro.dse import SEARCHES, search_kernel  # noqa: E402
from repro.experiments.base import fit_cached, make_speedup_model  # noqa: E402
from repro.experiments.dataset import ARM_LLV, build_dataset  # noqa: E402
from repro.pipeline.faultinject import parse_faults  # noqa: E402
from repro.targets.registry import get_target  # noqa: E402
from repro.tsvc.suite import all_kernels  # noqa: E402


def _gm(values) -> float:
    v = np.maximum(np.asarray(values, dtype=np.float64), EPS)
    return float(np.exp(np.mean(np.log(v)))) if v.size else 1.0


def _setup(limit):
    target = get_target(ARM_LLV.target)
    dataset = build_dataset(ARM_LLV)
    model = fit_cached(make_speedup_model("nnls"), dataset.samples)
    kernels = list(all_kernels())
    if limit:
        kernels = kernels[:limit]
    return target, model, kernels


def bench_regret(limit: int, seed: int) -> dict:
    from repro.dse.experiment import run_e14

    names = None
    if limit:
        names = [k.name for k in all_kernels()][:limit]
    result = run_e14(names, seed=seed)
    default = _gm(result.series["default"])
    verified = _gm(result.series["verified"])
    model_gm = _gm(result.series["model"])
    oracle = _gm(result.series["oracle"])
    overall = result.rows[-1]
    return {
        "kernels": int(result.series["kernels"].size),
        "plan_points": int(result.series["n_points"].sum()),
        "default_geomean": round(default, 4),
        "model_geomean": round(model_gm, 4),
        "verified_geomean": round(verified, 4),
        "oracle_geomean": round(oracle, 4),
        "model_top1": overall["top1"],
        "model_top3": overall["top3"],
        # The deployment arm shortlists the default, so ≥ is by
        # construction; the gate guards that construction.
        "gate_model_guided_ge_default": bool(verified >= default - 1e-12),
    }


def bench_memo(target, model, kernels) -> dict:
    SEARCHES.clear()
    t0 = time.perf_counter()
    cold = [search_kernel(k, target, model) for k in kernels]
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = [search_kernel(k, target, model) for k in kernels]
    warm_s = time.perf_counter() - t0
    info = SEARCHES.info()
    speedup = cold_s / max(warm_s, 1e-9)
    identical = [a.to_dict() for a in cold] == [b.to_dict() for b in warm]
    return {
        "kernels": len(kernels),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(speedup, 1),
        "entries": info["entries"],
        "hits": info["hits"],
        "gate_warm_10x": bool(speedup >= 10.0),
        "gate_warm_identical": identical,
    }


def bench_parity(target, model, kernels) -> dict:
    SEARCHES.clear()
    serial = [search_kernel(k, target, model).to_dict() for k in kernels]
    SEARCHES.clear()
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(
            pool.map(
                lambda k: search_kernel(k, target, model).to_dict(), kernels
            )
        )
    return {
        "kernels": len(kernels),
        "gate_serial_parallel_identical": serial == parallel,
    }


def bench_chaos(target, model, kernels) -> dict:
    SEARCHES.clear()
    clean = [search_kernel(k, target, model).to_dict() for k in kernels]
    SEARCHES.clear()
    # 0.2 keeps the worst per-site streak inside the engine's bounded
    # retry budget even at full-suite scale (0.2^5 per site).
    plan = parse_faults("crash:0.2", seed=7)
    faulted = [
        search_kernel(k, target, model, faults=plan).to_dict()
        for k in kernels
    ]
    return {
        "kernels": len(kernels),
        "fault_spec": "crash:0.2 (seed 7)",
        "gate_chaos_identical": clean == faulted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_dse.json")
    parser.add_argument(
        "--limit",
        type=int,
        default=0,
        help="search only the first N suite kernels (0 = full suite)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    target, model, kernels = _setup(args.limit)
    payload = {
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "regret": bench_regret(args.limit, args.seed),
        "memo": bench_memo(target, model, kernels),
        "parity": bench_parity(target, model, kernels),
        "chaos": bench_chaos(target, model, kernels),
    }

    failures = []
    for section, results in payload.items():
        if not isinstance(results, dict) or "skipped" in results:
            continue
        for key, value in results.items():
            if key.startswith("gate_") and not value:
                failures.append(f"{section}.{key}")
    payload["gates_passed"] = not failures
    if failures:
        payload["gate_failures"] = failures

    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"[bench written to {args.out}]")
    if failures:
        print(f"FAIL: {', '.join(failures)}")
        return 1
    print("[dse gates passed]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
