"""E14 — plan-space search regret (beyond the paper).

For every suite kernel on the ARM/LLV configuration, three arms pick a
plan from the same legality-pruned candidate set:

* **default** — the natural-VF LLV plan today's pipeline would emit;
* **model** — the fitted speedup model as cost oracle (exhaustive
  margin-guarded argmax over one batched predict), plus the
  hill-climbing and bandit drivers as search contrasts;
* **verified** — the deployment policy: the model prunes the space to
  a shortlist (default + top-K predicted), measurement decides among
  them; ≥ the default by construction;
* **oracle** — the measured-best point (every candidate measured
  through the analytic pipeline), the regret reference.

Reported per category and overall: geomean achieved speedup per arm,
top-1/top-3 oracle hit-rates of the model arm, and regret (geomean
oracle/model achieved ratio, ≥ 1 by construction).  The headline gate
— model-guided (verified arm) ≥ 1.0× geomean over the default — lives
in ``benchmarks/smoke_dse.py`` / ``BENCH_dse.json``; the pure-model
regret numbers are the experiment's finding (the count featurization
is ILP-blind and mis-ranks strided unroll variants).

``python -m repro.experiments dse`` runs this standalone (with
``--limit`` for the CI slice); the suite scheduler treats E14 as
explicit-only, like E13.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from ..costmodel.base import EPS
from ..experiments.base import ExperimentResult, fit_cached, make_speedup_model
from ..experiments.dataset import ARM_LLV, build_dataset
from ..targets.registry import get_target
from ..tsvc.suite import all_kernels
from .engine import search_kernel
from .oracle import default_index
from .points import PlanSpace, measure_points

#: Drivers compared per kernel; "exhaustive" is the pure-model arm,
#: "verified" the deployable model-pruned/measured one.
E14_DRIVERS = ("exhaustive", "hill_climb", "bandit", "verified")


def _geomean(values: Sequence[float]) -> float:
    if not values:
        return 1.0
    return float(
        math.exp(sum(math.log(max(v, EPS)) for v in values) / len(values))
    )


def _evaluate_kernel(kernel, target, model, seed: int) -> dict:
    """One kernel's regret cell: every driver vs measured ground truth.

    The drivers and the measure-everything pass share one plan space,
    so each recipe is vectorized once per kernel.
    """
    space = PlanSpace(kernel, target)
    results = {
        d: search_kernel(kernel, target, model, driver=d, seed=seed, space=space)
        for d in E14_DRIVERS
    }
    points = results["exhaustive"].points
    meas = measure_points(kernel, target, points, space=space)
    measured = [m.speedup if m.ok else 0.0 for m in meas]
    d_idx = default_index(points)
    oracle_idx = d_idx
    for i in range(len(points)):
        if measured[i] > measured[oracle_idx]:
            oracle_idx = i
    ranked = sorted(range(len(points)), key=lambda i: (-measured[i], i))
    model_idx = results["exhaustive"].best_index
    return {
        "kernel": kernel.name,
        "category": kernel.category,
        "n_points": len(points),
        "default": measured[d_idx],
        "oracle": measured[oracle_idx],
        "oracle_point": points[oracle_idx].label(),
        "achieved": {d: measured[results[d].best_index] for d in E14_DRIVERS},
        "picked": {d: results[d].best.label() for d in E14_DRIVERS},
        "evaluations": {d: results[d].evaluations for d in E14_DRIVERS},
        "top1": model_idx == oracle_idx
        or measured[model_idx] == measured[oracle_idx],
        "top3": any(
            measured[model_idx] == measured[i] for i in ranked[:3]
        ),
    }


def run_e14(
    kernel_names: Optional[Sequence[str]] = None,
    *,
    seed: int = 0,
) -> ExperimentResult:
    """The regret experiment (see module docstring).

    Every kernel cell is computed independently and deterministically,
    one after another.
    """
    target = get_target(ARM_LLV.target)
    dataset = build_dataset(ARM_LLV)
    model = fit_cached(make_speedup_model("nnls"), dataset.samples)

    kernels = list(all_kernels())
    if kernel_names is not None:
        wanted = set(kernel_names)
        kernels = [k for k in kernels if k.name in wanted]

    cells = [_evaluate_kernel(k, target, model, seed) for k in kernels]

    by_cat: dict[str, list[dict]] = {}
    for c in cells:
        by_cat.setdefault(c["category"], []).append(c)

    def _row(label: str, group: list[dict]) -> dict:
        return {
            "category": label,
            "kernels": len(group),
            "default": round(_geomean([c["default"] for c in group]), 3),
            "model": round(
                _geomean([c["achieved"]["exhaustive"] for c in group]), 3
            ),
            "oracle": round(_geomean([c["oracle"] for c in group]), 3),
            "top1": round(
                sum(1 for c in group if c["top1"]) / max(len(group), 1), 3
            ),
            "top3": round(
                sum(1 for c in group if c["top3"]) / max(len(group), 1), 3
            ),
            "regret": round(
                _geomean(
                    [
                        c["oracle"] / max(c["achieved"]["exhaustive"], EPS)
                        for c in group
                    ]
                ),
                3,
            ),
        }

    rows = [_row(cat, group) for cat, group in sorted(by_cat.items())]
    rows.append(_row("overall", cells))

    driver_rows = [
        {
            "driver": d,
            "geomean": round(
                _geomean([c["achieved"][d] for c in cells]), 3
            ),
            "top1": round(
                sum(
                    1 for c in cells if c["achieved"][d] == c["oracle"]
                )
                / max(len(cells), 1),
                3,
            ),
            "mean_evaluations": round(
                float(np.mean([c["evaluations"][d] for c in cells]))
                if cells
                else 0.0,
                1,
            ),
        }
        for d in E14_DRIVERS
    ]

    result = ExperimentResult(
        id="E14",
        title="Plan-space DSE regret: model-guided vs oracle-best vs default",
    )
    result.rows = rows
    result.tables = [("search drivers (overall)", driver_rows)]
    result.series = {
        "kernels": np.array([c["kernel"] for c in cells]),
        "default": np.array([c["default"] for c in cells]),
        "model": np.array([c["achieved"]["exhaustive"] for c in cells]),
        "oracle": np.array([c["oracle"] for c in cells]),
        "bandit": np.array([c["achieved"]["bandit"] for c in cells]),
        "hill_climb": np.array(
            [c["achieved"]["hill_climb"] for c in cells]
        ),
        "verified": np.array([c["achieved"]["verified"] for c in cells]),
        "n_points": np.array([c["n_points"] for c in cells]),
    }
    overall = rows[-1]
    verified_gm = round(
        _geomean([c["achieved"]["verified"] for c in cells]), 3
    )
    result.notes = (
        f"{len(cells)} kernels, {int(result.series['n_points'].sum())} plan "
        f"points; model {overall['model']}x vs default {overall['default']}x "
        f"vs verified {verified_gm}x vs oracle {overall['oracle']}x geomean; "
        "the exhaustive arm spends model predictions, the bandit spends "
        "measurements, verified spends a model-pruned shortlist of "
        "measurements."
    )
    return result


def main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.experiments dse`` — run E14 standalone."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments dse",
        description="Model-guided plan-space search regret (E14).",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="evaluate only the first N suite kernels (CI slice)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also dump rows/driver tables as JSON",
    )
    args = parser.parse_args(argv)

    names = None
    if args.limit is not None:
        names = [k.name for k in all_kernels()][: max(args.limit, 0)]
    result = run_e14(names, seed=args.seed)
    print(result.to_text())
    if args.json:
        payload = {
            "rows": result.rows,
            "tables": {t: r for t, r in result.tables},
            "notes": result.notes,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"[written to {args.json}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
