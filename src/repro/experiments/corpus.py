"""E13: learning curves on the synthetic kernel corpus (beyond the paper).

The paper fits on the 151-loop TSVC suite; the obvious question it
cannot answer is whether the linear models are *data-starved* — would
ten times the loops move the needle?  The property-based generator
(:mod:`repro.gen`) makes the question testable: it samples arbitrarily
many valid kernels from the suite's own category taxonomy, and the
corpus sweep (:mod:`repro.pipeline.corpus`) measures them.

E13 sweeps a nested sequence of corpora (suite ⊂ suite+generated ⊂ …,
default sizes 151/400/800/1500 — ``REPRO_E13_SIZES`` overrides), fits
the serving model (NNLS speedup over count features — the exact shape
``repro.serve`` publishes) at every size, and evaluates each fit on a
*held-out* generated corpus drawn from a different generator seed.
Rows report per-target eval RMSE and vectorize/don't decision accuracy
vs training-corpus size; the largest fit also gets a per-category
breakdown table on the eval corpus.

``python -m repro.experiments corpus …`` is the standalone CLI over
the same machinery (sweep a corpus, print throughput, optionally
publish the fitted model into a serve registry); ``--publish`` is the
registry hook the serve CI job smoke-tests.

E13 is *explicit-only*: ``all`` does not include it (a 1,500-kernel
sweep would distort the E1–E12 bench gates), so it runs only when
asked for by id, via the ``corpus`` CLI, or from the corpus CI job.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

import numpy as np

from ..costmodel.base import Sample, predict_all
from ..gen import corpus_names
from ..pipeline.corpus import measure_corpus
from ..settings import current, use
from ..validation.metrics import confusion, rmse
from .base import ExperimentResult, fit_cached, make_speedup_model
from .categories import category_report
from .dataset import ARM_LLV, X86_SLP, DatasetSpec

__all__ = [
    "corpus_kernel_names",
    "main",
    "publish_corpus_model",
    "run_e13",
]

#: Generator seed for the held-out eval corpus.  Must differ from the
#: training seed (0): eval kernels are sampled from the same taxonomy
#: but are never in any training corpus.
EVAL_SEED = 1


def corpus_kernel_names(size: int, *, seed: int = 0) -> list[str]:
    """The deterministic corpus of ``size`` kernel names.

    Suite kernels first (sorted, truncated when ``size`` is smaller
    than the suite), then generated names filling up to ``size``.
    Because ``corpus_names`` is prefix-stable, corpora of increasing
    size are *nested* — every kernel of the size-400 corpus is in the
    size-800 corpus — so learning curves measure added data, not a
    reshuffled sample.
    """
    from ..tsvc import kernel_names

    suite = sorted(kernel_names())
    if size <= len(suite):
        return suite[:size]
    return suite + corpus_names(size - len(suite), seed=seed)


def _eval_row(model, samples: Sequence[Sample]) -> dict:
    preds = predict_all(model, samples)
    measured = np.array([s.measured_speedup for s in samples])
    c = confusion(preds, measured)
    return {
        "eval rmse": round(rmse(preds, measured), 3),
        "decision acc": round(c.accuracy, 3),
        "false": c.false_predictions,
    }


def run_e13(
    spec_arm: Optional[DatasetSpec] = None,
    spec_x86: Optional[DatasetSpec] = None,
    *,
    sizes: Optional[Sequence[int]] = None,
    eval_size: Optional[int] = None,
) -> ExperimentResult:
    """Learning curves: eval RMSE / decision accuracy vs corpus size.

    For each target, every training corpus is a prefix-nested superset
    of the previous one; the eval corpus is generated from a disjoint
    seed and never trained on.  The fitted model at the largest size is
    stashed in ``result.series`` metadata consumers (the ``corpus`` CLI
    ``--publish`` hook) can reuse without refitting.
    """
    sizes = tuple(sizes) if sizes is not None else current().e13_sizes
    eval_size = int(eval_size) if eval_size is not None else current().e13_eval
    res = ExperimentResult(
        "E13",
        "Learning curves on the synthetic kernel corpus "
        f"(sizes {', '.join(str(s) for s in sizes)})",
    )
    notes: list[str] = []
    final_models: dict[str, object] = {}
    final_samples: dict[str, list[Sample]] = {}
    for tag, spec, default in (
        ("arm", spec_arm, ARM_LLV),
        ("x86", spec_x86, X86_SLP),
    ):
        spec = default if spec is None else spec
        eval_names = corpus_names(eval_size, seed=EVAL_SEED)
        # Same measurement identity as training: only the kernel set
        # (a different generator seed) separates eval from train.
        eval_res = measure_corpus(eval_names, spec)
        if not eval_res.samples:
            raise RuntimeError(
                f"E13 eval corpus produced no vectorized samples for "
                f"{spec.label}"
            )
        last_model = None
        for size in sizes:
            names = corpus_kernel_names(size, seed=spec.seed)
            train = measure_corpus(names, spec)
            model = fit_cached(make_speedup_model("nnls"), train.samples)
            row = {
                "dataset": spec.label,
                "corpus": size,
                "vectorized": len(train.samples),
                **_eval_row(model, eval_res.samples),
            }
            res.rows.append(row)
            last_model = model
            if train.quarantined_names:
                notes.append(
                    f"{spec.label}@{size}: quarantined "
                    f"{', '.join(train.quarantined_names)}"
                )
            if size == sizes[-1]:
                final_models[tag] = model
                final_samples[tag] = list(train.samples)
        if last_model is not None:
            res.tables.append(
                (
                    f"{spec.label}: per-category eval breakdown "
                    f"(corpus {sizes[-1]}, eval n={len(eval_res.samples)})",
                    category_report(eval_res.samples, last_model),
                )
            )
        measured = np.array(
            [s.measured_speedup for s in eval_res.samples]
        )
        res.series[f"eval-measured-{tag}"] = measured
    res.notes = (
        "eval corpus is generated from seed "
        f"{EVAL_SEED} (disjoint from training); training corpora are "
        "prefix-nested. " + ("; ".join(notes) if notes else "no quarantines.")
    )
    # Non-serializable driver outputs for the publish hook; excluded
    # from to_text()/series comparisons by convention (dict, not rows).
    res.__dict__["_corpus_models"] = final_models
    res.__dict__["_corpus_samples"] = final_samples
    return res


def publish_corpus_model(
    model,
    samples: Sequence[Sample],
    spec: DatasetSpec,
    registry_root: str,
    *,
    max_rmse: Optional[float] = None,
):
    """Package an E13 fit and publish it into an on-disk registry.

    The entry's version is derived from the corpus fingerprint (the
    sample set hashes into ``dataset_fingerprint``), so republishing
    the same corpus is idempotent and a grown corpus gets a new
    version.  Returns the published :class:`ModelEntry`.
    """
    from ..serve.registry import ModelRegistry, entry_from_model

    entry = entry_from_model(
        model,
        list(samples),
        target=spec.target,
        vectorizer=spec.vectorizer,
    )
    registry = ModelRegistry(registry_root)
    return registry.publish(entry, max_rmse=max_rmse)


def main(argv: Optional[list[str]] = None) -> int:
    """The ``python -m repro.experiments corpus …`` CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments corpus",
        description="Sweep a generated kernel corpus, fit the serving "
        "model, and optionally publish it to a registry.",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=1500,
        help="total corpus size incl. the TSVC suite (default: %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool workers under a deadline or a fault plan",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="generator seed (default: 0)"
    )
    parser.add_argument(
        "--spec",
        default="arm",
        choices=("arm", "x86"),
        help="measurement spec (default: arm)",
    )
    parser.add_argument(
        "--publish",
        action="store_true",
        help="fit the serving model on the corpus and publish it",
    )
    parser.add_argument(
        "--registry",
        default=None,
        metavar="DIR",
        help="registry root for --publish (default: REPRO_SERVE_REGISTRY "
        "env or <cache>/registry, the one serve reads)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        dest="json_out",
        help="also write a machine-readable summary to FILE",
    )
    args = parser.parse_args(argv)
    use(current().replace(workers=args.workers, serve_registry=args.registry))

    spec = {"arm": ARM_LLV, "x86": X86_SLP}[args.spec]
    names = corpus_kernel_names(args.size, seed=args.seed)
    t0 = time.perf_counter()
    result = measure_corpus(names, spec)
    sweep_s = time.perf_counter() - t0
    print(
        f"[corpus] {spec.label}: {len(names)} kernels -> "
        f"{len(result.samples)} vectorized, "
        f"{len(result.failures)} not vectorizable, "
        f"{len(result.quarantined_names)} quarantined in {sweep_s:.1f}s"
    )
    summary = {
        "spec": spec.label,
        "size": args.size,
        "vectorized": len(result.samples),
        "not_vectorizable": len(result.failures),
        "quarantined": result.quarantined_names,
        "sweep_s": round(sweep_s, 3),
    }
    status = 1 if result.quarantined_names else 0
    if args.publish or args.json_out:
        model = fit_cached(make_speedup_model("nnls"), result.samples)
        row = _eval_row(model, result.samples)
        print(
            f"[corpus] in-sample: rmse {row['eval rmse']}, "
            f"decision accuracy {row['decision acc']}"
        )
        summary["fit"] = row
        if args.publish:
            root = current().registry_dir
            entry = publish_corpus_model(
                model, result.samples, spec, root
            )
            print(
                f"[corpus] published {entry.target}/{entry.vectorizer} "
                f"version {entry.version} (corpus fingerprint "
                f"{entry.dataset_fingerprint[:12]}) to {root}"
            )
            summary["published_version"] = entry.version
            summary["registry"] = str(root)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"[corpus] summary written to {args.json_out}")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
