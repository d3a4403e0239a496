"""One driver per paper figure (E1…E11, plus E12 — see DESIGN.md §4)."""

from __future__ import annotations

from typing import Optional

from ..costmodel.featurize import describe
from ..costmodel.llvm_like import LLVMLikeCostModel
from ..validation.decisions import (
    always_cycles,
    never_cycles,
    oracle_cycles,
    policy_cycles,
)
from ..validation.metrics import evaluate
from .base import (
    ExperimentResult,
    fit_and_report,
    fit_cached,
    loocv_cached,
    make_baseline,
    make_cost_model,
    make_rated_model,
    make_speedup_model,
    scatter_for,
)
from .dataset import ARM_LLV, X86_SLP, Dataset, DatasetSpec, build_dataset
from .reporting import fail_summary, quarantine_summary


def _dataset(spec: Optional[DatasetSpec], default: DatasetSpec) -> Dataset:
    return build_dataset(spec or default)


# ---------------------------------------------------------------------------
# E1 — state-of-the-art analysis, ARM (slide 4)
# ---------------------------------------------------------------------------


def run_e1(spec: Optional[DatasetSpec] = None) -> ExperimentResult:
    """LLVM-style static cost model vs measurement on ARMv8 NEON."""
    ds = _dataset(spec, ARM_LLV)
    res = ExperimentResult(
        "E1",
        "State of the art: static cost model on ARMv8 (TSVC, LLV, "
        "forced vectorization, no unroll/interleave)",
    )
    measured = ds.measured
    report, preds = fit_and_report(make_baseline(), ds.samples, measured, fit=False)
    res.rows.append(
        {
            **report.row(),
            "vectorized": len(ds.samples),
            "excluded": len(ds.failures),
            "quarantined": len(ds.quarantined),
        }
    )
    scatter_for(res, "llvm-static", preds, measured)
    res.notes = (
        f"{ds.summary()}. Not vectorizable: {fail_summary(ds.failures)}. "
        f"Quarantined by the sweep: {quarantine_summary(ds.quarantined)}. "
        "The static model's coarse per-opcode costs ignore latency "
        "chains, port pressure and memory bandwidth — hence the weak "
        "correlation the paper opens with."
    )
    return res


# ---------------------------------------------------------------------------
# E2 — linear modelling worked example (slide 6)
# ---------------------------------------------------------------------------


def run_e2(spec: Optional[DatasetSpec] = None) -> ExperimentResult:
    """The slide-6 worked example: block equations and implied costs."""
    ds = _dataset(spec, ARM_LLV)
    res = ExperimentResult(
        "E2", "Linear modelling example: block equations and fitted costs"
    )
    model = fit_cached(make_cost_model("nnls"), ds.samples)
    static = LLVMLikeCostModel()
    for name in ("s000", "s312"):
        try:
            s = ds.sample(name)
        except KeyError:
            continue
        c_scalar = static.scalar_cost(s)
        fitted_cost = model.vector_cost(s)
        implied = model.implied_vector_cost(s)
        res.rows.append(
            {
                "kernel": name,
                "c_scalar (static)": round(c_scalar, 2),
                "c_vector (fitted)": round(fitted_cost, 2),
                "c_vector (implied by measurement)": round(implied, 2),
                "estimated speedup": round(s.vf * c_scalar / max(fitted_cost, 1e-9), 2),
                "measured speedup": round(s.measured_speedup, 2),
            }
        )
        res.notes += (
            f"{name} vector-block equation counts: "
            f"{describe(s.vector_features)}\n"
        )
    res.notes += (
        "Matches the slide's construction: the scalar block cost is the "
        "static count, the vector block's target cost is implied by the "
        "measured speedup, and the weights are fitted across the suite."
    )
    return res


# ---------------------------------------------------------------------------
# E3 — fitted for speedup, ARM (slide 8)
# ---------------------------------------------------------------------------


def run_e3(spec: Optional[DatasetSpec] = None) -> ExperimentResult:
    """Speedup-target fitting with L2 and NNLS on the ARM dataset."""
    ds = _dataset(spec, ARM_LLV)
    res = ExperimentResult("E3", "Fitted for speedup (ARM): L2 and NNLS")
    measured = ds.measured
    base_report, base_preds = fit_and_report(
        make_baseline(), ds.samples, measured, fit=False
    )
    res.rows.append(base_report.row())
    for method in ("l2", "nnls"):
        report, preds = fit_and_report(
            make_speedup_model(method), ds.samples, measured
        )
        res.rows.append(report.row())
        scatter_for(res, f"speedup-{method}", preds, measured)
    res.notes = (
        "Targets live in (0, VF] instead of the wide block-cost "
        "interval. On our simulated NEON the count-based fit improves "
        "RMSE but not Pearson over the baseline (our static tables are "
        "better calibrated than real LLVM 6.0's were); the correlation "
        "gain arrives with the rated features (E4), and on x86 the "
        "count fits already beat the baseline outright (E11)."
    )
    return res


# ---------------------------------------------------------------------------
# E4 — rated instruction count, ARM (slide 10)
# ---------------------------------------------------------------------------


def run_e4(spec: Optional[DatasetSpec] = None) -> ExperimentResult:
    """Composition (fraction-of-block) features vs raw counts."""
    ds = _dataset(spec, ARM_LLV)
    res = ExperimentResult(
        "E4", "Fitted with rated instruction count (ARM): block composition"
    )
    measured = ds.measured
    for method in ("l2", "nnls", "svr"):
        report, _ = fit_and_report(make_speedup_model(method), ds.samples, measured)
        res.rows.append({"features": "counts", **report.row()})
    for method in ("l2", "nnls", "svr"):
        report, preds = fit_and_report(make_rated_model(method), ds.samples, measured)
        res.rows.append({"features": "rated", **report.row()})
        if method == "nnls":
            scatter_for(res, "rated-nnls", preds, measured)
    res.notes = (
        "Replacing counts with the type's share of the block exposes "
        "arithmetic intensity (memory-bound blocks look different), "
        "lifting correlation above every count-based fit."
    )
    return res


# ---------------------------------------------------------------------------
# E5 / E8 — LOOCV (slides 11 and 16)
# ---------------------------------------------------------------------------


def _loocv_experiment(
    eid: str, title: str, method: str, spec: Optional[DatasetSpec]
) -> ExperimentResult:
    ds = _dataset(spec, ARM_LLV)
    res = ExperimentResult(eid, title)
    measured = ds.measured
    for label, factory in (
        (f"speedup-{method}", lambda: make_speedup_model(method)),
        (f"rated-{method}", lambda: make_rated_model(method)),
    ):
        fit_report, _ = fit_and_report(factory(), ds.samples, measured)
        loocv_preds = loocv_cached(factory, ds.samples)
        loocv_report = evaluate(label, loocv_preds, measured)
        res.rows.append({"setting": "fit-all", **fit_report.row()})
        res.rows.append({"setting": "LOOCV", **loocv_report.row()})
        if label.startswith("rated"):
            scatter_for(res, f"loocv-{label}", loocv_preds, measured)
    res.notes = (
        "Each kernel is predicted by a model fitted on the other "
        f"{len(ds.samples) - 1} kernels; correlation drops only "
        "slightly vs fitting on everything, so the model generalizes."
    )
    return res


def run_e5(spec: Optional[DatasetSpec] = None) -> ExperimentResult:
    return _loocv_experiment(
        "E5", "Leave-one-out cross validation, NNLS (ARM)", "nnls", spec
    )


def run_e8(spec: Optional[DatasetSpec] = None) -> ExperimentResult:
    return _loocv_experiment(
        "E8", "Leave-one-out cross validation, L2 (ARM)", "l2", spec
    )


# ---------------------------------------------------------------------------
# E6 — conclusion metrics (slide 12)
# ---------------------------------------------------------------------------


def run_e6(spec: Optional[DatasetSpec] = None) -> ExperimentResult:
    """Correlation up, false predictions down, execution time down."""
    ds = _dataset(spec, ARM_LLV)
    res = ExperimentResult(
        "E6", "Refined cost model: correlation, false predictions, runtime"
    )
    measured = ds.measured
    base_report, base_preds = fit_and_report(
        make_baseline(), ds.samples, measured, fit=False
    )
    rated = make_rated_model("nnls")
    rated_report, rated_preds = fit_and_report(rated, ds.samples, measured)
    rated_loocv = loocv_cached(lambda: make_rated_model("nnls"), ds.samples)

    res.rows.append(base_report.row())
    res.rows.append(rated_report.row())
    res.rows.append(evaluate("rated-NNLS (LOOCV)", rated_loocv, measured).row())

    policies = [
        never_cycles(ds.samples),
        always_cycles(ds.samples),
        policy_cycles(ds.samples, base_preds, name="llvm-static policy"),
        policy_cycles(ds.samples, rated_preds, name="rated-NNLS policy"),
        policy_cycles(ds.samples, rated_loocv, name="rated-NNLS LOOCV policy"),
        oracle_cycles(ds.samples),
    ]
    res.tables.append(
        (
            "Suite execution time under each decision policy",
            [
                {
                    "policy": p.name,
                    "suite cycles/elem": round(p.cycles, 2),
                    "loops vectorized": f"{p.vectorized}/{p.total}",
                }
                for p in policies
            ],
        )
    )
    res.notes = (
        "The refined model raises correlation, cuts false predictions, "
        "and its vectorize-iff-predicted-beneficial policy lands closer "
        "to the oracle runtime than the static model's policy."
    )
    return res


# ---------------------------------------------------------------------------
# E7 — LLV vs SLP on one loop (slide 15)
# ---------------------------------------------------------------------------


def run_e7(target_name: str = "armv8-neon", kernel_name: str = "s273") -> ExperimentResult:
    """Compare two transformations of the same loop (slide 15's setup).

    The slide ran its example on an Intel i5; on our simulated AVX2
    machine the example loop is bandwidth-bound either way, so the NEON
    core — where LLV's if-conversion and SLP's partial packing price
    the guarded statement very differently — shows the effect the
    slide is after (see EXPERIMENTS.md).
    """
    from ..sim.measure import measure_kernel
    from ..targets.registry import get_target
    from ..tsvc.suite import get_kernel
    from ..costmodel.base import sample_from_measurement

    res = ExperimentResult(
        "E7",
        f"Why aligned cost models: LLV vs SLP on the same loop ({kernel_name})",
    )
    target = get_target(target_name)
    kern = get_kernel(kernel_name)
    # The memoized dataset build + engine memo: E7 shares both the
    # sweep and the fitted rated-NNLS model with E4/E5/E6 instead of
    # paying for its own.
    ds = _dataset(None, X86_SLP if target_name.startswith("x86") else ARM_LLV)
    rated = fit_cached(make_rated_model("nnls"), ds.samples)
    static = make_baseline()

    for vec in ("llv", "slp"):
        m = measure_kernel(kern, target, vectorizer=vec, jitter=0.0)
        if not hasattr(m, "speedup"):
            res.rows.append({"pass": vec.upper(), "result": str(m)})
            continue
        s = sample_from_measurement(m)
        res.rows.append(
            {
                "pass": vec.upper(),
                "static predicted": round(static.predict_speedup(s), 2),
                "fitted predicted": round(rated.predict_speedup(s), 2),
                "measured": round(s.measured_speedup, 2),
            }
        )
    res.notes = (
        "An aligned (fitted) cost model makes the two transformations' "
        "estimates comparable with each other, not just against the "
        "scalar baseline — the slide-15 motivation."
    )
    return res


# ---------------------------------------------------------------------------
# E9 — state of the art, x86 (slide 17)
# ---------------------------------------------------------------------------


def run_e9(spec: Optional[DatasetSpec] = None) -> ExperimentResult:
    ds = _dataset(spec, X86_SLP)
    res = ExperimentResult(
        "E9",
        "State of the art: static model on x86 AVX2 (TSVC, SLP after "
        "unrolling)",
    )
    measured = ds.measured
    report, preds = fit_and_report(make_baseline(), ds.samples, measured, fit=False)
    res.rows.append(
        {
            **report.row(),
            "vectorized": len(ds.samples),
            "excluded": len(ds.failures),
            "quarantined": len(ds.quarantined),
        }
    )
    scatter_for(res, "llvm-static-x86", preds, measured)
    res.notes = (
        f"{ds.summary()}. Not vectorizable: {fail_summary(ds.failures)}. "
        f"Quarantined by the sweep: {quarantine_summary(ds.quarantined)}."
    )
    return res


# ---------------------------------------------------------------------------
# E10 — fitted for cost, x86 (slide 18)
# ---------------------------------------------------------------------------


def run_e10(spec: Optional[DatasetSpec] = None) -> ExperimentResult:
    ds = _dataset(spec, X86_SLP)
    res = ExperimentResult(
        "E10", "Fitted for cost (x86): L2, NNLS, SVR on block-cost targets"
    )
    measured = ds.measured
    res.rows.append(
        fit_and_report(make_baseline(), ds.samples, measured, fit=False)[0].row()
    )
    for method in ("l2", "nnls", "svr"):
        report, preds = fit_and_report(make_cost_model(method), ds.samples, measured)
        res.rows.append(report.row())
        if method == "nnls":
            scatter_for(res, "cost-nnls-x86", preds, measured)
    res.notes = (
        "Cost targets span a huge interval (slide 7's complaint), so "
        "the fits are unstable — exactly the motivation for fitting "
        "speedup instead."
    )
    return res


# ---------------------------------------------------------------------------
# E11 — fitted for speedup, x86 (slide 19)
# ---------------------------------------------------------------------------


def run_e11(spec: Optional[DatasetSpec] = None) -> ExperimentResult:
    ds = _dataset(spec, X86_SLP)
    res = ExperimentResult(
        "E11", "Fitted for speedup (x86): L2, NNLS, SVR improve further"
    )
    measured = ds.measured
    for method in ("l2", "nnls", "svr"):
        report, preds = fit_and_report(
            make_speedup_model(method), ds.samples, measured
        )
        res.rows.append({"features": "counts", **report.row()})
    for method in ("l2", "nnls", "svr"):
        report, preds = fit_and_report(make_rated_model(method), ds.samples, measured)
        res.rows.append({"features": "rated", **report.row()})
        if method == "nnls":
            scatter_for(res, "rated-nnls-x86", preds, measured)
    res.notes = (
        "For every fitting method the speedup-target fit (count or "
        "rated features) beats its cost-target counterpart from E10, "
        "and the rated variants drive false negatives to (near) zero "
        "at the price of a small false-positive increase — slide 19's "
        "exact trade-off."
    )
    return res


# ---------------------------------------------------------------------------
# E12 — LOOCV SVR, both targets (beyond the paper)
# ---------------------------------------------------------------------------


def _rated_svr_factory():
    return make_rated_model("svr")


def run_e12(
    spec_arm: Optional[DatasetSpec] = None,
    spec_x86: Optional[DatasetSpec] = None,
) -> ExperimentResult:
    """Out-of-sample SVR: the LOOCV figure the paper never ran.

    Slides 11/16 give LOOCV numbers for NNLS and L2 only — SVR was the
    one fitting method left without an out-of-sample figure, because N
    full L-BFGS-B solves per configuration made it by far the slowest
    sweep.  The warm-started fold solver (seeded from a polished full
    fit, certified via strong convexity, cold-refit on certificate
    failure) makes the sweep affordable on both targets; the
    certificate acceptance rate is reported in the notes.
    """
    res = ExperimentResult(
        "E12",
        "LOOCV SVR (rated features, warm-started folds): ARM and x86",
    )
    fold_notes = []
    for tag, spec, default in (
        ("arm", spec_arm, ARM_LLV),
        ("x86", spec_x86, X86_SLP),
    ):
        ds = _dataset(spec, default)
        measured = ds.measured
        fit_report, _ = fit_and_report(
            _rated_svr_factory(), ds.samples, measured
        )
        stats: dict = {}
        loocv_preds = loocv_cached(_rated_svr_factory, ds.samples, stats=stats)
        loocv_report = evaluate("rated-SVR", loocv_preds, measured)
        res.rows.append(
            {"dataset": ds.spec.label, "setting": "fit-all", **fit_report.row()}
        )
        res.rows.append(
            {"dataset": ds.spec.label, "setting": "LOOCV", **loocv_report.row()}
        )
        scatter_for(res, f"loocv-rated-svr-{tag}", loocv_preds, measured)
        warm = stats.get("svr_warm")
        if warm is not None:
            fold_notes.append(
                f"{ds.spec.label}: {warm}, {warm.rejected} cold fallback(s)"
            )
        else:
            fold_notes.append(f"{ds.spec.label}: cold refit loop")
    res.notes = (
        "Warm-start certificates — " + "; ".join(fold_notes) + ". "
        "Every accepted fold is provably within the certificate gap of "
        "its true deleted-point optimum; rejected folds were refit "
        "cold, so the table is a genuine LOOCV, just cheaper."
    )
    return res
