"""Experiment drivers reproducing every figure of the paper."""

from .base import ENGINE, ExperimentResult, fit_cached, loocv_cached
from .dataset import (
    ARM_LLV,
    DATASETS,
    DEFAULT_JITTER,
    Dataset,
    DatasetSpec,
    X86_SLP,
    build_dataset,
)
from .categories import category_report, worst_categories
from .corpus import (
    corpus_kernel_names,
    publish_corpus_model,
    run_e13,
)
from .registry import EXPERIMENTS, EXPLICIT_ONLY, run_all, run_experiment
from .reporting import ascii_table, fail_summary, text_scatter
from .scheduler import SuiteRun, bench_suite, run_suite, seed_mode

__all__ = [
    "ENGINE",
    "ExperimentResult",
    "fit_cached",
    "loocv_cached",
    "SuiteRun",
    "bench_suite",
    "run_suite",
    "seed_mode",
    "ARM_LLV",
    "DATASETS",
    "DEFAULT_JITTER",
    "Dataset",
    "DatasetSpec",
    "X86_SLP",
    "build_dataset",
    "category_report",
    "worst_categories",
    "EXPERIMENTS",
    "EXPLICIT_ONLY",
    "corpus_kernel_names",
    "publish_corpus_model",
    "run_all",
    "run_e13",
    "run_experiment",
    "ascii_table",
    "fail_summary",
    "text_scatter",
]
