"""Property-based kernel generation (see DESIGN.md §14).

``repro.gen`` owns the synthetic side of the corpus: deterministic
name→kernel generation over the TSVC category taxonomy
(:mod:`.generator`) and counterexample minimization for its property
tests (:mod:`.shrink`).  The TSVC registry delegates unknown names of
the form ``gx{seed}_{index}_{category}`` here, so generated kernels
flow through every existing pipeline layer — supervised pools rebuild
them by name, sweep checkpoints resume them, the chaos harness
faults them — without those layers knowing the corpus exists.
"""

from .generator import (
    GEN_CATEGORIES,
    GEN_LEN,
    GEN_LEN2,
    GenerationError,
    KERNELS,
    corpus_names,
    gen_name,
    generate_kernel,
    is_generated_name,
    parse_gen_name,
)
from .shrink import kernel_size, shrink_kernel

__all__ = [
    "GEN_CATEGORIES",
    "GEN_LEN",
    "GEN_LEN2",
    "GenerationError",
    "KERNELS",
    "corpus_names",
    "gen_name",
    "generate_kernel",
    "is_generated_name",
    "parse_gen_name",
    "kernel_size",
    "shrink_kernel",
]
