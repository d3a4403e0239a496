"""Measurement harness tests."""

import pytest

from repro.sim.measure import (
    apply_jitter,
    estimate_guard_probs,
    measure_kernel,
)
from repro.targets import ARMV8_NEON, X86_AVX2
from repro.tsvc import get_kernel
from repro.vectorize.plan import VectorizationFailure

from tests.helpers import SMALL, build

import numpy as np


def test_measure_simple_kernel():
    def body(k):
        a, b = k.arrays("a", "b")
        i = k.loop(256)
        a[i] = b[i] + 1.0

    m = measure_kernel(build("t", body), ARMV8_NEON)
    assert m.speedup > 1.0
    assert m.vf == 4
    assert m.scalar_cycles > m.vector_cycles > 0


def test_failure_propagates():
    def body(k):
        a, b = k.arrays("a", "b")
        i = k.loop(256)
        a[i] = a[i - 1] + b[i]

    m = measure_kernel(build("t", body), ARMV8_NEON)
    assert isinstance(m, VectorizationFailure)


def test_deterministic_without_jitter():
    kern = get_kernel("s000", SMALL)
    m1 = measure_kernel(kern, ARMV8_NEON, jitter=0.0)
    m2 = measure_kernel(kern, ARMV8_NEON, jitter=0.0)
    assert m1.speedup == m2.speedup


def test_jitter_deterministic_per_seed():
    kern = get_kernel("s000", SMALL)
    m1 = measure_kernel(kern, ARMV8_NEON, jitter=0.05, seed=3)
    m2 = measure_kernel(kern, ARMV8_NEON, jitter=0.05, seed=3)
    m3 = measure_kernel(kern, ARMV8_NEON, jitter=0.05, seed=4)
    assert m1.speedup == m2.speedup
    assert m1.speedup != m3.speedup


def test_jitter_bounded():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = apply_jitter(100.0, rng, 0.02)
        assert 100 * (1 - 0.06) <= v <= 100 * (1 + 0.06)


def test_zero_jitter_identity():
    rng = np.random.default_rng(0)
    assert apply_jitter(42.0, rng, 0.0) == 42.0


def test_guard_probs_estimated_for_guarded_kernel():
    probs = estimate_guard_probs(get_kernel("s271", SMALL))
    assert 0 in probs
    assert 0.2 < probs[0] < 0.8


def test_guard_probs_empty_without_guards():
    assert estimate_guard_probs(get_kernel("s000", SMALL)) == {}


def test_guard_probs_memoized_per_kernel_and_seed(monkeypatch):
    """Measuring several plans of one kernel runs the estimator once.

    Every computation, on the grid path (s271's) or the interpreter's,
    starts from one ``make_buffers`` call: that is what is counted.
    """
    import repro.sim.measure as measure_mod

    measure_mod.GUARD_PROBS.clear()
    kern = get_kernel("s271", SMALL)
    runs = []
    real_make = measure_mod.make_buffers

    def counting_make(*args, **kwargs):
        runs.append(1)
        return real_make(*args, **kwargs)

    monkeypatch.setattr(measure_mod, "make_buffers", counting_make)
    first = estimate_guard_probs(kern, seed=0)
    second = estimate_guard_probs(kern, seed=0)
    assert first == second
    assert len(runs) == 1  # second call memoized
    estimate_guard_probs(kern, seed=1)
    assert len(runs) == 2  # different seed recomputes
    # Callers get independent copies, never a shared dict.
    first[0] = -1.0
    assert estimate_guard_probs(kern, seed=0)[0] != -1.0
    assert len(runs) == 2


def test_guard_memo_distinguishes_kernel_objects():
    """Same-named kernels at different dims must not share probabilities."""
    import repro.sim.measure as measure_mod

    measure_mod.GUARD_PROBS.clear()
    from repro.tsvc import Dims

    a = get_kernel("s271", SMALL)
    b = get_kernel("s271", Dims(n=480, n2=16))
    assert a is not b
    pa = estimate_guard_probs(a)
    pb = estimate_guard_probs(b)
    assert set(pa) == set(pb)  # same guard structure, separate entries


def test_remainder_charged_to_vector_time():
    def body(k, trip):
        a, b = k.arrays("a", "b")
        i = k.loop(trip)
        a[i] = b[i] + 1.0

    def mk(trip):
        from repro.ir import KernelBuilder

        kb = KernelBuilder("t")
        body(kb, trip)
        return kb.build()

    exact = measure_kernel(mk(256), ARMV8_NEON)
    ragged = measure_kernel(mk(259), ARMV8_NEON)
    # 259 = 64 vector iterations + 3 scalar tail iterations.
    assert ragged.vector_cycles > exact.vector_cycles


def test_slp_vectorizer_selectable():
    kern = get_kernel("s000", SMALL)
    m = measure_kernel(kern, X86_AVX2, vectorizer="slp")
    assert m.plan.kind == "slp"
    with pytest.raises(ValueError):
        measure_kernel(kern, X86_AVX2, vectorizer="polly")


def test_explicit_vf():
    kern = get_kernel("s000", SMALL)
    m = measure_kernel(kern, ARMV8_NEON, vf=2)
    assert m.vf == 2


def test_ir_stream_attached():
    kern = get_kernel("vag", SMALL)  # gather kernel
    m = measure_kernel(kern, ARMV8_NEON)
    from repro.costmodel import class_count, feature_vector
    from repro.targets.classes import IClass

    ir_feats = feature_vector(m.ir_vector_stream)
    hw_feats = feature_vector(m.vector_stream)
    assert class_count(ir_feats, IClass.GATHER) == 1
    assert class_count(hw_feats, IClass.GATHER) == 0  # NEON scalarizes
    assert class_count(hw_feats, IClass.INSERT) == 4
