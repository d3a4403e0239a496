"""SLP lowering internals: guard-prob expansion, hybrid streams."""

import pytest

from repro.codegen.scalar_gen import lower_scalar
from repro.codegen.slp_gen import _count_guards, _expanded_guard_probs, lower_slp
from repro.sim.measure import estimate_guard_probs, measure_kernel
from repro.sim.timing import analyze_stream
from repro.targets import X86_AVX2
from repro.targets.classes import IClass
from repro.tsvc import get_kernel
from repro.vectorize import slp_vectorize
from repro.vectorize.plan import enumerate_plan_points

from tests.helpers import build


def guarded_mixed(k):
    a, b, c = k.arrays("a", "b", "c")
    i = k.loop(256)
    a[i] = b[i] * 2.0  # packable
    with k.if_(c[i] > 0.0):  # stays scalar (SLP has no if-conversion)
        c[i] = b[i] + 1.0


def test_count_guards():
    kern = build("t", guarded_mixed)
    assert _count_guards(kern.body[0]) == 0
    assert _count_guards(kern.body[1]) == 1


def test_expanded_probs_replicated_per_copy():
    kern = build("t", guarded_mixed)
    expanded = _expanded_guard_probs(
        kern, packed=frozenset({0}), factor=4, original={0: 0.3}
    )
    # The one original guard expands to 4 copies with the same prob.
    assert expanded == {0: 0.3, 1: 0.3, 2: 0.3, 3: 0.3}


def test_expanded_probs_skip_packed_guards():
    def body(k):
        a, b = k.arrays("a", "b")
        i = k.loop(256)
        a[i] = b[i] * 2.0

    kern = build("t", body)
    assert _expanded_guard_probs(kern, frozenset({0}), 8, {}) == {}


def test_hybrid_stream_has_scalar_guard_weights():
    kern = build("t", guarded_mixed)
    plan = slp_vectorize(kern, X86_AVX2)
    assert plan.packed_stmts == {0}
    stream = lower_slp(plan, X86_AVX2)
    # The guarded scalar copies carry a measured (~0.5) weight.
    guarded_stores = [
        ins
        for ins in stream.body
        if ins.iclass is IClass.STORE and ins.lanes == 1
    ]
    assert len(guarded_stores) == 8
    assert all(0.1 < ins.weight < 0.9 for ins in guarded_stores)
    # The packed statement is full-width.
    vec_store = [
        ins
        for ins in stream.body
        if ins.iclass is IClass.STORE and ins.lanes == 8
    ]
    assert len(vec_store) == 1


def test_slp_stream_timing_finite():
    kern = build("t", guarded_mixed)
    plan = slp_vectorize(kern, X86_AVX2)
    stream = lower_slp(plan, X86_AVX2)
    br = analyze_stream(stream, X86_AVX2)
    assert 0 < br.total < float("inf")


def test_slp_reduction_gets_epilogue():
    def body(k):
        a, b = k.arrays("a", "b")
        s = k.scalar("s")
        i = k.loop(256)
        a[i] = b[i] * 2.0
        s.set(s + b[i])

    kern = build("t", body)
    plan = slp_vectorize(kern, X86_AVX2)
    assert plan.packed_stmts == {0, 1}
    stream = lower_slp(plan, X86_AVX2)
    assert any(ins.iclass is IClass.REDUCE for ins in stream.epilogue)


def _fractional_weights(stream) -> set:
    return {ins.weight for ins in stream.body if ins.weight != 1.0}


@pytest.mark.parametrize("name", ["s273", "s274", "s278"])
def test_slp_stream_weighs_guards_like_the_scalar_baseline(name):
    """At seed 1 the SLP stream's unpacked guarded copies and the scalar
    baseline both read the measurement's own guard probabilities; seed 0
    estimates differ for these kernels, so a lowering that fell back to
    them would show."""
    from repro.dse.points import PlanSpace

    kernel = get_kernel(name)
    probs = estimate_guard_probs(kernel, seed=1)
    assert probs != estimate_guard_probs(kernel, seed=0)
    m = measure_kernel(kernel, X86_AVX2, vectorizer="slp", seed=1)
    assert m.guard_probs == probs
    assert m.scalar_stream.body == lower_scalar(kernel, X86_AVX2, guard_probs=probs).body
    assert m.vector_stream.body == lower_slp(m.plan, X86_AVX2, probs).body
    assert _fractional_weights(m.vector_stream) == _fractional_weights(m.scalar_stream)

    space = PlanSpace(kernel, X86_AVX2, seed=1)
    point = next(
        p for p in enumerate_plan_points(kernel, X86_AVX2) if p.strategy == "slp"
    )
    stream = space.stream(point, X86_AVX2)
    assert stream.body == lower_slp(space.plan(point), X86_AVX2, probs).body
    assert _fractional_weights(stream) <= _fractional_weights(space.scalar_stream)
