"""Functional executor unit tests (scalar + vector interpretation)."""

import numpy as np
import pytest

from repro.ir import DType, fabs, fsqrt, select
from repro.sim.executor import (
    initial_scalars,
    make_buffers,
    run_scalar,
    run_vector,
)
from repro.targets import ARMV8_NEON
from repro.vectorize import vectorize_loop

from tests.helpers import build


class TestMakeBuffers:
    def test_shapes_and_dtypes(self):
        def body(k):
            a = k.array("a", extents=(64,))
            aa = k.array("aa", extents=(8, 8))
            ip = k.array("ip", dtype=DType.I32, extents=(64,))
            i = k.loop(8)
            a[i] = aa[0, i] + 1.0

        bufs = make_buffers(build("t", body), seed=0)
        assert bufs["a"].shape == (64,) and bufs["a"].dtype == np.float32
        assert bufs["aa"].shape == (8, 8)
        assert bufs["ip"].dtype == np.int32

    def test_int_arrays_stay_in_bounds(self):
        def body(k):
            a = k.array("a", extents=(32,))
            ip = k.array("ip", dtype=DType.I32, extents=(64,))
            i = k.loop(32)
            a[i] = a[ip[i]] * 1.0

        bufs = make_buffers(build("t", body), seed=1)
        # Index values must be valid for the *smallest* array (32).
        assert bufs["ip"].max() < 32
        assert bufs["ip"].min() >= 0

    def test_deterministic(self):
        def body(k):
            a = k.array("a", extents=(16,))
            i = k.loop(16)
            a[i] = a[i] + 1.0

        kern = build("t", body)
        b1 = make_buffers(kern, seed=7)
        b2 = make_buffers(kern, seed=7)
        np.testing.assert_array_equal(b1["a"], b2["a"])

    def test_float_range(self):
        def body(k):
            a = k.array("a", extents=(1000,))
            i = k.loop(10)
            a[i] = a[i] * 1.0

        bufs = make_buffers(build("t", body), seed=0)
        assert bufs["a"].min() >= -1.0 and bufs["a"].max() <= 1.0
        assert (bufs["a"] > 0).any() and (bufs["a"] < 0).any()


class TestScalarRun:
    def test_simple_store(self):
        def body(k):
            a, b = k.arrays("a", "b", )
            i = k.loop(16)
            a[i] = b[i] * 2.0

        kern = build("t", body)
        bufs = make_buffers(kern, seed=0)
        expected = bufs["b"][:16] * np.float32(2.0)
        run_scalar(kern, bufs)
        np.testing.assert_allclose(bufs["a"][:16], expected)

    def test_sum_reduction_value(self):
        def body(k):
            a = k.array("a", extents=(32,))
            s = k.scalar("s")
            i = k.loop(32)
            s.set(s + a[i])

        kern = build("t", body)
        bufs = make_buffers(kern, seed=0)
        r = run_scalar(kern, bufs)
        assert float(r.scalars["s"]) == pytest.approx(
            float(bufs["a"].astype(np.float64).sum()), rel=1e-4
        )

    def test_guard_probs_recorded(self):
        def body(k):
            a, b = k.arrays("a", "b")
            i = k.loop(200)
            with k.if_(b[i] > 0.0):
                a[i] = 1.0

        kern = build("t", body)
        bufs = make_buffers(kern, seed=0)
        r = run_scalar(kern, bufs)
        assert 0 in r.guard_probs
        assert 0.3 < r.guard_probs[0] < 0.7  # uniform(-1,1) data

    def test_truncated_run(self):
        def body(k):
            a = k.array("a", extents=(100,))
            i = k.loop(100)
            a[i] = 5.0

        kern = build("t", body)
        bufs = make_buffers(kern, seed=0)
        r = run_scalar(kern, bufs, max_inner_iters=10)
        assert r.iterations == 10
        assert (bufs["a"][:10] == 5.0).all()
        assert not (bufs["a"][10:] == 5.0).all()

    def test_negative_index_wraps(self):
        def body(k):
            a, b = k.arrays("a", "b")
            i = k.loop(8)
            a[i] = b[i - 1]

        kern = build("t", body)
        bufs = make_buffers(kern, seed=0)
        last = bufs["b"][-1]
        run_scalar(kern, bufs)
        assert bufs["a"][0] == last

    def test_select_and_math(self):
        def body(k):
            a, b = k.arrays("a", "b")
            i = k.loop(16)
            a[i] = select(b[i] > 0.0, fsqrt(b[i]), fabs(b[i]))

        kern = build("t", body)
        bufs = make_buffers(kern, seed=0)
        b = bufs["b"][:16].copy()
        run_scalar(kern, bufs)
        expected = np.where(b > 0, np.sqrt(np.abs(b)), np.abs(b))
        np.testing.assert_allclose(bufs["a"][:16], expected, rtol=1e-6)

    def test_f32_semantics_preserved(self):
        """Arithmetic stays in float32, not promoted to float64."""

        def body(k):
            a, b = k.arrays("a", "b")
            i = k.loop(4)
            a[i] = b[i] + 1e-9

        kern = build("t", body)
        bufs = make_buffers(kern, seed=0)
        b0 = bufs["b"][0]
        run_scalar(kern, bufs)
        # 1e-9 is below f32 resolution near 1.0: must round like f32.
        assert bufs["a"][0] == np.float32(b0 + np.float32(1e-9))


def test_sqrt_guard_emits_remark():
    """A sqrt over negative inputs must execute as sqrt(|x|) (the C
    reference links -ffast-math) *and* leave a diagnostics remark."""
    from repro.analysis.framework.passmanager import default_manager

    def body(k):
        a = k.array("a", extents=(64,))
        b = k.array("b", extents=(64,))
        i = k.loop(64)
        a[i] = fsqrt(b[i])

    kernel = build("sqrtneg", body)
    bufs = make_buffers(kernel, seed=0)
    assert (bufs["b"] < 0).any()  # make_buffers spans [-1, 1]
    expected = np.sqrt(np.abs(bufs["b"])).astype(np.float32)
    run_scalar(kernel, bufs)
    np.testing.assert_array_equal(bufs["a"], expected)
    remarks = default_manager().diagnostics.remarks(
        kernel="sqrtneg", pass_name="executor"
    )
    assert any("sqrt domain guard fired" in r.message for r in remarks)


class TestVectorRun:
    def test_iterations_counted_in_blocks(self):
        def body(k):
            a, b = k.arrays("a", "b")
            i = k.loop(64)
            a[i] = b[i] + 1.0

        kern = build("t", body)
        plan = vectorize_loop(kern, ARMV8_NEON)
        bufs = make_buffers(kern, seed=0)
        r = run_vector(plan, bufs)
        assert r.iterations == 64 // plan.vf

    def test_masked_store_leaves_other_lanes(self):
        def body(k):
            a, b = k.arrays("a", "b")
            i = k.loop(64)
            with k.if_(b[i] > 0.0):
                a[i] = 9.0

        kern = build("t", body)
        plan = vectorize_loop(kern, ARMV8_NEON)
        bufs = make_buffers(kern, seed=0)
        old_a = bufs["a"].copy()
        b = bufs["b"].copy()
        run_vector(plan, bufs)
        taken = b[:64] > 0
        assert (bufs["a"][:64][taken] == 9.0).all()
        np.testing.assert_array_equal(bufs["a"][:64][~taken], old_a[:64][~taken])

    def test_if_else_lanes(self):
        def body(k):
            a, b = k.arrays("a", "b")
            i = k.loop(64)
            with k.if_(b[i] > 0.0):
                a[i] = 1.0
            with k.else_():
                a[i] = -1.0

        kern = build("t", body)
        plan = vectorize_loop(kern, ARMV8_NEON)
        bufs = make_buffers(kern, seed=0)
        b = bufs["b"].copy()
        run_vector(plan, bufs)
        np.testing.assert_array_equal(
            bufs["a"][:64], np.where(b[:64] > 0, 1.0, -1.0).astype(np.float32)
        )

    def test_ordered_scatter_duplicate_indices(self):
        """Scatter with duplicate indices keeps last-lane-wins order."""

        def body(k):
            a, b = k.arrays("a", "b")
            ip = k.array("ip", dtype=DType.I32)
            i = k.loop(8)
            a[ip[i]] = b[i]

        kern = build("t", body)
        plan = vectorize_loop(kern, ARMV8_NEON)
        bufs = make_buffers(kern, seed=0)
        bufs["ip"][:8] = 3  # all lanes hit the same slot
        b = bufs["b"].copy()
        run_vector(plan, bufs)
        assert bufs["a"][3] == b[7]  # the last iteration's value

    def test_initial_scalars_respect_init(self):
        def body(k):
            a = k.array("a")
            p = k.scalar("p", init=1.0)
            i = k.loop(8)
            p.set(p * a[i])

        kern = build("t", body)
        env = initial_scalars(kern)
        assert env["p"] == np.float32(1.0)
