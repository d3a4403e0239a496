"""IR lint rules and the pipeline verify+lint pre-pass."""

from repro.analysis.framework import AnalysisManager, Severity, lint_kernel
from repro.ir.expr import CmpKind, Compare, Const
from repro.pipeline.build import static_prepass
from repro.tsvc import all_kernels

from tests.helpers import build


def lint(kern):
    return lint_kernel(kern, AnalysisManager())


def messages(kern, severity=None):
    return [
        r.message
        for r in lint(kern)
        if severity is None or r.severity is severity
    ]


class TestDeadArrayStores:
    def test_overwritten_store_warns(self):
        def body(k):
            a, b, c = k.arrays("a", "b", "c")
            i = k.loop(64)
            a[i] = b[i]      # S0: dead, S1 rewrites a[i] unread
            a[i] = c[i]      # S1

        warns = messages(build("t", body), Severity.WARNING)
        assert any("dead store" in m and "S0" in m for m in warns)

    def test_intervening_read_suppresses(self):
        def body(k):
            a, b, c, d = k.arrays("a", "b", "c", "d")
            i = k.loop(64)
            a[i] = b[i]
            c[i] = a[i] * 2.0
            a[i] = d[i]

        assert messages(build("t", body), Severity.WARNING) == []

    def test_different_locations_do_not_warn(self):
        def body(k):
            a, b, c = k.arrays("a", "b", "c")
            i = k.loop(64)
            a[i] = b[i]
            a[i + 1] = c[i]

        assert messages(build("t", body), Severity.WARNING) == []

    def test_guarded_store_not_flagged(self):
        def body(k):
            a, b, c = k.arrays("a", "b", "c")
            i = k.loop(64)
            with k.if_(b[i] > 0.0):
                a[i] = b[i]
            a[i] = c[i]

        assert messages(build("t", body), Severity.WARNING) == []


class TestDeadScalarDefs:
    def test_unread_assignment_warns(self):
        def body(k):
            a, b, c = k.arrays("a", "b", "c")
            t = k.scalar("t")
            i = k.loop(64)
            t.set(b[i])      # S0: dead
            t.set(c[i])      # S1
            a[i] = t + 1.0

        warns = messages(build("t", body), Severity.WARNING)
        assert any("scalar 't'" in m and "never read" in m for m in warns)

    def test_live_defs_quiet(self):
        def body(k):
            a, b = k.arrays("a", "b")
            t = k.scalar("t")
            i = k.loop(64)
            t.set(b[i])
            a[i] = t + 1.0

        assert messages(build("t", body), Severity.WARNING) == []


class TestUnusedDeclarations:
    def test_unused_array_and_scalar_warn(self):
        def body(k):
            a, b = k.arrays("a", "b")
            k.array("ghost")
            k.scalar("phantom")
            i = k.loop(64)
            a[i] = b[i] + 1.0

        warns = messages(build("t", body), Severity.WARNING)
        assert any("array 'ghost'" in m for m in warns)
        assert any("scalar 'phantom'" in m for m in warns)

    def test_param_only_read_is_used(self):
        def body(k):
            a, b = k.arrays("a", "b")
            s = k.param("s", value=2.0)
            i = k.loop(64)
            a[i] = b[i] * s

        assert messages(build("t", body), Severity.WARNING) == []


class TestConstantGuards:
    def test_always_true_guard_warns(self):
        def body(k):
            a, b = k.arrays("a", "b")
            i = k.loop(64)
            with k.if_(Compare(CmpKind.GT, Const(1.0), Const(0.0))):
                a[i] = b[i]

        warns = messages(build("t", body), Severity.WARNING)
        assert any("always true" in m and "else branch is dead" in m for m in warns)

    def test_data_dependent_guard_quiet(self):
        def body(k):
            a, b = k.arrays("a", "b")
            i = k.loop(64)
            with k.if_(b[i] > 0.0):
                a[i] = b[i]

        assert messages(build("t", body), Severity.WARNING) == []


class TestVectorizationHazards:
    def test_indirect_subscript_is_remark_not_warning(self):
        def body(k):
            from repro.ir.types import DType

            a, b = k.arrays("a", "b")
            ip = k.array("ip", dtype=DType.I32)
            i = k.loop(64)
            a[ip[i]] = b[i]

        remarks = lint(build("t", body))
        hazards = [r for r in remarks if "non-affine subscript" in r.message]
        assert hazards and all(r.severity is Severity.REMARK for r in hazards)
        assert any("gather/scatter" in r.message for r in hazards)

    def test_invariant_statement_remark(self):
        def body(k):
            a, b = k.arrays("a", "b")
            i = k.loop(64)
            a[3] = 2.0
            b[i] = b[i] + 1.0

        remarks = lint(build("t", body))
        assert any("inner-loop invariant" in r.message for r in remarks)


class TestSuiteIsClean:
    def test_no_warnings_or_errors_on_tsvc(self):
        am = AnalysisManager()
        noisy = {
            kern.name: [r.format() for r in lint_kernel(kern, am)
                        if r.severity.rank >= Severity.WARNING.rank]
            for kern in all_kernels()
        }
        noisy = {k: v for k, v in noisy.items() if v}
        assert noisy == {}, f"suite kernels with lint warnings: {noisy}"

    def test_static_prepass_accepts_suite_and_memoizes(self):
        kernels = list(all_kernels())
        static_prepass(kernels)  # must not raise
        from repro.pipeline.build import PREPASSED

        before = PREPASSED.info()
        static_prepass(kernels)
        after = PREPASSED.info()
        assert after["hits"] - before["hits"] == len(kernels)
        assert after["misses"] == before["misses"]
