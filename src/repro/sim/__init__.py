"""Simulation: functional execution (correctness) and analytical timing."""

from .executor import (
    ExecResult,
    eval_expr,
    initial_scalars,
    make_buffers,
    run_scalar,
    run_scalar_interpreted,
    run_vector,
)
from .timing import (
    CycleBreakdown,
    analyze_stream,
    memory_bound,
    overhead_cycles,
    recurrence_bound,
    resource_bound,
)
from .measure import (
    GUARD_PROBS,
    GUARD_SAMPLE_ITERS,
    MeasuredSample,
    apply_jitter,
    estimate_guard_probs,
    measure_kernel,
    measure_plan,
)

__all__ = [
    "ExecResult",
    "eval_expr",
    "initial_scalars",
    "make_buffers",
    "run_scalar",
    "run_scalar_interpreted",
    "run_vector",
    "CycleBreakdown",
    "analyze_stream",
    "memory_bound",
    "overhead_cycles",
    "recurrence_bound",
    "resource_bound",
    "GUARD_PROBS",
    "GUARD_SAMPLE_ITERS",
    "MeasuredSample",
    "apply_jitter",
    "estimate_guard_probs",
    "measure_kernel",
    "measure_plan",
]
