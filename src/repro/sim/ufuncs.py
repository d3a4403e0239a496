"""The one table of numpy ufuncs behind every IR operator.

The interpreter in :mod:`.executor` evaluates IR operators through the
tables below, in both its scalar and its lane-parallel mode.

``SQRT`` deserves its note: C's ``sqrtf`` on a negative input returns
NaN, which would poison every downstream comparison and reduction in a
functional run over random test data.  The IR therefore defines SQRT as
``sqrt(|x|)`` — a *domain guard*, not an approximation of C.  The guard
used to be silent; it now counts how often it actually rewrites negative
inputs (per process, see :func:`sqrt_guard_fires`) so the measurement
layer can emit a diagnostics remark for kernels whose data depends on
the guarded semantics.
"""

from __future__ import annotations

import numpy as np

from ..ir.expr import BinOpKind, CmpKind, UnOpKind
from ..ir.types import DType

NP_DTYPE = {
    DType.F32: np.float32,
    DType.F64: np.float64,
    DType.I32: np.int32,
    DType.I64: np.int64,
    DType.BOOL: np.bool_,
}

#: Process-wide count of sqrt evaluations whose input contained at
#: least one negative element (scalar runs count per evaluation, array
#: runs per whole-array application).
_SQRT_GUARD_FIRES = 0


def guarded_sqrt(x):
    """``sqrt(|x|)`` — the IR's total version of C's partial ``sqrt``.

    Counts applications that actually hit the guard (a negative input)
    so callers can surface the rewrite instead of silently changing the
    kernel's arithmetic.
    """
    global _SQRT_GUARD_FIRES
    if np.any(np.less(x, 0)):
        _SQRT_GUARD_FIRES += 1
    return np.sqrt(np.abs(x))


def sqrt_guard_fires() -> int:
    return _SQRT_GUARD_FIRES


def cast_value(x, target):
    """Cast ``x`` to the numpy ``target`` type with C conversion rules.

    Scalars stay scalars, arrays stay arrays, and a value already of
    ``target`` type passes through untouched (bit-identical).
    """
    arr = np.asarray(x)
    if arr.dtype == target:
        return x
    out = arr.astype(target)
    return out if out.shape else out[()]


BINOPS = {
    BinOpKind.ADD: np.add,
    BinOpKind.SUB: np.subtract,
    BinOpKind.MUL: np.multiply,
    BinOpKind.DIV: np.divide,
    BinOpKind.MIN: np.minimum,
    BinOpKind.MAX: np.maximum,
    BinOpKind.AND: np.bitwise_and,
    BinOpKind.OR: np.bitwise_or,
    BinOpKind.XOR: np.bitwise_xor,
    BinOpKind.SHL: np.left_shift,
    BinOpKind.SHR: np.right_shift,
}

UNOPS = {
    UnOpKind.NEG: np.negative,
    UnOpKind.ABS: np.abs,
    UnOpKind.SQRT: guarded_sqrt,
    UnOpKind.EXP: np.exp,
    UnOpKind.NOT: np.logical_not,
}

CMPS = {
    CmpKind.LT: np.less,
    CmpKind.LE: np.less_equal,
    CmpKind.GT: np.greater,
    CmpKind.GE: np.greater_equal,
    CmpKind.EQ: np.equal,
    CmpKind.NE: np.not_equal,
}
