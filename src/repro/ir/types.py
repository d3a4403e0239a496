"""Scalar and vector data types for the loop IR.

The IR is deliberately small: the cost-model study only needs the data
types that TSVC exercises (single/double floats plus 32/64-bit integers
for index and mask computation).  Types carry their byte size so the
memory model and the vectorizer (lanes = vector_bits / (8 * size)) can
derive everything else from them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DType(enum.Enum):
    """Element data type of IR values and array elements."""

    __hash__ = object.__hash__  # members are singletons: hash by identity

    F32 = "f32"
    F64 = "f64"
    I32 = "i32"
    I64 = "i64"
    BOOL = "bool"

    @property
    def size(self) -> int:
        """Size of one element in bytes (mask bits are stored per lane)."""
        return _SIZES[self]

    @property
    def is_float(self) -> bool:
        return self in (DType.F32, DType.F64)

    @property
    def is_int(self) -> bool:
        return self in (DType.I32, DType.I64)

    @property
    def is_bool(self) -> bool:
        return self is DType.BOOL

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DType.{self.name}"


_SIZES = {
    DType.F32: 4,
    DType.F64: 8,
    DType.I32: 4,
    DType.I64: 8,
    # Masks are modelled as one byte per lane (predicate registers /
    # byte masks are target details the IR does not care about).
    DType.BOOL: 1,
}


@dataclass(frozen=True)
class VecType:
    """A vector of ``lanes`` elements of ``elem`` type."""

    elem: DType
    lanes: int

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError(f"vector lanes must be >= 1, got {self.lanes}")

    @property
    def bits(self) -> int:
        return self.elem.size * 8 * self.lanes

    @property
    def size(self) -> int:
        return self.elem.size * self.lanes

    def __str__(self) -> str:
        return f"<{self.lanes} x {self.elem.value}>"


def lanes_for(dtype: DType, vector_bits: int) -> int:
    """Number of lanes a full vector register of ``vector_bits`` holds."""
    if vector_bits % (dtype.size * 8) != 0:
        raise ValueError(
            f"{vector_bits}-bit vector cannot hold whole {dtype.value} lanes"
        )
    return vector_bits // (dtype.size * 8)


def common_type(a: DType, b: DType) -> DType:
    """The result type of a binary arithmetic op on ``a`` and ``b``.

    Mirrors C-style promotion restricted to the types the IR supports:
    float beats int, wider beats narrower.  Bool does not participate in
    arithmetic promotion and must be converted explicitly.
    """
    if a is b:
        return a
    if DType.BOOL in (a, b):
        raise TypeError("bool does not participate in arithmetic promotion")
    if a.is_float or b.is_float:
        floats = [t for t in (a, b) if t.is_float]
        return max(floats, key=lambda t: t.size)
    return max((a, b), key=lambda t: t.size)
