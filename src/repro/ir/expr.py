"""Expression trees of the loop IR.

Expressions are immutable trees.  Array subscripts are *structured*: an
index is either affine in the loop variables (``c0*i0 + c1*i1 + off``)
or an indirect lookup through an integer array (``ind[affine]``).  This
is what lets the dependence analysis and the access-pattern classifier
work symbolically instead of re-discovering structure from generic
arithmetic, mirroring how scalar-evolution feeds LLVM's vectorizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterator, Union

from .types import DType, common_type


class BinOpKind(enum.Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MIN = "min"
    MAX = "max"
    AND = "&"
    OR = "|"
    XOR = "^"
    SHL = "<<"
    SHR = ">>"


#: Binary ops that require integer (or bool for AND/OR/XOR) operands.
INT_ONLY_BINOPS = frozenset(
    {BinOpKind.AND, BinOpKind.OR, BinOpKind.XOR, BinOpKind.SHL, BinOpKind.SHR}
)

#: Ops usable as vectorizable reduction operators (associative).
REDUCTION_BINOPS = frozenset(
    {BinOpKind.ADD, BinOpKind.MUL, BinOpKind.MIN, BinOpKind.MAX}
)


class UnOpKind(enum.Enum):
    __hash__ = object.__hash__

    NEG = "neg"
    ABS = "abs"
    SQRT = "sqrt"
    EXP = "exp"
    NOT = "not"


class CmpKind(enum.Enum):
    __hash__ = object.__hash__

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="


# ---------------------------------------------------------------------------
# Subscript structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """Affine index ``sum(coeffs[l] * loop_var[l]) + offset``.

    ``coeffs`` has one entry per loop level of the owning kernel (level 0
    is the outermost loop).  A constant subscript has all-zero coeffs.
    """

    coeffs: tuple[int, ...]
    offset: int = 0

    def coeff(self, level: int) -> int:
        return self.coeffs[level] if level < len(self.coeffs) else 0

    def shifted(self, delta: int) -> "Affine":
        return Affine(self.coeffs, self.offset + delta)

    def at_depth(self, depth: int) -> "Affine":
        """Pad/truncate the coefficient tuple to ``depth`` levels."""
        cs = self.coeffs[:depth] + (0,) * (depth - len(self.coeffs))
        return Affine(cs, self.offset)

    @property
    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        names = "ijk"
        parts = [
            (f"{c}*{names[lvl]}" if c != 1 else names[lvl])
            for lvl, c in enumerate(self.coeffs)
            if c != 0
        ]
        if self.offset or not parts:
            parts.append(str(self.offset))
        return "+".join(parts).replace("+-", "-")


@dataclass(frozen=True)
class Indirect:
    """Indirect index: value of ``array[index]`` (an integer array)."""

    array: str
    index: Affine

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"


Index = Union[Affine, Indirect]
Subscript = tuple  # tuple[Index, ...] — one entry per array dimension


def affine1(coeff: int = 1, offset: int = 0, *, level: int = 0, depth: int = 1) -> Affine:
    """Convenience constructor: ``coeff * loop_var[level] + offset``."""
    coeffs = [0] * depth
    if level >= depth:
        raise ValueError(f"level {level} out of range for depth {depth}")
    coeffs[level] = coeff
    return Affine(tuple(coeffs), offset)


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for all expression nodes.

    Nodes are immutable, so each keeps what is costly to recompute on
    itself, in slots beside the dataclass fields: its hash (value
    numbering probes the same nodes many times per lowering), the
    arrays it loads and, for loads, its printed form and linearized
    subscript.  Pickles carry the fields only: string hashes are
    salted per process.
    """

    __slots__ = ("_hash", "_loaded_arrays")

    dtype: DType

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._hash_fields(self))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        return self.__dict__

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of this subtree (including self)."""
        yield self
        for c in self.children():
            yield from c.walk()

    def loads(self) -> Iterator["Load"]:
        for node in self.walk():
            if isinstance(node, Load):
                yield node

    def loaded_arrays(self) -> tuple[str, ...]:
        """Names of the arrays this subtree loads, in walk order, once each."""
        try:
            return self._loaded_arrays
        except AttributeError:
            names = tuple(dict.fromkeys(node.array for node in self.loads()))
            object.__setattr__(self, "_loaded_arrays", names)
            return names


def _node(cls):
    """``cls`` as a frozen dataclass node that hashes once (see :class:`Expr`).

    The hash is the dataclass one, ``hash`` of the field tuple; only
    where it is kept changes.
    """
    cls = dataclass(frozen=True)(cls)
    cls._hash_fields = attrgetter(*(f.name for f in fields(cls)))
    cls.__hash__ = Expr.__hash__
    return cls


@_node
class Const(Expr):
    value: float
    dtype: DType = DType.F32

    def __str__(self) -> str:
        return repr(self.value) if self.dtype.is_float else str(int(self.value))


@_node
class ScalarRef(Expr):
    """A named scalar: kernel parameter, temporary, or reduction accumulator."""

    name: str
    dtype: DType = DType.F32

    def __str__(self) -> str:
        return self.name


@_node
class IterValue(Expr):
    """The loop variable of ``level`` used as an arithmetic value."""

    level: int = 0
    dtype: DType = DType.I32

    def __str__(self) -> str:
        return "ijk"[self.level]


@_node
class Load(Expr):
    array: str
    subscript: Subscript
    dtype: DType = DType.F32

    #: Printed form and linearized subscript, kept like the hash.
    __slots__ = ("_str", "_linearized", "__dict__")

    def children(self) -> tuple[Expr, ...]:
        return ()

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            idx = "][".join(str(ix) for ix in self.subscript)
            text = f"{self.array}[{idx}]"
            object.__setattr__(self, "_str", text)
            return text


@_node
class BinOp(Expr):
    op: BinOpKind
    lhs: Expr
    rhs: Expr
    dtype: DType = field(init=False)

    def __post_init__(self) -> None:
        if self.op in INT_ONLY_BINOPS and (
            self.lhs.dtype.is_float or self.rhs.dtype.is_float
        ):
            raise TypeError(f"{self.op.value} requires integer operands")
        object.__setattr__(
            self, "dtype", common_type(self.lhs.dtype, self.rhs.dtype)
        )

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def __str__(self) -> str:
        if self.op in (BinOpKind.MIN, BinOpKind.MAX):
            return f"{self.op.value}({self.lhs}, {self.rhs})"
        return f"({self.lhs} {self.op.value} {self.rhs})"


@_node
class UnOp(Expr):
    op: UnOpKind
    operand: Expr
    dtype: DType = field(init=False)

    def __post_init__(self) -> None:
        if self.op is UnOpKind.NOT and not self.operand.dtype.is_bool:
            raise TypeError("logical not requires a bool operand")
        if self.op in (UnOpKind.SQRT, UnOpKind.EXP) and not self.operand.dtype.is_float:
            raise TypeError(f"{self.op.value} requires a float operand")
        object.__setattr__(self, "dtype", self.operand.dtype)

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.op.value}({self.operand})"


@_node
class Compare(Expr):
    op: CmpKind
    lhs: Expr
    rhs: Expr
    dtype: DType = field(default=DType.BOOL, init=False)

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"({self.lhs} {self.op.value} {self.rhs})"


@_node
class Select(Expr):
    """``cond ? if_true : if_false`` — the if-converted form of control flow."""

    cond: Expr
    if_true: Expr
    if_false: Expr
    dtype: DType = field(init=False)

    def __post_init__(self) -> None:
        if not self.cond.dtype.is_bool:
            raise TypeError("select condition must be bool")
        object.__setattr__(
            self, "dtype", common_type(self.if_true.dtype, self.if_false.dtype)
        )

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.if_true, self.if_false)

    def __str__(self) -> str:
        return f"({self.cond} ? {self.if_true} : {self.if_false})"


@_node
class Convert(Expr):
    operand: Expr
    dtype: DType

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.dtype.value})({self.operand})"
