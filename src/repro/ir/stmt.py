"""Statements of the loop IR.

A kernel body is a flat-or-guarded sequence of statements executed once
per innermost-loop iteration.  Control flow inside the body is limited
to structured ``IfBlock``s — exactly the shape that if-conversion turns
into masked vector code, and the shape TSVC's control-flow kernels use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .expr import Expr, Load, Subscript


class Stmt:
    """Base class of IR statements."""

    def walk(self) -> Iterator["Stmt"]:
        yield self

    def exprs(self) -> tuple[Expr, ...]:
        """All top-level expression roots this statement evaluates."""
        return ()


@dataclass(frozen=True)
class ArrayStore(Stmt):
    """``array[subscript] = value``."""

    array: str
    subscript: Subscript
    value: Expr

    def exprs(self) -> tuple[Expr, ...]:
        return (self.value,)

    def __str__(self) -> str:
        idx = "][".join(str(ix) for ix in self.subscript)
        return f"{self.array}[{idx}] = {self.value};"


@dataclass(frozen=True)
class ScalarAssign(Stmt):
    """``name = value`` for a kernel-local scalar.

    When ``value`` references ``name`` itself the assignment is a scalar
    recurrence; the reduction analysis decides whether it is a
    vectorizable reduction (+, *, min, max) or a serializing recurrence.
    """

    name: str
    value: Expr

    def exprs(self) -> tuple[Expr, ...]:
        return (self.value,)

    def __str__(self) -> str:
        return f"{self.name} = {self.value};"


@dataclass(frozen=True)
class IfBlock(Stmt):
    """Structured conditional; vectorized by if-conversion (masking)."""

    cond: Expr
    then_body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...] = field(default_factory=tuple)

    def walk(self) -> Iterator[Stmt]:
        yield self
        for s in self.then_body:
            yield from s.walk()
        for s in self.else_body:
            yield from s.walk()

    def exprs(self) -> tuple[Expr, ...]:
        return (self.cond,)

    def __str__(self) -> str:
        then_src = " ".join(str(s) for s in self.then_body)
        if self.else_body:
            else_src = " ".join(str(s) for s in self.else_body)
            return f"if ({self.cond}) {{ {then_src} }} else {{ {else_src} }}"
        return f"if ({self.cond}) {{ {then_src} }}"


def walk_stmts(body: tuple[Stmt, ...]) -> Iterator[Stmt]:
    """All statements in ``body``, descending into IfBlocks."""
    for s in body:
        yield from s.walk()


def all_loads(body: tuple[Stmt, ...]) -> Iterator[Load]:
    """Every Load expression anywhere in ``body`` (conditions included)."""
    for s in walk_stmts(body):
        for root in s.exprs():
            yield from root.loads()


def all_stores(body: tuple[Stmt, ...]) -> Iterator[ArrayStore]:
    for s in walk_stmts(body):
        if isinstance(s, ArrayStore):
            yield s

