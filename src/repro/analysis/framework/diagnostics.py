"""Structured, severity-tagged optimization remarks.

Mirrors LLVM's ``-Rpass`` machinery: every analysis or transform
decision worth explaining becomes a :class:`Remark` with kernel and
statement provenance plus a structured key/value payload, collected by
a :class:`Diagnostics` engine.  Rendered text follows the clang shape
``<kernel>:<stmt>: remark: <message> [-Rpass=<pass>]`` so suite-wide
sweeps stay grep-able, and ``to_json()`` gives the machine-readable
form the ``analyze`` CLI emits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional


class Severity(enum.Enum):
    """Remark severities, ordered: remark < warning < error."""

    REMARK = "remark"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]


_SEVERITY_RANK = {Severity.REMARK: 0, Severity.WARNING: 1, Severity.ERROR: 2}

#: clang renders the three remark families with different flags; we
#: keep the same convention so output reads like ``-Rpass`` output.
_RPASS_FLAG = {
    Severity.REMARK: "-Rpass",
    Severity.WARNING: "-Rpass-missed",
    Severity.ERROR: "-Rpass-analysis",
}


@dataclass(frozen=True)
class Remark:
    """One structured diagnostic with kernel/statement provenance.

    ``stmt_index`` is the pre-order statement position in the kernel
    body (``S0``, ``S1``, …, matching :func:`stmt_list` ordering);
    ``args`` is the structured payload — ``(("array", "a"),
    ("distance", "1"))`` — that machine consumers read instead of
    parsing the message.
    """

    severity: Severity
    pass_name: str
    kernel: str
    message: str
    stmt_index: Optional[int] = None
    stmt: Optional[str] = None
    args: tuple[tuple[str, str], ...] = ()

    def arg(self, key: str) -> Optional[str]:
        for k, v in self.args:
            if k == key:
                return v
        return None

    def format(self) -> str:
        loc = self.kernel if self.stmt_index is None else f"{self.kernel}:S{self.stmt_index}"
        flag = _RPASS_FLAG[self.severity]
        return f"{loc}: {self.severity.value}: {self.message} [{flag}={self.pass_name}]"

    def to_dict(self) -> dict:
        return {
            "severity": self.severity.value,
            "flag": _RPASS_FLAG[self.severity],
            "pass": self.pass_name,
            "kernel": self.kernel,
            "message": self.message,
            "stmt_index": self.stmt_index,
            "stmt": self.stmt,
            "args": dict(self.args),
        }

    def __str__(self) -> str:
        return self.format()


@dataclass
class Diagnostics:
    """Collects remarks, deduplicated, in emission order."""

    _remarks: list[Remark] = field(default_factory=list)
    _seen: set[Remark] = field(default_factory=set)

    def emit(self, remark: Remark) -> Remark:
        if remark not in self._seen:
            self._seen.add(remark)
            self._remarks.append(remark)
        return remark

    def extend(self, remarks: Iterable[Remark]) -> None:
        for r in remarks:
            self.emit(r)

    # -- convenience emitters ----------------------------------------------

    def remark(self, pass_name: str, kernel: str, message: str, **kw) -> Remark:
        return self.emit(_make(Severity.REMARK, pass_name, kernel, message, **kw))

    def warning(self, pass_name: str, kernel: str, message: str, **kw) -> Remark:
        return self.emit(_make(Severity.WARNING, pass_name, kernel, message, **kw))

    def error(self, pass_name: str, kernel: str, message: str, **kw) -> Remark:
        return self.emit(_make(Severity.ERROR, pass_name, kernel, message, **kw))

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._remarks)

    def __iter__(self) -> Iterator[Remark]:
        return iter(self._remarks)

    def remarks(
        self,
        kernel: Optional[str] = None,
        severity: Optional[Severity] = None,
        pass_name: Optional[str] = None,
        min_severity: Optional[Severity] = None,
    ) -> list[Remark]:
        out = self._remarks
        if kernel is not None:
            out = [r for r in out if r.kernel == kernel]
        if severity is not None:
            out = [r for r in out if r.severity is severity]
        if min_severity is not None:
            out = [r for r in out if r.severity.rank >= min_severity.rank]
        if pass_name is not None:
            out = [r for r in out if r.pass_name == pass_name]
        return list(out)

    @property
    def has_errors(self) -> bool:
        return any(r.severity is Severity.ERROR for r in self._remarks)

    @property
    def has_warnings(self) -> bool:
        return any(r.severity.rank >= Severity.WARNING.rank for r in self._remarks)

    def max_severity(self, kernel: Optional[str] = None) -> Optional[Severity]:
        sel = self.remarks(kernel=kernel)
        if not sel:
            return None
        return max((r.severity for r in sel), key=lambda s: s.rank)

    def to_json(self) -> list[dict]:
        return [r.to_dict() for r in self._remarks]

    def clear(self) -> None:
        self._remarks.clear()
        self._seen.clear()


def _make(
    severity: Severity,
    pass_name: str,
    kernel: str,
    message: str,
    *,
    stmt_index: Optional[int] = None,
    stmt: Optional[str] = None,
    args: Iterable[tuple[str, str]] = (),
) -> Remark:
    return Remark(
        severity=severity,
        pass_name=pass_name,
        kernel=kernel,
        message=message,
        stmt_index=stmt_index,
        stmt=stmt,
        args=tuple((str(k), str(v)) for k, v in args),
    )
