"""Dependence analysis for innermost-loop vectorization.

The legality question the paper's setup asks ("is it possible to
vectorize?") reduces, for these kernels, to memory dependences carried
by the innermost loop plus scalar recurrences (handled separately in
:mod:`repro.analysis.reduction`).

We use the classical affine test on linearized subscripts.  For two
accesses ``B1*v + C1`` and ``B2*v + C2`` (``v`` = innermost variable,
outer variables already required to contribute identically):

* ``B1 != B2`` → distance varies with ``v`` → conservatively unknown;
* ``B == 0``  → both invariant: conflict iff ``C1 == C2`` (every
  iteration, distance "all");
* else ``d = (C_src - C_sink)/B`` — integral ``d`` gives the carried
  distance, non-integral means independence.

Safety for a given VF follows LLVM LoopAccessAnalysis: a carried
dependence is safe when the *earlier-in-time* access is also earlier in
program order (a "forward" dependence — vector execution preserves
statement order, so all lanes of the source complete first), or when
its distance is at least VF.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from ..ir.kernel import LoopKernel
from .access import AccessInfo, collect_accesses


class DepKind(enum.Enum):
    FLOW = "flow"      # write → read
    ANTI = "anti"      # read → write
    OUTPUT = "output"  # write → write


class DepStatus(enum.Enum):
    #: Provably independent (or dependence not carried by the inner loop).
    NONE = "none"
    #: Carried dependence with known distance — safe iff forward or VF <= dist.
    CARRIED = "carried"
    #: Distance unknown (indirect, mismatched coefficients, invariant conflict).
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Dependence:
    """A dependence between two accesses of the same array.

    ``src`` is the access that executes earlier in the scalar schedule;
    ``distance`` is in innermost-loop iterations (None when unknown,
    0 means intra-iteration).  ``forward`` is True when the source is
    also earlier in program order.
    """

    array: str
    kind: DepKind
    src: AccessInfo
    sink: AccessInfo
    distance: Optional[int]
    status: DepStatus

    @property
    def forward(self) -> bool:
        return self.src.pos < self.sink.pos

    def safe_for_vf(self, vf: int) -> bool:
        if self.status is DepStatus.NONE:
            return True
        if self.status is DepStatus.UNKNOWN:
            return False
        assert self.distance is not None
        if self.distance == 0:
            # Intra-iteration dependences are honored by in-order
            # statement-at-a-time vector execution.
            return True
        return self.forward or self.distance >= vf

    def __str__(self) -> str:
        d = "?" if self.distance is None else str(self.distance)
        f = "fwd" if self.forward else "bwd"
        return f"{self.kind.value} dep on {self.array}, distance {d} ({f})"


@dataclass
class DependenceInfo:
    """All pairwise dependences of a kernel plus summary queries."""

    kernel: LoopKernel
    dependences: list[Dependence]

    def max_safe_vf(self) -> float:
        """Largest VF for which all memory dependences are safe.

        Returns ``math.inf`` when nothing constrains the VF and 1 when
        the loop cannot be vectorized at all (VF 2 already unsafe).
        """
        bound = math.inf
        for dep in self.dependences:
            if dep.status is DepStatus.UNKNOWN:
                return 1
            if dep.status is DepStatus.CARRIED and not dep.forward:
                assert dep.distance is not None
                if dep.distance > 0:
                    bound = min(bound, dep.distance)
        return bound if bound > 1 else 1


def analyze_dependences(kernel: LoopKernel) -> DependenceInfo:
    accesses = collect_accesses(kernel)
    deps: list[Dependence] = []
    by_array: dict[str, list[AccessInfo]] = {}
    for acc in accesses:
        by_array.setdefault(acc.array, []).append(acc)

    for array, accs in by_array.items():
        for i, a in enumerate(accs):
            for b in accs[i + 1 :]:
                if not (a.is_store or b.is_store):
                    continue
                dep = _test_pair(kernel, array, a, b)
                if dep is not None:
                    deps.append(dep)
    return DependenceInfo(kernel, deps)


def _dep_kind(src: AccessInfo, sink: AccessInfo) -> DepKind:
    if src.is_store and sink.is_store:
        return DepKind.OUTPUT
    if src.is_store:
        return DepKind.FLOW
    return DepKind.ANTI


def _test_pair(
    kernel: LoopKernel, array: str, a: AccessInfo, b: AccessInfo
) -> Optional[Dependence]:
    depth = kernel.depth
    inner = kernel.inner_level
    lin_a, lin_b = a.linear, b.linear

    if lin_a is None or lin_b is None:
        # Indirect subscript on a conflicting array — distance unknown.
        src, sink = (a, b) if a.pos <= b.pos else (b, a)
        return Dependence(array, _dep_kind(src, sink), src, sink, None, DepStatus.UNKNOWN)

    # Outer-loop contributions must be identical for the accesses to be
    # able to alias within one inner-loop instance.
    for lvl in range(depth):
        if lvl == inner:
            continue
        if lin_a.coeff(lvl) != lin_b.coeff(lvl):
            src, sink = (a, b) if a.pos <= b.pos else (b, a)
            return Dependence(
                array, _dep_kind(src, sink), src, sink, None, DepStatus.UNKNOWN
            )

    ca, cb = lin_a.coeff(inner), lin_b.coeff(inner)
    if ca != cb:
        # Distance varies with the iteration (e.g. a[i] vs a[2*i]).
        src, sink = (a, b) if a.pos <= b.pos else (b, a)
        return Dependence(array, _dep_kind(src, sink), src, sink, None, DepStatus.UNKNOWN)

    if ca == 0:
        if lin_a.offset == lin_b.offset:
            # The same location is touched every iteration.
            src, sink = (a, b) if a.pos <= b.pos else (b, a)
            return Dependence(
                array, _dep_kind(src, sink), src, sink, None, DepStatus.UNKNOWN
            )
        return None  # distinct invariant locations

    delta = lin_a.offset - lin_b.offset
    if delta % ca != 0:
        return None  # never alias (ZIV/strong-SIV independence)
    # Access a at iteration t touches the location that access b touches
    # at iteration t + d.
    d = delta // ca
    if d == 0:
        src, sink = (a, b) if a.pos <= b.pos else (b, a)
        return Dependence(array, _dep_kind(src, sink), src, sink, 0, DepStatus.CARRIED)
    if d > 0:
        # a touches a given location d iterations before b does.
        src, sink = a, b
    else:
        src, sink = b, a
        d = -d
    return Dependence(array, _dep_kind(src, sink), src, sink, d, DepStatus.CARRIED)
