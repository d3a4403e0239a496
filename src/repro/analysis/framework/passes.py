"""Core analysis passes: wrapped classic analyses plus dataflow.

Wrappers (``deps``, ``scalars``, ``accesses``) make the pre-existing
analyses first-class pass-manager citizens so every consumer shares one
cached walk.  The dataflow passes (``reaching-defs``, ``def-use``,
``liveness``, ``loop-invariant``) are textbook forward/backward
analyses over the kernel body viewed as the body of the innermost loop:
the loop back-edge is modelled by iterating the transfer function to a
fixpoint.

Statements are identified by their pre-order index in the body walk
(``S0``, ``S1``, …) — the same numbering ``AccessInfo.pos`` uses, so
diagnostics from every pass agree on provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...ir.expr import Expr, Indirect, IterValue, Load, ScalarRef
from ...ir.kernel import LoopKernel
from ...ir.stmt import ArrayStore, IfBlock, ScalarAssign, Stmt
from ..access import AccessInfo, collect_accesses, linearize
from ..dependence import DependenceInfo, analyze_dependences
from ..reduction import ScalarInfo, classify_scalars
from .passmanager import AnalysisManager, AnalysisPass, register_pass

#: Pseudo-definition site: the scalar's value on loop entry (its init).
ENTRY_DEF = -1


def stmt_list(kernel: LoopKernel) -> list[Stmt]:
    """Kernel statements in pre-order; index ``i`` is remark label Si."""
    return list(kernel.stmts())


def _scalar_reads(stmt: Stmt) -> set[str]:
    """Scalar names the statement itself reads (RHS / condition only)."""
    return {
        n.name
        for root in stmt.exprs()
        for n in root.walk()
        if isinstance(n, ScalarRef)
    }


# ---------------------------------------------------------------------------
# Wrapped classic analyses
# ---------------------------------------------------------------------------


@register_pass
class DependencePass(AnalysisPass):
    """Pairwise memory dependences (:func:`analyze_dependences`)."""

    name = "deps"

    def run(self, kernel: LoopKernel, am: AnalysisManager) -> DependenceInfo:
        return analyze_dependences(kernel)


@register_pass
class ScalarClassPass(AnalysisPass):
    """Reduction/recurrence classification (:func:`classify_scalars`)."""

    name = "scalars"

    def run(self, kernel: LoopKernel, am: AnalysisManager) -> dict[str, ScalarInfo]:
        return classify_scalars(kernel)


@register_pass
class AccessPass(AnalysisPass):
    """All array accesses in program order (:func:`collect_accesses`)."""

    name = "accesses"

    def run(self, kernel: LoopKernel, am: AnalysisManager) -> list[AccessInfo]:
        return collect_accesses(kernel)


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReachingDefs:
    """Per-statement reaching definitions for every scalar.

    ``reach_in[i][name]`` is the set of statement indices whose
    definition of ``name`` may be live when statement ``i`` executes
    (:data:`ENTRY_DEF` = the value from before the loop).  ``exit``
    holds the defs that reach the loop back-edge.
    """

    reach_in: tuple[dict[str, frozenset[int]], ...]
    exit: dict[str, frozenset[int]]


@register_pass
class ReachingDefsPass(AnalysisPass):
    name = "reaching-defs"

    def run(self, kernel: LoopKernel, am: AnalysisManager) -> ReachingDefs:
        stmts = stmt_list(kernel)
        index = {id(s): i for i, s in enumerate(stmts)}
        nstmts = len(stmts)
        reach_in: list[dict[str, set[int]]] = [{} for _ in range(nstmts)]

        def merge_into(dst: dict[str, set[int]], src: dict[str, set[int]]) -> bool:
            changed = False
            for name, defs in src.items():
                cur = dst.setdefault(name, set())
                if not defs <= cur:
                    cur |= defs
                    changed = True
            return changed

        def flow(body, state: dict[str, set[int]]) -> dict[str, set[int]]:
            for stmt in body:
                i = index[id(stmt)]
                merge_into(reach_in[i], state)
                if isinstance(stmt, ScalarAssign):
                    state[stmt.name] = {i}
                elif isinstance(stmt, IfBlock):
                    taken = flow(stmt.then_body, {k: set(v) for k, v in state.items()})
                    fall = flow(stmt.else_body, {k: set(v) for k, v in state.items()})
                    state = taken
                    merge_into(state, fall)
            return state

        entry = {name: {ENTRY_DEF} for name in kernel.scalars}
        exit_state: dict[str, set[int]] = {}
        # The loop back-edge feeds the body's exit state into its entry;
        # iterate to a fixpoint (the lattice is finite and monotone).
        for _ in range(nstmts + 2):
            state = {k: set(v) for k, v in entry.items()}
            merge_into(state, exit_state)
            out = flow(kernel.body, state)
            if not merge_into(exit_state, out):
                break

        return ReachingDefs(
            reach_in=tuple(
                {n: frozenset(d) for n, d in ri.items()} for ri in reach_in
            ),
            exit={n: frozenset(d) for n, d in exit_state.items()},
        )


# ---------------------------------------------------------------------------
# Def-use chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefUse:
    """Def-use chains for scalars, built on reaching definitions.

    ``chains[(name, def_idx)]`` is the set of statement indices whose
    read of ``name`` may observe that definition.  ``dead_defs`` are
    definitions with no observer: no reached use and not reaching the
    loop exit (where every assigned scalar is live-out by contract).
    """

    defs: dict[str, tuple[int, ...]]
    uses: dict[str, tuple[int, ...]]
    chains: dict[tuple[str, int], frozenset[int]]
    dead_defs: tuple[tuple[str, int], ...]


@register_pass
class DefUsePass(AnalysisPass):
    name = "def-use"

    def run(self, kernel: LoopKernel, am: AnalysisManager) -> DefUse:
        reaching: ReachingDefs = am.get(ReachingDefsPass, kernel)
        stmts = stmt_list(kernel)
        defs: dict[str, list[int]] = {}
        uses: dict[str, list[int]] = {}
        chains: dict[tuple[str, int], set[int]] = {}
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, ScalarAssign):
                defs.setdefault(stmt.name, []).append(i)
                chains.setdefault((stmt.name, i), set())
            for name in _scalar_reads(stmt):
                uses.setdefault(name, []).append(i)
                for d in reaching.reach_in[i].get(name, ()):
                    chains.setdefault((name, d), set()).add(i)
        dead = tuple(
            (name, d)
            for (name, d), observers in sorted(chains.items())
            if d != ENTRY_DEF
            and not observers
            and d not in reaching.exit.get(name, ())
        )
        return DefUse(
            defs={n: tuple(v) for n, v in defs.items()},
            uses={n: tuple(v) for n, v in uses.items()},
            chains={k: frozenset(v) for k, v in chains.items()},
            dead_defs=dead,
        )


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Liveness:
    """Backward scalar liveness over the loop body.

    ``live_in[i]`` is the set of scalars live immediately before
    statement ``i``; ``loop_carried`` are scalars whose entry value may
    be read (live into the first iteration from the preheader).
    """

    live_in: tuple[frozenset[str], ...]
    loop_carried: frozenset[str]


@register_pass
class LivenessPass(AnalysisPass):
    name = "liveness"

    def run(self, kernel: LoopKernel, am: AnalysisManager) -> Liveness:
        stmts = stmt_list(kernel)
        index = {id(s): i for i, s in enumerate(stmts)}
        live_in: list[set[str]] = [set() for _ in stmts]

        def back(body, live: set[str]) -> set[str]:
            for stmt in reversed(body):
                if isinstance(stmt, IfBlock):
                    taken = back(stmt.then_body, set(live))
                    fall = back(stmt.else_body, set(live))
                    live = taken | fall | _scalar_reads(stmt)
                elif isinstance(stmt, ScalarAssign):
                    live = (live - {stmt.name}) | _scalar_reads(stmt)
                else:
                    live = live | _scalar_reads(stmt)
                i = index[id(stmt)]
                live_in[i] |= live
            return live

        # Every assigned scalar is an output of the kernel (the executor
        # contract), so it is live across the back-edge; iterate until
        # the body-entry set stabilizes.
        exit_live = set(kernel.live_out_scalars())
        entry = set(exit_live)
        for _ in range(len(stmts) + 2):
            new_entry = back(kernel.body, set(entry))
            if new_entry <= entry:
                break
            entry |= new_entry
        return Liveness(
            live_in=tuple(frozenset(s) for s in live_in),
            loop_carried=frozenset(entry),
        )


# ---------------------------------------------------------------------------
# Loop-invariant detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopInvariance:
    """Which statements/expressions do not vary with the inner loop.

    ``invariant_stmts`` lists pre-order indices of statements whose
    effect is identical in every inner-loop iteration (hoisting or
    sinking candidates); ``invariant_loads`` are loads lowered as
    broadcasts.
    """

    invariant_stmts: tuple[int, ...]
    invariant_loads: tuple[int, ...]  # stmt indices owning such a load


@register_pass
class LoopInvariantPass(AnalysisPass):
    name = "loop-invariant"

    def run(self, kernel: LoopKernel, am: AnalysisManager) -> LoopInvariance:
        inner = kernel.inner_level
        varying = set(kernel.assigned_scalars())

        def index_varies(ix) -> bool:
            if isinstance(ix, Indirect):
                return True  # conservatively varying (data-dependent)
            return ix.coeff(inner) != 0

        def expr_invariant(e: Expr) -> bool:
            for node in e.walk():
                if isinstance(node, IterValue) and node.level == inner:
                    return False
                if isinstance(node, ScalarRef) and node.name in varying:
                    return False
                if isinstance(node, Load) and any(
                    index_varies(ix) for ix in node.subscript
                ):
                    return False
            return True

        invariant_stmts: list[int] = []
        invariant_loads: list[int] = []
        for i, stmt in enumerate(stmt_list(kernel)):
            roots = stmt.exprs()
            if any(
                isinstance(n, Load) and not any(index_varies(ix) for ix in n.subscript)
                for root in roots
                for n in root.walk()
            ):
                invariant_loads.append(i)
            if isinstance(stmt, ArrayStore):
                if all(not index_varies(ix) for ix in stmt.subscript) and expr_invariant(
                    stmt.value
                ):
                    invariant_stmts.append(i)
            elif isinstance(stmt, ScalarAssign):
                # A self-referencing assignment is a recurrence, never
                # invariant; otherwise invariance is the RHS's.
                if stmt.name not in _scalar_reads(stmt) and expr_invariant(stmt.value):
                    invariant_stmts.append(i)
        return LoopInvariance(tuple(invariant_stmts), tuple(invariant_loads))


__all__ = [
    "ENTRY_DEF",
    "AccessPass",
    "DefUse",
    "DefUsePass",
    "DependencePass",
    "Liveness",
    "LivenessPass",
    "LoopInvariance",
    "LoopInvariantPass",
    "ReachingDefs",
    "ReachingDefsPass",
    "ScalarClassPass",
    "stmt_list",
    "linearize",
]
