"""Vectorization plans, failures, and the optimization plan space.

A :class:`VectorizationPlan` is the contract between the vectorizers
(LLV, SLP) and vector code generation / vector execution: the kernel,
the chosen vectorization factor, the scalar classification, and — for
SLP — which top-level statements were packed.

A :class:`PlanPoint` is one coordinate of the *optimization plan
space* the DSE engine (:mod:`repro.dse`) searches: vectorization
factor × interleave count × unroll factor × strategy.
:func:`enumerate_plan_points` produces the legality-pruned candidate
set for one kernel from a single cached framework legality query —
the dependence walk is never repeated per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..analysis.dependence import DependenceInfo
from ..analysis.reduction import ScalarClass, ScalarInfo
from ..ir.kernel import LoopKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..targets.base import Target


@dataclass(frozen=True)
class VectorizationPlan:
    kernel: LoopKernel
    vf: int
    scalar_info: dict[str, ScalarInfo]
    dep_info: DependenceInfo
    kind: str = "llv"  # "llv" | "slp"
    #: SLP only: indices of top-level statements that were packed; the
    #: rest execute as ``vf`` scalar copies.
    packed_stmts: frozenset[int] = frozenset()
    notes: str = ""

    @property
    def reductions(self) -> dict[str, ScalarInfo]:
        return {
            n: s
            for n, s in self.scalar_info.items()
            if s.klass is ScalarClass.REDUCTION
        }

    @property
    def has_guards(self) -> bool:
        from ..ir.stmt import IfBlock

        return any(isinstance(s, IfBlock) for s in self.kernel.stmts())

    def __str__(self) -> str:
        return (
            f"{self.kind.upper()} plan for {self.kernel.name}: VF={self.vf}, "
            f"{len(self.reductions)} reduction(s)"
            + (f", packed {sorted(self.packed_stmts)}" if self.kind == "slp" else "")
        )


@dataclass(frozen=True)
class VectorizationFailure:
    kernel: LoopKernel
    reason: str
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.kernel.name}: not vectorizable ({self.reason})"
        return f"{msg}: {self.detail}" if self.detail else msg


PlanOrFailure = "VectorizationPlan | VectorizationFailure"


def is_plan(result) -> bool:
    return isinstance(result, VectorizationPlan)


# ---------------------------------------------------------------------------
# Plan space: VF × interleave × unroll × strategy
# ---------------------------------------------------------------------------

#: Strategies a plan point may carry.  ``scalar`` is the do-nothing
#: baseline (speedup ≡ 1.0 by definition).
STRATEGIES = ("scalar", "llv", "slp")

#: Interleave counts the enumeration considers (1 = no interleaving).
INTERLEAVE_CANDIDATES = (1, 2, 4)

#: Unroll factors the enumeration considers (1 = no unrolling).
UNROLL_CANDIDATES = (1, 2, 4)


@dataclass(frozen=True, order=True)
class PlanPoint:
    """One coordinate of the optimization plan space.

    ``vf`` is the vector factor (1 for the scalar strategy),
    ``interleave`` the number of concurrently-advanced vector
    iterations (modeled per-copy accumulators), ``unroll`` the
    pre-vectorization unroll factor, and ``strategy`` which vectorizer
    realizes the point.  ``target`` pins the machine the point was
    enumerated for — a point is meaningless across targets.
    """

    vf: int = 1
    interleave: int = 1
    unroll: int = 1
    strategy: str = "scalar"
    target: str = ""

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{', '.join(STRATEGIES)}"
            )
        if self.strategy == "scalar" and (
            self.vf != 1 or self.interleave != 1 or self.unroll != 1
        ):
            raise ValueError("scalar points must be (vf=1, ic=1, u=1)")
        if self.vf < 1 or self.interleave < 1 or self.unroll < 1:
            raise ValueError("vf/interleave/unroll must be >= 1")
        if self.strategy != "scalar" and self.vf < 2:
            raise ValueError("vector points need vf >= 2")

    @property
    def is_scalar(self) -> bool:
        return self.strategy == "scalar"

    def label(self) -> str:
        if self.is_scalar:
            return "scalar"
        return (
            f"{self.strategy}@vf{self.vf}"
            + (f".ic{self.interleave}" if self.interleave > 1 else "")
            + (f".u{self.unroll}" if self.unroll > 1 else "")
        )

    def to_dict(self) -> dict:
        return {
            "vf": self.vf,
            "interleave": self.interleave,
            "unroll": self.unroll,
            "strategy": self.strategy,
            "target": self.target,
        }

    def __str__(self) -> str:
        return f"{self.label()} on {self.target or '?'}"


def scalar_point(target: "Target") -> PlanPoint:
    return PlanPoint(1, 1, 1, "scalar", target.name)


def _slp_viable(kernel: LoopKernel, target: "Target", vf: int) -> bool:
    """One SLP probe decides whether the kernel packs at all.

    Packability is a property of the statement forest, not of the
    factor, so a single probe at the smallest legal factor prunes the
    whole SLP column without per-point vectorizer runs.
    """
    from .slp import slp_vectorize

    return is_plan(slp_vectorize(kernel, target, vf))


def enumerate_plan_points(
    kernel: LoopKernel,
    target: "Target",
    *,
    manager=None,
    max_unroll: Optional[int] = None,
    max_interleave: Optional[int] = None,
) -> list[PlanPoint]:
    """The legality-pruned plan space of ``kernel`` on ``target``.

    One :func:`~repro.vectorize.legality.check_legality` call (cached
    framework analyses) prunes everything:

    * the scalar point is always emitted (and is the only point for
      loops the framework refuses to vectorize);
    * VFs are powers of two up to the natural VF, bounded by the race
      detector's ``max_safe_vf`` and the trip count;
    * unroll factors must divide the trip count, keep at least one
      full vector iteration, and — because unrolling by ``u`` widens
      the effective access span per iteration — satisfy
      ``u * vf <= max_safe_vf`` (conservative, never re-walks the
      dependence graph);
    * interleave counts must divide the per-outer vector iteration
      count so no interleave remainder exists (the modeled execution
      path stays exact);
    * SLP points are emitted only when one packing probe succeeds,
      and only at unroll 1 (packing is probed on the original
      statement forest).

    The first emitted vector point is the natural-VF LLV default —
    search drivers break score ties toward it, so a model must
    *strictly* out-predict the default to move away from it.
    """
    from .legality import check_legality, natural_vf

    points: list[PlanPoint] = [scalar_point(target)]
    trip = kernel.inner.trip
    legal = check_legality(kernel, 2, manager=manager)
    if not legal.ok or trip < 2:
        return points
    max_safe = legal.max_safe_vf
    nat = natural_vf(kernel, target)

    vfs = []
    vf = 2
    while vf <= min(trip, nat):
        if vf <= max_safe:
            vfs.append(vf)
        vf *= 2
    if not vfs:
        return points

    unrolls = [
        u
        for u in UNROLL_CANDIDATES
        if u <= (max_unroll or UNROLL_CANDIDATES[-1])
        and trip % u == 0
        and trip // u >= 2
    ]
    ic_cap = max_interleave or INTERLEAVE_CANDIDATES[-1]

    slp_ok = _slp_viable(kernel, target, vfs[0])

    ordered: list[PlanPoint] = []
    default_vf = max(v for v in vfs)  # natural VF capped by trip/safety
    for strategy in ("llv", "slp"):
        if strategy == "slp" and not slp_ok:
            continue
        for u in unrolls if strategy == "llv" else (1,):
            for v in vfs:
                if v > trip // u or u * v > max_safe:
                    continue
                vec_iters = (trip // u) // v
                for ic in INTERLEAVE_CANDIDATES:
                    if ic > ic_cap or ic > vec_iters or vec_iters % ic:
                        continue
                    ordered.append(PlanPoint(v, ic, u, strategy, target.name))
    default = PlanPoint(default_vf, 1, 1, "llv", target.name)
    if default in ordered:
        ordered.remove(default)
        ordered.insert(0, default)
    points.extend(ordered)
    return points


def default_plan_point(kernel: LoopKernel, target: "Target") -> PlanPoint:
    """The baseline the vectorizer would pick today: natural-VF LLV
    with no unrolling and no interleaving — or the scalar point when
    the loop is not vectorizable."""
    from .llv import vectorize_loop

    result = vectorize_loop(kernel, target)
    if is_plan(result):
        return PlanPoint(result.vf, 1, 1, "llv", target.name)
    return scalar_point(target)
