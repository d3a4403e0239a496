"""Target machine descriptions.

A :class:`Target` is everything the code generator and the timing
simulator need to know about a core: vector width, which irregular
memory operations exist in hardware, per-instruction-class timings on
an execution-port model, and a cache/bandwidth hierarchy.

The timing numbers are *plausible* for the cores the paper measured
(Cortex-A57-class for ARMv8 NEON, Haswell-Xeon-class for AVX2) rather
than cycle-exact: the study only needs a ground truth with realistic
structure — see DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from ..ir.types import DType
from .classes import IClass


@dataclass(frozen=True)
class InstrTiming:
    """Timing of one instruction class on one target.

    ``latency`` is producer→consumer cycles; ``occupancy`` is how many
    cycles the instruction blocks its port (1 = fully pipelined); and
    ``port`` names the execution-port group it issues to.
    """

    latency: float
    occupancy: float
    port: str


@dataclass(frozen=True)
class CacheLevel:
    name: str
    size_bytes: int
    bytes_per_cycle: float  # sustainable bandwidth at this level


@dataclass(frozen=True)
class CacheHierarchy:
    levels: tuple[CacheLevel, ...]
    dram_bytes_per_cycle: float

    def bandwidth_for(self, working_set_bytes: int) -> float:
        """Sustainable bytes/cycle for a streaming working set."""
        for level in self.levels:
            if working_set_bytes <= level.size_bytes:
                return level.bytes_per_cycle
        return self.dram_bytes_per_cycle

    def level_for(self, working_set_bytes: int) -> str:
        for level in self.levels:
            if working_set_bytes <= level.size_bytes:
                return level.name
        return "DRAM"


class TargetError(Exception):
    """Unsupported operation for a target."""


@dataclass(frozen=True)
class Target:
    """A machine description.

    ``timings`` maps ``(iclass, form)`` → :class:`InstrTiming`, where
    ``form`` is ``"s"`` (scalar) or ``"v"`` (vector).  Integer scalar
    arithmetic is distinguished via ``int_timings`` overrides because it
    runs on different ports with different latencies.
    """

    name: str
    vector_bits: int
    issue_width: int
    ports: dict[str, int]  # port-group name -> number of units
    timings: dict[tuple[IClass, str], InstrTiming]
    int_timings: dict[tuple[IClass, str], InstrTiming] = field(default_factory=dict)
    cache: CacheHierarchy = field(
        default_factory=lambda: CacheHierarchy(
            (CacheLevel("L1", 32 * 1024, 16.0), CacheLevel("L2", 1024 * 1024, 8.0)),
            4.0,
        )
    )
    has_gather: bool = False
    has_scatter: bool = False
    has_masked_mem: bool = False
    #: True when vector math calls (exp, …) must be expanded lane by
    #: lane; the IR-level pseudo-target keeps them as single intrinsics.
    scalarize_calls: bool = True
    #: f64 cost multipliers for iterative units (div/sqrt take ~2x).
    f64_slow_classes: frozenset = frozenset({IClass.DIV, IClass.SQRT, IClass.EXP})
    f64_slow_factor: float = 1.8
    #: largest constant stride lowered as interleaved loads+shuffles
    #: (NEON ld2/ld3/ld4-style); beyond this the access is scalarized
    #: or gathered.
    max_interleave_stride: int = 4

    def lanes(self, dtype: DType) -> int:
        """Full-width lane count for ``dtype``."""
        return self.vector_bits // (dtype.size * 8)

    def timing(self, iclass: IClass, dtype: DType, lanes: int) -> InstrTiming:
        """Timing for an instruction of ``iclass`` on ``lanes`` lanes.

        Looked up once per (class, type, form) and kept in the target's
        own table: the timing model asks for every instruction of every
        stream it times.
        """
        key = (iclass, dtype, lanes == 1)
        t = self._timing_table.get(key)
        if t is None:
            t = self._timing_table[key] = self._lookup_timing(iclass, dtype, lanes)
        return t

    @cached_property
    def _timing_table(self) -> dict[tuple[IClass, DType, bool], InstrTiming]:
        return {}

    def _lookup_timing(self, iclass: IClass, dtype: DType, lanes: int) -> InstrTiming:
        form = "s" if lanes == 1 else "v"
        t: Optional[InstrTiming] = None
        if dtype.is_int or dtype.is_bool:
            t = self.int_timings.get((iclass, form))
        if t is None:
            t = self.timings.get((iclass, form))
        if t is None:
            raise TargetError(
                f"{self.name} has no timing for {iclass.value}/{form}"
            )
        if dtype is DType.F64 and iclass in self.f64_slow_classes:
            t = InstrTiming(
                t.latency * self.f64_slow_factor,
                t.occupancy * self.f64_slow_factor,
                t.port,
            )
        return t

    def port_count(self, port: str) -> int:
        try:
            return self.ports[port]
        except KeyError:
            raise TargetError(f"{self.name} has no port group {port!r}") from None
