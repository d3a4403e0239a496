"""Machine-level instruction streams.

Codegen lowers a kernel (scalar) or a vectorization plan (vector) into
an :class:`MStream`: the steady-state loop body plus amortized
prologue/epilogue instructions.  Streams carry just enough structure
for the timing model — instruction class, element type, lane count,
intra-iteration data dependences, loop-carried dependences with their
distances, memory traffic, and an execution weight for branchy scalar
code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..ir.types import DType
from ..targets.classes import IClass, MEMORY_CLASSES


@dataclass(slots=True)
class MInstr:
    """One machine instruction in a stream.

    ``srcs`` are producer instruction ids within the same iteration;
    ``carried`` are ``(producer_id, distance)`` edges from previous
    iterations.  ``weight`` is the expected executions per loop
    iteration (< 1 for instructions under a scalar branch).  ``traffic``
    is the bytes this instruction moves to/from memory per execution.
    """

    id: int
    iclass: IClass
    dtype: DType
    lanes: int
    srcs: tuple[int, ...] = ()
    carried: tuple[tuple[int, int], ...] = ()
    weight: float = 1.0
    traffic: int = 0
    note: str = ""
    #: affine accesses set these for group-aware traffic accounting:
    #: the array name and the access stride in *elements per stream
    #: iteration*.  Accesses sharing (array, direction, stride) form an
    #: access group whose cache-line footprint is charged jointly, so
    #: e.g. unrolled copies covering consecutive offsets are not each
    #: billed a full line.
    mem_array: str = ""
    mem_stride: Optional[int] = None

    @property
    def is_vector(self) -> bool:
        return self.lanes > 1

    @property
    def is_memory(self) -> bool:
        return self.iclass in MEMORY_CLASSES

    def __str__(self) -> str:
        form = f"v{self.lanes}" if self.lanes > 1 else "s"
        deps = ",".join(map(str, self.srcs))
        carried = " ".join(f"^{p}@{d}" for p, d in self.carried)
        parts = [f"%{self.id} = {self.iclass.value}.{form}.{self.dtype.value}"]
        if deps:
            parts.append(f"({deps})")
        if carried:
            parts.append(carried)
        if self.weight != 1.0:
            parts.append(f"w={self.weight:.2f}")
        if self.note:
            parts.append(f"; {self.note}")
        return " ".join(parts)


@dataclass
class MStream:
    """A lowered loop: prologue + steady-state body + epilogue.

    ``iters`` is how many times the body executes; ``elems_per_iter``
    how many elements of the *original* loop each body execution
    retires (1 for scalar code, VF for vector code).  ``remainder``
    counts original-loop iterations left to a scalar tail (vectorized
    streams with trip % VF != 0).
    """

    name: str
    body: list[MInstr] = field(default_factory=list)
    prologue: list[MInstr] = field(default_factory=list)
    epilogue: list[MInstr] = field(default_factory=list)
    iters: int = 1
    elems_per_iter: int = 1
    remainder: int = 0
    working_set_bytes: int = 0
    #: What the lowering read from its target: attribute name -> the
    #: value it got (see :class:`~repro.codegen.lowering.TargetView`).
    #: Any target giving the same answers lowers to this same stream.
    target_answers: dict = field(default_factory=dict, compare=False, repr=False)

    def all_instrs(self) -> Iterable[MInstr]:
        yield from self.prologue
        yield from self.body
        yield from self.epilogue

    def counts(self, include_overhead: bool = True) -> dict[IClass, float]:
        """Weighted instruction counts per class for one body iteration.

        Prologue/epilogue instructions are amortized over ``iters`` when
        ``include_overhead`` (they contribute fractionally — exactly the
        way the paper's block equations count one-off reduction and
        broadcast costs).
        """
        overhead = (*self.prologue, *self.epilogue) if include_overhead else ()
        return class_counts(self.body, overhead, self.iters)

    def bytes_per_iter(self) -> float:
        """Expected memory traffic of one body iteration.

        Affine accesses are charged per *access group*: all accesses of
        one array with the same stride and direction (loads and stores
        separately) jointly sweep a ``|stride| * elem``-byte window per
        iteration, and a group of ``m`` accesses can touch at most
        ``m`` cache lines — so the group's footprint is
        ``min(|stride|*elem, m*64)``.  Non-groupable accesses (indirect,
        broadcasts) carry their own per-instruction ``traffic``.
        """
        from .lowering import CACHE_LINE  # local import avoids a cycle

        total = 0.0
        groups: dict[tuple, list[MInstr]] = {}
        for ins in self.body:
            if ins.mem_stride is not None and ins.mem_stride != 0:
                key = (
                    ins.mem_array,
                    ins.iclass in (IClass.STORE, IClass.MASKSTORE, IClass.SCATTER),
                    ins.mem_stride,
                )
                groups.setdefault(key, []).append(ins)
            else:
                total += ins.traffic * ins.weight
        for (_, _, stride), members in groups.items():
            m = sum(ins.weight for ins in members)
            elem = members[0].dtype.size
            total += min(abs(stride) * elem, m * CACHE_LINE)
        return total

    def size(self) -> int:
        return len(self.body)

    def dump(self) -> str:
        lines = [f"stream {self.name}: {self.iters} iters x "
                 f"{self.elems_per_iter} elem(s), remainder {self.remainder}"]
        for label, seq in (
            ("prologue", self.prologue),
            ("body", self.body),
            ("epilogue", self.epilogue),
        ):
            if seq:
                lines.append(f"  {label}:")
                lines.extend(f"    {ins}" for ins in seq)
        return "\n".join(lines)


def class_counts(
    body: Iterable[MInstr], overhead: Iterable[MInstr], iters: int
) -> dict[IClass, float]:
    """Weighted counts per class: ``body`` whole, ``overhead`` over ``iters``.

    Sums in the order given — the one arithmetic behind
    :meth:`MStream.counts` and the count-only interleave in
    :func:`repro.codegen.interleave.interleaved_counts`.
    """
    out: dict[IClass, float] = {}
    for ins in body:
        out[ins.iclass] = out.get(ins.iclass, 0.0) + ins.weight
    if iters > 0:
        for ins in overhead:
            out[ins.iclass] = out.get(ins.iclass, 0.0) + ins.weight / iters
    return out


class StreamBuilder:
    """Appends instructions with automatic id assignment."""

    def __init__(self, name: str):
        self.stream = MStream(name)
        self._next_id = 0
        self._section = self.stream.body

    def in_prologue(self) -> "StreamBuilder":
        self._section = self.stream.prologue
        return self

    def in_body(self) -> "StreamBuilder":
        self._section = self.stream.body
        return self

    def in_epilogue(self) -> "StreamBuilder":
        self._section = self.stream.epilogue
        return self

    def emit(
        self,
        iclass: IClass,
        dtype: DType,
        lanes: int = 1,
        srcs: tuple[int, ...] = (),
        carried: tuple[tuple[int, int], ...] = (),
        weight: float = 1.0,
        traffic: int = 0,
        note: str = "",
        mem_array: str = "",
        mem_stride: Optional[int] = None,
    ) -> int:
        if type(srcs) is not tuple or None in srcs:
            srcs = tuple(s for s in srcs if s is not None)
        ins_id = self._next_id
        self._next_id = ins_id + 1
        self._section.append(
            MInstr(
                ins_id, iclass, dtype, lanes, srcs, carried, weight, traffic,
                note, mem_array, mem_stride,
            )
        )
        return ins_id

    def find(self, instr_id: int) -> Optional[MInstr]:
        for ins in self.stream.all_instrs():
            if ins.id == instr_id:
                return ins
        return None

    def add_carried(self, consumer_id: int, producer_id: int, distance: int) -> None:
        ins = self.find(consumer_id)
        assert ins is not None
        ins.carried = ins.carried + ((producer_id, distance),)
