"""Interleaving as a stream transform.

LLVM's loop vectorizer can *interleave* a vectorized loop: advance
``ic`` vector iterations per loop iteration, each with its own
register set, so independent chains overlap and a loop-carried
reduction splits into ``ic`` private accumulators combined once at
the end.  The measurement pipeline models that here as a pure
:class:`~repro.codegen.minstr.MStream` transform — no IR rewriting —
so both the machine-level and the IR-level (feature) views of a plan
point can be interleaved identically:

* the steady-state body is replicated ``ic`` times with fresh ids;
* an intra-copy edge stays intra-copy;
* a *self*-carried edge (an instruction depending on itself at
  distance 1 — the reduction-accumulator shape) stays self-carried in
  every copy: each copy owns a private accumulator, which is exactly
  the reassociation interleaving performs, and is what divides the
  recurrence bound by ``ic``;
* any other carried edge with distance ``d`` (cross-instruction
  memory or value recurrences, *not* reassociable) is remapped
  exactly: the consumer in copy ``c`` reads the producer of original
  iteration ``c - d``, which lands in copy ``(c - d) mod ic`` either
  intra-iteration (``c - d >= 0``) or carried at the ceiling-divided
  distance — a serial chain therefore stays serial through the
  copies and gains nothing, as on hardware;
* prologue/epilogue are replicated per copy (per-copy accumulator
  setup and horizontal combine), amortized over the reduced
  iteration count as usual;
* affine access strides scale by ``ic`` so the group-aware traffic
  accounting charges the ``ic``-wide window one new iteration sweeps.

``iters`` must be divisible by ``ic`` (the enumeration in
:mod:`repro.vectorize.plan` guarantees it), so the transform is exact:
no interleave remainder is ever silently dropped.

Scoring needs only the interleaved stream's class counts, and those
follow from the base stream alone: :func:`interleaved_counts` sums
``ic`` copies of the base body, prologue and epilogue in the order
:meth:`~repro.codegen.minstr.MStream.counts` would, so the cost oracle
never builds the streams it only counts.
"""

from __future__ import annotations

from ..targets.classes import IClass
from .minstr import MInstr, MStream, class_counts


def _remap_edges(ins: MInstr, c: int, ic: int, stride: int) -> MInstr:
    """Copy ``c`` of ``ins``: ids offset by ``c * stride``, edges remapped."""
    srcs = tuple(s + c * stride for s in ins.srcs)
    extra_srcs: list[int] = []
    carried: list[tuple[int, int]] = []
    for producer, dist in ins.carried:
        if producer == ins.id and dist == 1:
            # Reduction-accumulator shape: private per-copy chain.
            carried.append((producer + c * stride, 1))
            continue
        src_iter = c - dist  # original-iteration index of the producer
        q, src_copy = divmod(src_iter, ic)
        if q == 0:
            extra_srcs.append(producer + src_copy * stride)
        else:
            carried.append((producer + src_copy * stride, -q))
    return MInstr(
        ins.id + c * stride,
        ins.iclass,
        ins.dtype,
        ins.lanes,
        srcs + tuple(extra_srcs),
        tuple(carried),
        ins.weight,
        ins.traffic,
        ins.note,
        ins.mem_array,
        ins.mem_stride * ic if ins.mem_stride not in (None, 0) else ins.mem_stride,
    )


def _copy(ins: MInstr, offset: int) -> MInstr:
    """``ins`` with its id moved by ``offset`` (prologue/epilogue copies)."""
    return MInstr(
        ins.id + offset,
        ins.iclass,
        ins.dtype,
        ins.lanes,
        ins.srcs,
        ins.carried,
        ins.weight,
        ins.traffic,
        ins.note,
        ins.mem_array,
        ins.mem_stride,
    )


def _check_interleave(stream: MStream, ic: int) -> None:
    if ic < 1:
        raise ValueError(f"interleave count must be >= 1, got {ic}")
    if stream.iters % ic:
        raise ValueError(
            f"interleave {ic} does not divide {stream.iters} iterations "
            f"of {stream.name!r}"
        )


def interleave_stream(stream: MStream, ic: int) -> MStream:
    """``stream`` with ``ic`` interleaved copies of its body.

    Returns a new stream retiring ``ic * elems_per_iter`` elements per
    iteration over ``iters // ic`` iterations; the input is untouched.
    """
    _check_interleave(stream, ic)
    if ic == 1:
        return stream
    stride = max((i.id for i in stream.all_instrs()), default=-1) + 1
    out = MStream(
        name=f"{stream.name}.ic{ic}",
        iters=stream.iters // ic,
        elems_per_iter=stream.elems_per_iter * ic,
        remainder=stream.remainder,
        working_set_bytes=stream.working_set_bytes,
        target_answers=stream.target_answers,
    )
    for c in range(ic):
        out.body.extend(_remap_edges(ins, c, ic, stride) for ins in stream.body)
        out.prologue.extend(_copy(ins, c * stride) for ins in stream.prologue)
        out.epilogue.extend(_copy(ins, c * stride) for ins in stream.epilogue)
    return out


def interleaved_counts(stream: MStream, ic: int) -> dict[IClass, float]:
    """``interleave_stream(stream, ic).counts()``, without the stream.

    Same sums in the same order — ``ic`` body copies, then ``ic``
    prologue copies, then ``ic`` epilogue copies, the overhead over
    ``iters // ic`` — and the same ``ValueError`` when ``ic`` does not
    divide the stream's iterations.
    """
    _check_interleave(stream, ic)
    return class_counts(
        stream.body * ic,
        stream.prologue * ic + stream.epilogue * ic,
        stream.iters // ic,
    )
