"""Seeded, property-based generator of valid ``LoopKernel`` IR.

The paper fits on 151 hand-written TSVC kernels; learning-curve
experiments need corpora an order of magnitude larger.  This module
samples synthetic kernels over the TSVC category taxonomy — straight
elementwise chains, guarded stores, reductions, loop-carried
dependences with known distance/direction, gathers with in-bounds
contracts, and nested 2-D loops — and guarantees every emitted kernel
is *valid by construction*:

* it passes :func:`repro.ir.verify_kernel` (the builder runs it),
* the range analysis never classifies it ``proven-unsafe`` (so the
  measurement prepass accepts it, and a functional run cannot fault),
* categories that promise vectorizable kernels pass ``check_legality``
  at the natural VF (``crossing-thresholds`` deliberately includes
  backward flow dependences the legality framework must *refuse* —
  those become recorded :class:`VectorizationFailure` rows, exactly
  like their hand-written counterparts).

Everything is deterministic: a kernel is fully named by
``gx{seed}_{index}_{category}`` and the generator is a pure function
of that name.  ``corpus_names(k)`` is prefix-stable — corpus 400 is a
prefix of corpus 800 — which is what makes learning curves over nested
corpus sizes meaningful and sharded sweeps resumable.

Sampling uses bounded redraw: each attempt derives a fresh
``random.Random`` from ``sha256(seed:index:category:attempt)``, builds
a candidate through :class:`KernelBuilder`, and keeps the first one the
validity gate accepts.  The samplers are constructed so the first
attempt almost always passes; the gate is the property-based safety
net, and the property tests (``tests/test_gen.py``) additionally
replay the execution-based range crosscheck over many seeds.

Generated kernels are memoized per process and per name.  That is not
just a speed-up: the guard-probability memo and the measurement
prepass key on object identity, so every lookup of a generated name
must return the *same* kernel object within a process.
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import Callable, Optional, Sequence

from ..ir import (
    DType,
    KernelBuilder,
    LoopKernel,
    fabs,
    fmax,
    fmin,
)

__all__ = [
    "GEN_CATEGORIES",
    "GEN_LEN",
    "GEN_LEN2",
    "GenerationError",
    "clear_gen_memo",
    "corpus_names",
    "gen_name",
    "generate_kernel",
    "is_generated_name",
    "parse_gen_name",
]

#: Trip count / 1-D extent of generated kernels.  Much smaller than the
#: suite's 32000: the timing model is analytic in the trip count, while
#: functional runs (guard-probability estimation, the sanitizer
#: crosscheck) execute real iterations — small trips keep
#: a 1,500-kernel corpus sweep fast.
GEN_LEN = 1024

#: Per-dimension extent of generated 2-D kernels.
GEN_LEN2 = 64

#: Positive-subscript headroom: loops run ``GEN_LEN - _SHIFT`` so a read
#: at ``i + off`` (``off`` ≤ _SHIFT) stays statically in bounds, and the
#: range analysis proves it rather than classifying the kernel unsafe.
_SHIFT = 4

#: Category taxonomy.  Names mirror the TSVC suite's categories where a
#: counterpart exists so per-category reports merge naturally; each is
#: hyphenated (never underscored) because ``_`` delimits the name parts.
GEN_CATEGORIES = (
    "linear-dependence",
    "control-flow",
    "reductions",
    "crossing-thresholds",
    "indirect-addressing",
    "nested",
)

#: Categories whose kernels must pass legality at the natural VF.
#: ``crossing-thresholds`` is exempt: its backward-dependence half
#: exists to exercise (and populate datasets with) legality refusals.
_VECTORIZING = frozenset(c for c in GEN_CATEGORIES if c != "crossing-thresholds")

_NAME_RE = re.compile(r"gx(\d+)_(\d+)_([a-z][a-z0-9-]*)\Z")

#: Bounded-redraw budget per name before GenerationError.
_MAX_ATTEMPTS = 32


class GenerationError(Exception):
    """No valid kernel found within the redraw budget for a name."""


def gen_name(seed: int, index: int, category: str) -> str:
    """The canonical name of generated kernel ``index`` of a stream."""
    if category not in GEN_CATEGORIES:
        raise ValueError(f"unknown generator category {category!r}")
    return f"gx{seed}_{index:05d}_{category}"


def is_generated_name(name: str) -> bool:
    """True for names the generator owns (``gx<seed>_<index>_<cat>``)."""
    return _NAME_RE.match(name) is not None


def parse_gen_name(name: str) -> tuple[int, int, str]:
    """Split a generated name into ``(seed, index, category)``."""
    m = _NAME_RE.match(name)
    if m is None:
        raise ValueError(f"not a generated kernel name: {name!r}")
    return int(m.group(1)), int(m.group(2)), m.group(3)


def corpus_names(
    count: int,
    seed: int = 0,
    categories: Sequence[str] = GEN_CATEGORIES,
) -> list[str]:
    """The first ``count`` names of generation stream ``seed``.

    Categories round-robin, so ``corpus_names(k)`` is a prefix of
    ``corpus_names(k + m)`` — nested corpora for learning curves — and
    every prefix has a balanced category mix.
    """
    cats = list(categories)
    return [gen_name(seed, i, cats[i % len(cats)]) for i in range(count)]


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _const(rng: random.Random, lo: float = -1.0, hi: float = 1.0) -> float:
    """A rounded literal: short to print, exact in f32 and f64."""
    return round(rng.uniform(lo, hi), 3)


def _expr_tree(rng: random.Random, leaf: Callable[[], object], depth: int):
    """A random float expression tree over ``leaf()`` draws.

    Operators are value-bounded (+, -, *, min, max, abs over inputs in
    (-1, 1)), so deep trees cannot overflow or produce NaNs — part of
    the validity-by-construction contract.
    """
    if depth <= 0 or rng.random() < 0.3:
        return leaf()
    a = _expr_tree(rng, leaf, depth - 1)
    b = _expr_tree(rng, leaf, depth - 1)
    r = rng.random()
    if r < 0.30:
        return a + b
    if r < 0.55:
        return a - b
    if r < 0.75:
        return a * b
    if r < 0.85:
        return fmin(a, b)
    if r < 0.95:
        return fmax(a, b)
    return fabs(a) + b


def _leaf_factory(rng: random.Random, i, srcs, params):
    """Leaves for :func:`_expr_tree`: source reads (sometimes at a small
    positive offset), parameters, and literals."""

    def leaf():
        r = rng.random()
        if r < 0.70:
            src = rng.choice(srcs)
            off = rng.choice((0, 0, 0, 0, 1, 2, _SHIFT))
            return src[i + off] if off else src[i]
        if r < 0.85 and params:
            return rng.choice(params)
        return _const(rng)

    return leaf


def _sample_linear(name: str, rng: random.Random) -> LoopKernel:
    """Elementwise chains: 1–3 stores to distinct, never-read arrays."""
    k = KernelBuilder(name, category="linear-dependence", default_len=GEN_LEN)
    i = k.loop(GEN_LEN - _SHIFT)
    srcs = list(k.arrays(*"bcd"[: rng.randint(2, 3)]))
    p = k.param("p", value=_const(rng, 0.5, 2.5))
    leaf = _leaf_factory(rng, i, srcs, [p])
    for dst in k.arrays(*("a", "e", "f")[: rng.randint(1, 3)]):
        dst[i] = _expr_tree(rng, leaf, rng.randint(1, 3))
    return k.build()


def _sample_control_flow(name: str, rng: random.Random) -> LoopKernel:
    """Guarded stores: threshold tests over a source array, with an
    optional else branch and an optional unguarded trailing store."""
    k = KernelBuilder(name, category="control-flow", default_len=GEN_LEN)
    i = k.loop(GEN_LEN - _SHIFT)
    b, c = k.arrays("b", "c")
    a = k.array("a")
    p = k.param("p", value=_const(rng, 0.5, 2.0))
    leaf = _leaf_factory(rng, i, [b, c], [p])
    thresh = _const(rng, -0.5, 0.5)
    cond = c[i] < thresh if rng.random() < 0.5 else c[i] > thresh
    with k.if_(cond):
        a[i] = _expr_tree(rng, leaf, rng.randint(1, 2))
    if rng.random() < 0.5:
        with k.else_():
            a[i] = _expr_tree(rng, leaf, 1)
    if rng.random() < 0.4:
        e = k.array("e")
        e[i] = _expr_tree(rng, leaf, rng.randint(1, 2))
    return k.build()


def _sample_reductions(name: str, rng: random.Random) -> LoopKernel:
    """Sum / min / max accumulations in the suite's reduction shapes."""
    k = KernelBuilder(name, category="reductions", default_len=GEN_LEN)
    i = k.loop(GEN_LEN - _SHIFT)
    b, c = k.arrays("b", "c")
    kind = rng.random()
    s = k.scalar("s", init=0.0)
    if kind < 0.5:
        terms = (b[i] * c[i], b[i] + c[i], fabs(b[i]), b[i] * _const(rng))
        s.set(s + rng.choice(terms))
    elif kind < 0.75:
        s.set(fmin(s, b[i] + c[i] * _const(rng)))
    else:
        s.set(fmax(s, fabs(b[i])))
    if rng.random() < 0.4:
        t = k.scalar("t", init=0.0)
        t.set(t + b[i] * _const(rng))
    if rng.random() < 0.3:
        a = k.array("a")
        a[i] = b[i] + c[i]
    return k.build()


def _sample_crossing(name: str, rng: random.Random) -> LoopKernel:
    """Loop-carried dependences with a known distance and direction.

    Forward reads (``a[i + d]``, an anti dependence — ~70%) are legal
    to vectorize; backward reads (``a[i - d]``, a flow dependence of
    distance ``d``) are legality refusals the corpus records as
    vectorization failures, mirroring the suite's crossing kernels.
    """
    k = KernelBuilder(name, category="crossing-thresholds", default_len=GEN_LEN)
    i = k.loop(GEN_LEN - _SHIFT)
    a, b = k.arrays("a", "b")
    p = k.param("p", value=_const(rng, 0.3, 0.9))
    d = rng.randint(1, _SHIFT)
    carried = a[i + d] if rng.random() < 0.7 else a[i - d]
    a[i] = carried * p + b[i]
    if rng.random() < 0.3:
        c, e = k.arrays("c", "e")
        e[i] = b[i] + c[i] * _const(rng)
    return k.build()


def _sample_indirect(name: str, rng: random.Random) -> LoopKernel:
    """Gathers through an integer index array, in bounds by contract.

    Every array (index and data alike) has extent ``GEN_LEN``, so the
    harness contract — ``make_buffers`` fills integer arrays with a
    permutation modulo the *minimum* extent — keeps each ``b[x[i]]``
    statically in ``[0, GEN_LEN)``.
    """
    k = KernelBuilder(name, category="indirect-addressing", default_len=GEN_LEN)
    i = k.loop(GEN_LEN - _SHIFT)
    x = k.array("x", DType.I32)
    a, b, c = k.arrays("a", "b", "c")
    p = k.param("p", value=_const(rng, 0.5, 2.0))
    gathered = b[x[i]]
    r = rng.random()
    if r < 0.4:
        a[i] = gathered * p + c[i]
    elif r < 0.7:
        a[i] = gathered + c[i] * _const(rng)
    else:
        with k.if_(c[i] > _const(rng, -0.3, 0.3)):
            a[i] = gathered * p
    return k.build()


def _sample_nested(name: str, rng: random.Random) -> LoopKernel:
    """Depth-2 loops over 2-D arrays: elementwise updates plus an
    occasional outer-invariant (row-broadcast) operand."""
    k = KernelBuilder(
        name,
        category="nested",
        default_len=GEN_LEN,
        default_len2=GEN_LEN2,
    )
    i = k.loop(GEN_LEN2)
    j = k.loop(GEN_LEN2)
    aa, bb = k.array2("aa"), k.array2("bb")
    p = k.param("p", value=_const(rng, 0.5, 1.5))
    r = rng.random()
    if r < 0.4:
        aa[i, j] = aa[i, j] * p + bb[i, j]
    elif r < 0.7:
        cc = k.array2("cc")
        aa[i, j] = bb[i, j] * p + cc[i, j]
    else:
        row = k.array("row", extents=(GEN_LEN2,))
        aa[i, j] = bb[i, j] + row[i] * p
    return k.build()


_SAMPLERS: dict[str, Callable[[str, random.Random], LoopKernel]] = {
    "linear-dependence": _sample_linear,
    "control-flow": _sample_control_flow,
    "reductions": _sample_reductions,
    "crossing-thresholds": _sample_crossing,
    "indirect-addressing": _sample_indirect,
    "nested": _sample_nested,
}


# ---------------------------------------------------------------------------
# Validity gate + memoized entry point
# ---------------------------------------------------------------------------


def _acceptable(kernel: LoopKernel, category: str) -> bool:
    """The validity-by-construction gate (beyond verify_kernel)."""
    from ..analysis.framework.passmanager import default_manager
    from ..analysis.framework.ranges import prove_safe
    from ..targets import ARMV8_NEON
    from ..vectorize import check_legality, natural_vf

    am = default_manager()
    if prove_safe(kernel, am).classification == "proven-unsafe":
        return False
    if category in _VECTORIZING:
        vf = natural_vf(kernel, ARMV8_NEON)
        if not check_legality(kernel, vf, manager=am).ok:
            return False
    return True


_MEMO: dict[str, LoopKernel] = {}


def generate_kernel(name: str) -> LoopKernel:
    """The kernel a generated name denotes (memoized per process)."""
    kern = _MEMO.get(name)
    if kern is None:
        _MEMO[name] = kern = _generate(name)
    return kern


def clear_gen_memo() -> None:
    """Drop the per-process name→kernel memo (tests)."""
    _MEMO.clear()


def _generate(name: str) -> LoopKernel:
    seed, index, category = parse_gen_name(name)
    sampler = _SAMPLERS.get(category)
    if sampler is None:
        raise GenerationError(f"unknown generator category {category!r}")
    last: Optional[Exception] = None
    for attempt in range(_MAX_ATTEMPTS):
        key = f"{seed}:{index}:{category}:{attempt}".encode()
        rng = random.Random(
            int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
        )
        try:
            kern = sampler(name, rng)
        except Exception as exc:  # builder/verifier rejection → redraw
            last = exc
            continue
        if _acceptable(kern, category):
            return kern
    raise GenerationError(
        f"no valid kernel for {name!r} within {_MAX_ATTEMPTS} attempts"
        + (f" (last rejection: {last})" if last else "")
    )
