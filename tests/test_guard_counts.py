"""Guard probabilities: the grid count equals the interpreter's run.

``estimate_guard_probs`` counts guards over the truncated iteration
grid with numpy when no guard reads data the loop writes
(:func:`~repro.sim.executor.guards_read_inputs_only`), and runs the
interpreter otherwise.  The two must give equal dicts — same keys in
the same order, same floats — so which path a kernel takes can never
move a measurement.  Guards are numbered in static pre-order on both
paths, as the lowerers read them.

The corpus check's size is a command-line option: ``--guard-corpus N``
kernels of the recorded explore corpus (generator seed 2018) at data
seeds ``0..--guard-seeds - 1``; tier-1 runs 300 kernels at seed 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gen import corpus_names, generate_kernel
from repro.ir.stmt import IfBlock, walk_stmts
from repro.sim.executor import (
    count_guards,
    guards_read_inputs_only,
    make_buffers,
    run_scalar,
)
from repro.sim.measure import GUARD_PROBS, GUARD_SAMPLE_ITERS, estimate_guard_probs
from repro.tsvc import all_kernels, get_kernel

#: Generator seed of the recorded explore corpus.
CORPUS_SEED = 2018


def _guarded(kernel) -> bool:
    return any(isinstance(s, IfBlock) for s in kernel.stmts())


def _both_paths(kernel, seed: int, iters: int = GUARD_SAMPLE_ITERS):
    interpreted = run_scalar(
        kernel, make_buffers(kernel, seed), max_inner_iters=iters
    ).guard_probs
    counted = count_guards(
        kernel, make_buffers(kernel, seed), max_inner_iters=iters
    ).guard_probs
    return interpreted, counted


def _assert_same(kernel, seed: int, iters: int = GUARD_SAMPLE_ITERS) -> None:
    interpreted, counted = _both_paths(kernel, seed, iters)
    assert counted == interpreted, (kernel.name, seed)
    assert list(counted) == list(interpreted), (kernel.name, seed)


SUITE_GUARDED = [k for k in all_kernels() if _guarded(k)]


def test_suite_split_between_the_paths():
    """23 of the 42 guarded suite kernels take the grid; the benchmark's
    interpreter kernels (s13110, s273, s2710) keep the interpreter."""
    grid = {k.name for k in SUITE_GUARDED if guards_read_inputs_only(k)}
    interp = {k.name for k in SUITE_GUARDED} - grid
    assert (len(SUITE_GUARDED), len(grid), len(interp)) == (42, 23, 19)
    assert {"s13110", "s273", "s2710", "s3110"} <= interp
    assert {"s114", "s271", "s442", "vif"} <= grid


#: Seed 0 at the measurement's own sample; seeds 1 and 2 at a
#: 128-iteration one (32 outer rows), which still truncates every loop
#: of the suite and keeps the interpreter's depth-2 runs short.
@pytest.mark.parametrize(
    ("seed", "iters"), [(0, GUARD_SAMPLE_ITERS), (1, 128), (2, 128)]
)
def test_suite_grid_equals_interpreter(seed, iters):
    checked = 0
    for kernel in SUITE_GUARDED:
        if guards_read_inputs_only(kernel):
            _assert_same(kernel, seed, iters)
            checked += 1
    assert checked == 23


def test_corpus_grid_equals_interpreter(request):
    size = request.config.getoption("--guard-corpus")
    seeds = request.config.getoption("--guard-seeds")
    kernels = [generate_kernel(n) for n in corpus_names(size, seed=CORPUS_SEED)]
    grid = [k for k in kernels if _guarded(k) and guards_read_inputs_only(k)]
    assert grid
    for seed in range(seeds):
        for kernel in grid:
            _assert_same(kernel, seed)


def test_s442_guards_numbered_in_static_preorder():
    """s442's outer guard is not taken on iteration 0, so its else-branch
    guard runs before its then-branch guard; each still gets its own
    pre-order number and probability on both paths."""
    kernel = get_kernel("s442")
    guards = [s for s in walk_stmts(kernel.body) if isinstance(s, IfBlock)]
    outer, then_inner, else_inner = guards
    assert outer.then_body == (then_inner,) and outer.else_body == (else_inner,)
    ix = make_buffers(kernel, 0)["ix"][:GUARD_SAMPLE_ITERS]
    odd = (ix & 1) != 0
    assert odd[0]  # the else branch runs first

    def taken(mask) -> float:
        return np.count_nonzero(mask) / mask.size

    want = {
        0: taken(~odd),
        1: taken((ix[~odd] & 2) == 0),
        2: taken((ix[odd] & 2) == 0),
    }
    assert want[1] != want[2]
    interpreted, counted = _both_paths(kernel, 0)
    assert interpreted == counted == want
    assert estimate_guard_probs(kernel, 0) == want


def test_two_parses_of_one_source_share_one_computation(monkeypatch):
    """An advise request parses a fresh kernel object every time; the
    memo keys on content, so a repeat request computes nothing."""
    import repro.sim.measure as measure_mod
    from repro.ir.printer import kernel_to_source
    from repro.serve.advisor import kernel_from_payload

    source = kernel_to_source(get_kernel("s273")).splitlines()
    body = "\n".join(ln for ln in source if not ln.startswith("//"))
    payload = {"ir": {"name": "s273", "body": body}}
    first, second = kernel_from_payload(payload), kernel_from_payload(payload)
    assert first is not second
    assert not guards_read_inputs_only(first)  # the interpreter's path
    GUARD_PROBS.clear()
    runs = []
    real = measure_mod.run_scalar

    def counting(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(measure_mod, "run_scalar", counting)
    assert estimate_guard_probs(first) == estimate_guard_probs(second)
    assert len(runs) == 1
