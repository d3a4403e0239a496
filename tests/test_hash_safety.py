"""Hashes kept on IR nodes, and identity-hashed enums, stay in-process.

Expression nodes keep their hash on themselves, and ``DType``,
``IClass``, ``BinOpKind``, ``UnOpKind`` and ``CmpKind`` hash by
identity.  String hashes are salted per process (``PYTHONHASHSEED``)
and identity hashes follow memory addresses, so neither may leave the
process in a pickle, and no output may depend on the order of a set
of such keys.  Each check runs in fresh interpreters under fixed,
different hash seeds.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PICKLE_SCRIPT = r"""
import pickle, sys
from repro.codegen.vector_gen import lower_vector
from repro.ir.expr import Affine, BinOp, BinOpKind, Expr, Load, ScalarRef
from repro.targets import ARMV8_NEON
from repro.tsvc import get_kernel
from repro.vectorize.llv import vectorize_loop

def tree():
    i = (Affine((1,), 0),)
    return BinOp(BinOpKind.ADD, Load("b", i), BinOp(BinOpKind.MUL, ScalarRef("s"), Load("c", i)))

def nodes(kernel):
    for st in kernel.stmts():
        yield st
        for root in st.exprs():
            yield from root.walk()

def kept(node):  # values the node keeps on itself beside its fields
    slots = [k for c in type(node).__mro__ for k in c.__dict__.get("__slots__", ())]
    return [k for k in slots if k != "__dict__" and hasattr(node, k)]

mode, path = sys.argv[1:]
if mode == "dump":
    expr, kernel = tree(), get_kernel("s271")
    hash(expr)
    lower_vector(vectorize_loop(kernel, ARMV8_NEON), ARMV8_NEON)
    assert "_hash" in kept(expr)
    assert any("_hash" in kept(n) for n in nodes(kernel))
    assert any("_linearized" in kept(n) for n in nodes(kernel))
    with open(path, "wb") as fh:
        pickle.dump((expr, kernel), fh)
else:
    with open(path, "rb") as fh:
        expr, kernel = pickle.load(fh)
    for node in [*expr.walk(), *nodes(kernel)]:
        assert not kept(node), (node, kept(node))
    assert {expr: "tree"}[tree()] == "tree"
    unpickled = {n: n for n in nodes(kernel) if isinstance(n, Expr)}
    fresh = [n for n in nodes(get_kernel("s271")) if isinstance(n, Expr)]
    assert fresh and all(unpickled[n] == n for n in fresh)
    print("ok")
"""


def _run(args: list[str], hashseed: int, cwd: Path, cache: Path) -> str:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED=str(hashseed),
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(cache),
    )
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_pickled_nodes_carry_no_cached_hash(tmp_path):
    path = tmp_path / "nodes.pickle"
    _run(["-c", _PICKLE_SCRIPT, "dump", str(path)], 1, tmp_path, tmp_path / "c1")
    out = _run(["-c", _PICKLE_SCRIPT, "load", str(path)], 2, tmp_path, tmp_path / "c2")
    assert out.strip() == "ok"


#: Lines a run prints about its own timing, e.g. ``[E1 completed in 0.2s]``.
_TIMING = re.compile(r"^\[.* in [0-9.]+s.*\]$", re.MULTILINE)


@pytest.mark.parametrize(
    "args",
    [
        ["-m", "repro.dse.experiment", "--limit", "24", "--json", "out.json"],
        ["-m", "repro.experiments", "E1", "--no-scatter"],
    ],
    ids=["e14-slice", "e1"],
)
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, args):
    """Cold runs on fresh cache directories under two hash seeds print
    the same tables (timing lines aside) and write the same JSON."""
    outputs = []
    for seed in (1, 2):
        cwd = tmp_path / f"seed{seed}"
        cwd.mkdir()
        text = _TIMING.sub("", _run(args, seed, cwd, cwd / "cache"))
        json_out = cwd / "out.json"
        outputs.append((text, json_out.read_bytes() if json_out.exists() else None))
    assert outputs[0] == outputs[1]


def test_engine_store_reads_alike_under_another_hash_seed(tmp_path):
    """Fitted models and LOOCV sweeps stored under one hash seed are
    read back under another: the warm run computes nothing and prints
    the same bytes, timing and cache-count lines aside."""
    args = ["-m", "repro.experiments", "E4", "E5", "--no-scatter", "--cache-stats"]
    cold = _run(args, 1, tmp_path, tmp_path / "cache")
    warm = _run(args, 2, tmp_path, tmp_path / "cache")
    assert "[engine cache: 0 hits," in cold
    assert re.search(r"^\[engine cache: \d+ hits, 0 misses, 0 stores", warm, re.M)
    stats = re.compile(r"^\[(engine )?cache: .*\]$", re.MULTILINE)
    assert stats.sub("", _TIMING.sub("", warm)) == stats.sub("", _TIMING.sub("", cold))
