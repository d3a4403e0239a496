"""The names the end-to-end benchmark reaches into ``repro`` for exist.

``e2ebench/tracer.py`` wraps the functions in its ``LAYERS`` table by
``(module, attribute)``, and ``install`` fails with ``KeyError`` on a
missing one; the benchmark's scripts import more names, some inside
functions.  The benchmark is not part of this suite, so a rename would
otherwise surface only in a benchmark run.  The files are read as
source (``ast``), never imported or changed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

E2EBENCH = Path(__file__).resolve().parents[1] / "e2ebench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def layer_entries() -> list[tuple[str, str]]:
    for node in _parse(E2EBENCH / "tracer.py").body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "LAYERS":
            layers = ast.literal_eval(node.value)
            return [entry for entries in layers.values() for entry in entries]
    raise AssertionError("no LAYERS table in e2ebench/tracer.py")


def imported_names() -> list[tuple[str, str]]:
    """``(module, name)`` for every ``from repro… import name`` in the
    benchmark's scripts, function-local imports included."""
    found = set()
    for path in sorted(E2EBENCH.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module.split(".")[0] == "repro"
            ):
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


LAYER_ENTRIES = layer_entries()
IMPORTED_NAMES = imported_names()


def _ids(pairs):
    return [f"{module}:{name}" for module, name in pairs]


def test_tables_are_not_empty():
    assert len(LAYER_ENTRIES) >= 40
    assert len(IMPORTED_NAMES) >= 15


@pytest.mark.parametrize("module_name,attr", LAYER_ENTRIES, ids=_ids(LAYER_ENTRIES))
def test_layer_entry_resolves_like_install(module_name, attr):
    module = importlib.import_module(module_name)
    owner, _, method = attr.rpartition(".")
    holder = getattr(module, owner) if owner else module
    assert callable(holder.__dict__[method])


@pytest.mark.parametrize("module_name,name", IMPORTED_NAMES, ids=_ids(IMPORTED_NAMES))
def test_benchmark_import_resolves(module_name, name):
    module = importlib.import_module(module_name)
    if not hasattr(module, name):
        importlib.import_module(f"{module_name}.{name}")  # a submodule


def test_dse_memo_counters_are_integers():
    from repro.dse import dse_cache_info

    info = dse_cache_info()
    assert isinstance(info["hits"], int) and isinstance(info["misses"], int)
