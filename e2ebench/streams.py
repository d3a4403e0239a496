"""Seeded inputs of the workloads, and the recorded outputs they are checked against.

Everything here is a function of the seed and the recorded pool in
``expected/pool.json``: the advise request order, which suite kernels
are repeated, which generated kernels are novel, and the explore kernel
stream.  Seeds use string-seeded :class:`random.Random`, so they do not
depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"
TARGET = "armv8-neon"
VECTORIZER = "llv"

#: Novel kernels whose answers join the repeat kernels' in advise's ``speedup_x``.
ADVISED_NOVEL = 32
#: Advise requests per requested second (a 2-vCPU x86_64 host answers
#: about 24 req/s to 2 closed-loop clients).
REQUESTS_PER_SECOND = 24
#: Explore kernels per requested second; each goes through a cold and a
#: warm pass (about 45 kernel/s over both passes on that host, so about
#: half of a run is kernel work and the rest process set-up).
KERNELS_PER_SECOND = 24
#: Kernels per ``measure_corpus`` call in the explore workload: one native
#: batch (``REPRO_NATIVE_BATCH`` is 24), so every chunk runs one cc.
CHUNK = 20


def rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"e2ebench:{purpose}:{seed}")


def load_pool() -> dict:
    with open(EXPECTED / "pool.json") as fh:
        return json.load(fh)


def identifier(name: str) -> str:
    """Generated names (``gx<seed>_<idx>_<category>``) may hold ``-``,
    which the ``ir`` envelope rejects; map them to identifiers."""
    return name.replace("-", "_")


def payload(kernel, name: str) -> dict:
    """The ``ir`` envelope of ``kernel``, as ``serve.chaos.suite_payloads``
    builds it."""
    from repro.ir.printer import kernel_to_source

    body = "\n".join(
        ln for ln in kernel_to_source(kernel).splitlines() if not ln.startswith("//")
    )
    return {
        "ir": {"name": identifier(name), "body": body},
        "target": TARGET,
        "vectorizer": VECTORIZER,
    }


def advise_plan(seed: int, requests: int, pool: dict) -> tuple[list[str], list[tuple]]:
    """``(repeat kernels, [(request id, class, kernel name), ...])``.

    Half the requests (rounded down) are novel: distinct generated
    kernels, each sent once.  The rest draw uniformly from every recorded
    suite kernel, the same set for every seed, so the repeat class's work
    does not change with the seed.

    The 1:1 mix and the uniform repeat choice are a measurement choice,
    not an observed share of traffic; no measured request mix exists.
    Equal classes give both class medians (``cold_ms`` for novel,
    ``warm_ms`` for repeat) the same sample count, and uniform repeats
    cover the whole suite instead of a guessed skew.  ``ops_per_s`` is
    the throughput at this fixed mix.
    """
    r = rng(seed, "advise")
    repeat = sorted(pool["repeat"])
    novel_count = requests // 2
    novel = r.sample(sorted(pool["novel"]), novel_count)
    classes = ["repeat"] * (requests - novel_count) + ["novel"] * novel_count
    r.shuffle(classes)
    out, next_novel = [], iter(novel)
    for i, cls in enumerate(classes):
        name = r.choice(repeat) if cls == "repeat" else next(next_novel)
        out.append((f"{seed}-{i:05d}", cls, name))
    return repeat, out


def advised_kernels(repeat: list[str], requests: list[tuple]) -> list[str]:
    """The fixed kernel set of advise's ``speedup_x`` for one seed."""
    novel = [name for _, cls, name in requests if cls == "novel"]
    return repeat + novel[:ADVISED_NOVEL]


def explore_names(seed: int, count: int, pool: dict) -> list[str]:
    return rng(seed, "explore").sample(sorted(pool["novel"]), count)


def expected_core(name: str, recorded: list) -> dict:
    """The verdict core recorded for ``name`` (see ``regen.py``)."""
    vf, vectorized, predicted, reference, model = recorded
    return {
        "kernel": identifier(name),
        "target": TARGET,
        "vectorizer": VECTORIZER,
        "vf": vf,
        "vectorized": vectorized,
        "predicted_speedup": predicted,
        "reference_speedup": reference,
        "model": model,
    }


def compact_core(core: dict) -> list:
    return [
        core["vf"],
        core["vectorized"],
        core["predicted_speedup"],
        core["reference_speedup"],
        core["model"],
    ]


def table_text(stdout: str) -> str:
    """The rendered E1–E12 tables of a reproduction, without notes.

    Notes run from a ``notes:`` line to the experiment's ``[… completed
    in …]`` line and embed timings and cache states, so they are left
    out, as are the completion and suite summary lines.
    """
    keep, in_notes = [], False
    for line in stdout.splitlines():
        if line.startswith("== "):
            in_notes = False
        if line.startswith("notes:"):
            in_notes = True
        if line.startswith("[") and " completed in " in line or line.startswith("[suite:"):
            in_notes = False
            continue
        if not in_notes:
            keep.append(line.rstrip())
    return "\n".join(keep).strip() + "\n"
