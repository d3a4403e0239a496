"""Counters of the removed compiled executor tiers, kept at zero.

The tree-walking interpreter in :mod:`.executor` is the only executor.
The end-to-end benchmark (``e2ebench/tracer.py``) still reads
its ``sim.native.*`` counters through :func:`compile_summary`, so the
name stays; nothing in the package calls it.
"""

from __future__ import annotations


def compile_summary() -> dict:
    """Native build seconds and demotions: always zero."""
    return {"native_build_s": 0.0, "kernels_native_demoted": 0}
