"""Shared fixtures for the micro and ablation benches.

    pytest benchmarks/ --benchmark-only -s

times them and prints each ablation's table once.
"""

from __future__ import annotations

import pytest

from repro.experiments import ARM_LLV, build_dataset


@pytest.fixture(scope="session")
def arm_dataset():
    """TSVC × ARMv8-NEON measurement sweep (LLV), cached per session."""
    return build_dataset(ARM_LLV)


_printed: set[str] = set()


def print_once(key: str, text: str) -> None:
    """Print a table a single time per session."""
    if key not in _printed:
        _printed.add(key)
        print(f"\n{text}\n")
