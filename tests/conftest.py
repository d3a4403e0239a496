"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.settings import Settings, current, use
from repro.targets import ARMV8_NEON, GENERIC_IR, X86_AVX2
from repro.tsvc import Dims

#: Small suite dimensions: fast functional execution, still large
#: enough for every kernel's derived strides/offsets (n//2, n//5, …).
SMALL = Dims(n=240, n2=16)


@pytest.fixture(scope="session", autouse=True)
def _isolated_measurement_cache(tmp_path_factory):
    """Keep the suite's persistent measurement cache out of ~/.cache.

    Tests still exercise the cache layer (warm rebuilds within the
    session), but against a throwaway directory.  The variable is set
    too, so CLI subprocesses inherit the same cache.
    """
    import os

    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("measurement-cache"))
    use(Settings.from_env(os.environ))
    yield


@pytest.fixture(autouse=True)
def _restore_settings():
    """Undo whatever ``use(...)`` a test, or a CLI ``main`` it runs, made."""
    saved = current()
    yield
    use(saved)


@pytest.fixture
def arm():
    return ARMV8_NEON


@pytest.fixture
def x86():
    return X86_AVX2


@pytest.fixture
def generic_ir():
    return GENERIC_IR


@pytest.fixture
def small_dims():
    return SMALL


def pytest_addoption(parser):
    group = parser.getgroup("repro")
    group.addoption(
        "--guard-corpus",
        type=int,
        default=300,
        metavar="N",
        help="generated kernels whose guard counts the grid-vs-interpreter "
        "test checks (default: %(default)s)",
    )
    group.addoption(
        "--guard-seeds",
        type=int,
        default=1,
        metavar="S",
        help="data seeds 0..S-1 that test checks each kernel at "
        "(default: %(default)s)",
    )
    group.addoption(
        "--lowering-corpus",
        type=int,
        default=300,
        metavar="N",
        help="generated kernels whose shared plan-space streams the "
        "lowering-share tests check against fresh lowerings, and whose "
        "samples against their plan points (default: %(default)s)",
    )
