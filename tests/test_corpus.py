"""Corpus-scale machinery tests: the block sweep orchestrator
(:mod:`repro.pipeline.corpus`) and the E13 plumbing on top.

The load-bearing property throughout is *bit-identity*: blocks and
resumption are allowed to change wall-clock, never a single measured
float.
"""

from __future__ import annotations

import pytest

from repro.analysis.framework.passmanager import default_manager
from repro.experiments import ARM_LLV
from repro.experiments.corpus import corpus_kernel_names, e13_sizes
from repro.gen import KERNELS, corpus_names
from repro.pipeline import MeasurementCache, measure_corpus, measure_suite
from repro.pipeline.faultinject import _samples_equal
from repro.tsvc import get_kernel, kernel_names


def nocache() -> MeasurementCache:
    return MeasurementCache(root="/nonexistent", enabled=False)


@pytest.fixture(autouse=True)
def _fresh_state():
    KERNELS.clear()
    yield
    KERNELS.clear()


class TestCorpusNames:
    def test_suite_first_then_generated(self):
        suite = sorted(kernel_names())
        names = corpus_kernel_names(len(suite) + 10)
        assert names[: len(suite)] == suite
        assert names[len(suite) :] == corpus_names(10, seed=0)

    def test_truncates_small_sizes(self):
        names = corpus_kernel_names(5)
        assert names == sorted(kernel_names())[:5]

    def test_sizes_are_nested(self):
        small, large = corpus_kernel_names(170), corpus_kernel_names(200)
        assert large[: len(small)] == small

    def test_e13_sizes_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_E13_SIZES", "40, 20 30")
        assert e13_sizes() == (20, 30, 40)
        monkeypatch.setenv("REPRO_E13_SIZES", "")
        assert len(e13_sizes()) >= 4  # the default learning curve


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink the analysis manager's bound so corpora span blocks."""
    monkeypatch.setattr(default_manager(), "max_kernels", 5)


class TestBlocks:
    NAMES = sorted(kernel_names())[:8] + corpus_names(10, seed=3)

    def test_blocks_equal_one_serial_sweep(self, small_blocks):
        single, single_fail = measure_suite(
            ARM_LLV,
            cache=nocache(),
            kernels=[get_kernel(n) for n in self.NAMES],
        )
        blocked = measure_corpus(self.NAMES, ARM_LLV, cache=nocache())
        assert _samples_equal(single, blocked.samples)
        assert single_fail == blocked.failures
        assert not blocked.quarantined_names

    def test_block_sizes_follow_the_manager_bound(self, small_blocks):
        from repro.pipeline.corpus import _blocks

        blocks = _blocks(self.NAMES)
        assert [n for b in blocks for n in b] == self.NAMES
        assert [len(b) for b in blocks] == [5, 5, 4, 4]
        assert _blocks([]) == []


class TestChaosCorpusGate:
    def test_faulted_sharded_corpus_converges(self, small_blocks):
        from repro.pipeline import RetryPolicy, parse_faults

        names = sorted(kernel_names())[:4] + corpus_names(8, seed=3)
        clean = measure_corpus(names, ARM_LLV, cache=nocache())
        chaotic = measure_corpus(
            names, ARM_LLV, workers=2, cache=nocache(),
            faults=parse_faults("crash:0.1,flaky_exc:0.15", seed=5),
            retry=RetryPolicy(max_attempts=6, base_delay=0.01),
        )
        assert _samples_equal(clean.samples, chaotic.samples)
        assert clean.failures == chaotic.failures
        assert not chaotic.quarantined_names


class TestPublish:
    def test_publish_lands_in_the_registry_serve_reads(
        self, tmp_path, monkeypatch
    ):
        """``corpus --publish`` and ``serve`` share one default registry."""
        import json

        import repro.pipeline.cache as cache_mod
        from repro.experiments.corpus import main
        from repro.serve import ModelRegistry

        # Keep the session's measurement cache as the process default.
        monkeypatch.setattr(cache_mod, "_DEFAULT", cache_mod.default_cache())
        for var in ("REPRO_SERVE_REGISTRY", "REPRO_CACHE_DIR"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.chdir(tmp_path)
        summary = tmp_path / "summary.json"
        assert main(["--size", "60", "--publish", "--json", str(summary)]) == 0
        published = json.loads(summary.read_text())["published_version"]
        entry = ModelRegistry().current("armv8-neon", "llv")
        assert entry is not None and entry.version == published
