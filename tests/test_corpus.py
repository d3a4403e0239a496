"""Corpus-scale machinery tests: the sharded sweep orchestrator
(:mod:`repro.pipeline.corpus`) and the E13 plumbing on top.

The load-bearing property throughout is *bit-identity*: sharding,
streaming, and resumption are allowed to change wall-clock
and peak memory, never a single measured float.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.experiments import ARM_LLV
from repro.experiments.corpus import corpus_kernel_names, e13_sizes
from repro.gen import clear_gen_memo, corpus_names
from repro.pipeline import MeasurementCache, measure_corpus, partition_names
from repro.pipeline.faultinject import _samples_equal
from repro.tsvc import kernel_names


def nocache() -> MeasurementCache:
    return MeasurementCache(root="/nonexistent", enabled=False)


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_gen_memo()
    yield
    clear_gen_memo()


class TestPartition:
    def test_concatenation_preserves_order(self):
        names = [f"k{i}" for i in range(17)]
        for shards in (1, 2, 3, 5, 17, 40):
            blocks = partition_names(names, shards)
            assert [n for b in blocks for n in b] == names

    def test_near_even(self):
        blocks = partition_names([f"k{i}" for i in range(17)], 5)
        sizes = [len(b) for b in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_degenerate_inputs(self):
        assert partition_names([], 4) == []
        assert partition_names(["a"], 4) == [["a"]]
        assert partition_names(["a", "b"], 0) == [["a", "b"]]


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


class TestShardedBitIdentity:
    NAMES = sorted(kernel_names())[:8] + corpus_names(10, seed=3)

    def _serial(self):
        return measure_corpus(
            self.NAMES, ARM_LLV, shards=1, workers=1,
            supervise=False, cache=nocache(),
        )

    def test_sharded_equals_serial(self):
        serial = self._serial()
        sharded = measure_corpus(
            self.NAMES, ARM_LLV, shards=4, workers=1,
            supervise=False, cache=nocache(),
        )
        assert sharded.shards == 4
        assert _samples_equal(serial.samples, sharded.samples)
        assert serial.failures == sharded.failures
        assert not sharded.quarantined_names

    def test_streamed_merge_equals_in_memory(self, tmp_path):
        serial = self._serial()
        streamed = measure_corpus(
            self.NAMES, ARM_LLV, shards=3, workers=1,
            supervise=False, cache=nocache(), stream_dir=str(tmp_path),
        )
        assert _samples_equal(serial.samples, streamed.samples)
        files = sorted(os.listdir(tmp_path))
        assert files == [f"shard-{k:04d}-of-0003.pkl" for k in range(3)]
        with open(tmp_path / files[0], "rb") as fh:
            samples, _ = pickle.load(fh)
        assert [s.name for s in samples] == [
            s.name for s in serial.samples[: len(samples)]
        ]

    def test_per_shard_stats_are_collected(self):
        res = measure_corpus(
            self.NAMES, ARM_LLV, shards=2, workers=1,
            supervise=False, cache=nocache(),
        )
        assert len(res.shard_stats) == 2


class TestChaosCorpusGate:
    def test_faulted_sharded_corpus_converges(self):
        from repro.pipeline import RetryPolicy, parse_faults

        names = sorted(kernel_names())[:4] + corpus_names(8, seed=3)
        clean = measure_corpus(
            names, ARM_LLV, shards=1, workers=1,
            supervise=False, cache=nocache(),
        )
        chaotic = measure_corpus(
            names, ARM_LLV, shards=3, workers=2, cache=nocache(),
            faults=parse_faults("crash:0.1,flaky_exc:0.15", seed=5),
            retry=RetryPolicy(max_attempts=6, base_delay=0.01),
        )
        assert _samples_equal(clean.samples, chaotic.samples)
        assert clean.failures == chaotic.failures
        assert not chaotic.quarantined_names
