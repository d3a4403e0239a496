"""The engine memo's keys and its on-disk tier (``<cache_dir>/engine``).

Fits, LOOCV sweeps and reports are keyed on the model's identity
(:func:`repro.costmodel.model_identity`), not its name, so two models
that predict differently never share an entry.  The tier hands a later
process every value the engine computed, so a warm process fits nothing
and never loads SciPy; every switch that must force a recomputation
(``--no-cache``, ``seed_mode``, ``ENGINE.disabled``, the bench's
engine-cold pass) bypasses it.
"""

from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.costmodel import RatedSpeedupModel, SpeedupModel, model_identity
from repro.costmodel.speedup import count_features
from repro.dse import SEARCHES, model_fingerprint, search_kernel
from repro.experiments import ARM_LLV, ENGINE, build_dataset, fit_cached, loocv_cached
from repro.experiments import run_suite, seed_mode
from repro.experiments.__main__ import main
from repro.experiments.base import fit_and_report
from repro.experiments.scheduler import bench_suite
from repro.fitting import LeastSquares, LinearSVR, NonNegativeLeastSquares
from repro.settings import current, use
from repro.store import MISS
from repro.targets import ARMV8_NEON
from repro.tsvc import get_kernel
from repro.validation import svr_warm_disabled

SRC = Path(__file__).resolve().parents[1] / "src"

#: Lines a run prints about its own timing, e.g. ``[E1 completed in 0.2s]``.
_TIMING = re.compile(r"^\[.* in [0-9.]+s.*\]$", re.MULTILINE)


@pytest.fixture(autouse=True)
def _fresh_engine():
    ENGINE.clear()
    yield
    ENGINE.clear()


@pytest.fixture
def samples():
    return build_dataset(ARM_LLV).samples


@pytest.fixture
def engine_dir(tmp_path):
    """A private cache root; returns where its engine entries go."""
    use(current().replace(cache_dir=tmp_path))
    return tmp_path / "engine"


@pytest.fixture
def fits(monkeypatch):
    """Regressor fits, counted by class name."""
    counts: dict[str, int] = {}
    for cls in (LeastSquares, NonNegativeLeastSquares, LinearSVR):

        def counted(self, X, y, _fit=cls.fit):
            name = type(self).__name__
            counts[name] = counts.get(name, 0) + 1
            return _fit(self, X, y)

        monkeypatch.setattr(cls, "fit", counted)
    return counts


def _rated_svr():
    return RatedSpeedupModel(LinearSVR())


class TestModelIdentity:
    def test_names_featurization_clipping_and_hyperparameters(self):
        ident = model_identity(SpeedupModel(LinearSVR(C=2.0), clip_to_vf=False))
        assert ident[0] == "repro.costmodel.speedup.SpeedupModel"
        assert ident[1:4] == ("speedup-SVR", "counts", False)
        regressor, params = ident[4]
        assert regressor == "repro.fitting.svr.LinearSVR"
        assert ("C", 2.0) in params and ("epsilon", 0.1) in params

    def test_fit_cached_tells_svr_hyperparameters_apart(self, samples):
        default = fit_cached(SpeedupModel(LinearSVR()), samples)
        loose = fit_cached(SpeedupModel(LinearSVR(C=1.0)), samples)
        assert loose is not default
        assert loose.regressor.C == 1.0
        fresh = SpeedupModel(LinearSVR(C=1.0)).fit(samples)
        np.testing.assert_array_equal(loose.weights, fresh.weights)

    def test_fit_cached_tells_clipping_apart(self, samples):
        clipped = fit_cached(SpeedupModel(LeastSquares()), samples)
        unclipped = fit_cached(SpeedupModel(LeastSquares(), clip_to_vf=False), samples)
        assert clipped.clip_to_vf and not unclipped.clip_to_vf

    def test_reports_tell_clipping_apart(self, samples):
        measured = build_dataset(ARM_LLV).measured
        _, clipped = fit_and_report(SpeedupModel(LeastSquares()), samples, measured)
        _, unclipped = fit_and_report(
            SpeedupModel(LeastSquares(), clip_to_vf=False), samples, measured
        )
        fresh = SpeedupModel(LeastSquares(), clip_to_vf=False).fit(samples)
        np.testing.assert_array_equal(unclipped, fresh.predict_batch(samples))
        assert not np.array_equal(clipped, unclipped)

    def test_loocv_key_records_svr_warm_start(self, samples):
        warm_stats: dict = {}
        loocv_cached(_rated_svr, samples[:40], stats=warm_stats)
        cold_stats: dict = {}
        with svr_warm_disabled():
            loocv_cached(_rated_svr, samples[:40], stats=cold_stats)
        assert "svr_warm" in warm_stats
        assert "svr_warm" not in cold_stats  # the cold refit loop ran

    def test_search_fingerprint_tells_clipping_apart(self, samples):
        clipped = SpeedupModel(LeastSquares()).fit(samples)
        unclipped = SpeedupModel(LeastSquares(), clip_to_vf=False).fit(samples)
        assert model_fingerprint(clipped) != model_fingerprint(unclipped)
        kernel = get_kernel("s112")  # its exhaustive search differs by clipping
        with SEARCHES.disabled():
            fresh = search_kernel(kernel, ARMV8_NEON, unclipped)
        SEARCHES.clear()
        first = search_kernel(kernel, ARMV8_NEON, clipped)
        second = search_kernel(kernel, ARMV8_NEON, unclipped)
        SEARCHES.clear()
        assert second.to_dict() == fresh.to_dict() != first.to_dict()


def _batches(root: Path) -> dict[str, dict]:
    """Every verified batch under a stored memo's ``root``, by file name."""
    store = ENGINE.store(root)
    return {p.name: store.get(p.name, pickle.loads) for p in sorted(root.iterdir())}


class TestStoreTier:
    def test_corrupt_entries_are_evicted_and_recomputed(self, engine_dir, fits):
        tables = run_suite(["E3"]).tables_text()
        ENGINE.flush()
        entries = _batches(engine_dir)
        assert entries and MISS not in entries.values()
        for name in entries:
            path = engine_dir / name
            data = bytearray(path.read_bytes())
            data[-1] ^= 0x01
            path.write_bytes(bytes(data))
        ENGINE.clear()
        fits.clear()
        assert run_suite(["E3"]).tables_text() == tables
        assert fits  # the evicted values were computed again
        store = ENGINE.store()
        assert store.stats.corrupt == len(entries)
        ENGINE.flush()
        rewritten = _batches(engine_dir)  # every one verifies
        assert not set(rewritten) & set(entries)  # the torn files are gone
        assert sorted(map(sorted, rewritten.values())) == sorted(map(sorted, entries.values()))
        assert store.stats.corrupt == len(entries)

    def test_no_cache_neither_reads_nor_writes_the_engine_store(
        self, tmp_path, engine_dir, fits, capsys
    ):
        args = ["E3", "--no-scatter", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        ENGINE.flush()
        filled = {p.name: p.stat().st_mtime_ns for p in engine_dir.iterdir()}
        assert filled
        ENGINE.clear()
        fits.clear()
        assert main([*args, "--no-cache"]) == 0
        assert fits  # nothing was read
        ENGINE.flush()
        assert {p.name: p.stat().st_mtime_ns for p in engine_dir.iterdir()} == filled

    def test_clear_cache_empties_the_engine_store(self, tmp_path, engine_dir, fits, capsys):
        args = ["E3", "--no-scatter", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        ENGINE.flush()
        first = _batches(engine_dir)
        ENGINE.clear()
        fits.clear()
        assert main([*args, "--clear-cache", "--cache-stats"]) == 0
        assert fits  # the stored fits were gone
        # --cache-stats writes this run's values first: only they are stored.
        batches = _batches(engine_dir)
        assert not set(batches) & set(first)
        assert sum(len(batch) for batch in batches.values()) == 5
        out = capsys.readouterr().out
        assert "[engine cache: " in out and "[search cache: " in out

    def test_seed_mode_and_disabled_memo_bypass_the_store(self, engine_dir, samples):
        with seed_mode():
            fit_cached(SpeedupModel(LeastSquares()), samples)
        with ENGINE.disabled():
            fit_cached(SpeedupModel(LeastSquares()), samples)
        assert not engine_dir.exists()

    def test_unregistered_featurizer_stays_in_memory(self, engine_dir, samples):
        def feature_fn(s):
            return count_features(s)

        a = fit_cached(SpeedupModel(LeastSquares(), feature_fn), samples)
        b = fit_cached(SpeedupModel(LeastSquares(), feature_fn), samples)
        assert a is b
        assert not engine_dir.exists()

    def test_bench_engine_cold_pass_fits_despite_a_filled_store(self, engine_dir, fits):
        run_suite(["E2"])
        ENGINE.flush()
        assert engine_dir.exists()
        ENGINE.clear()
        fits.clear()
        bench_suite(["E2"])
        # One fit in the seed pass, one in the engine-cold pass, none warm.
        assert fits == {"NonNegativeLeastSquares": 2}


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done


def test_import_repro_loads_no_scipy(tmp_path):
    probe = "import sys, repro; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _run(["-c", probe], tmp_path).stdout.strip() == "[]"


_COUNTED_MAIN = r"""
import sys
from repro.fitting import LeastSquares, LinearSVR, NonNegativeLeastSquares

fits = []
for cls in (LeastSquares, NonNegativeLeastSquares, LinearSVR):
    def counted(self, X, y, _fit=cls.fit):
        fits.append(type(self).__name__)
        return _fit(self, X, y)
    cls.fit = counted

from repro.experiments.__main__ import main
code = main(sys.argv[1:])
print(f"[fits {len(fits)}, scipy.optimize {'scipy.optimize' in sys.modules}]")
sys.exit(code)
"""


def test_a_warm_process_fits_nothing_and_never_loads_scipy(tmp_path):
    """E12's SVR LOOCV included: the second process reads every value the
    first one stored, prints the same tables, and fits nothing."""
    args = ["-c", _COUNTED_MAIN, "E2", "E4", "E12", "--no-scatter", "--cache-dir", "cache"]
    cold = _TIMING.sub("", _run(args, tmp_path).stdout)
    warm = _TIMING.sub("", _run(args, tmp_path).stdout)
    cold_tables, cold_tail = cold.rsplit("[fits", 1)
    warm_tables, warm_tail = warm.rsplit("[fits", 1)
    assert cold_tail.split(",")[0].strip() != "0"
    assert cold_tail.strip().endswith("scipy.optimize True]")
    assert warm_tail.strip() == "0, scipy.optimize False]"
    assert warm_tables == cold_tables
