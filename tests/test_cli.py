"""CLI tests for ``python -m repro.experiments``."""

import pytest

from repro.experiments.__main__ import main


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for eid in ("E1", "E11"):
        assert eid in out


def test_run_single(capsys):
    assert main(["E2", "--no-scatter"]) == 0
    out = capsys.readouterr().out
    assert "E2" in out
    assert "measured speedup" in out
    assert "completed in" in out


def test_run_multiple(capsys):
    assert main(["E1", "E9", "--no-scatter"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E9" in out


def test_scatter_included_by_default(capsys):
    assert main(["E1"]) == 0
    out = capsys.readouterr().out
    assert "predicted ^" in out  # the text scatter's axis header


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        main(["E42"])


def test_bench_writes_report(tmp_path, capsys):
    out_file = tmp_path / "bench.json"
    assert main(["E1", "E2", "--bench", "--bench-out", str(out_file)]) == 0
    assert out_file.exists()
    import json

    bench = json.loads(out_file.read_text())
    assert bench["ids"] == ["E1", "E2"]
    assert bench["seed_engine_tables_identical_e1_e11"] is True
    for section in ("seed", "engine_cold", "engine_warm"):
        assert bench[section]["total_s"] >= 0.0
    out = capsys.readouterr().out
    assert "bench written to" in out


def test_list_includes_e12(capsys):
    assert main(["--list"]) == 0
    assert "E12" in capsys.readouterr().out
