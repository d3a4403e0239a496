"""The settings object: one rule table for every ``REPRO_*`` knob.

A malformed environment value and a malformed CLI flag fail the same
way, with a ``ValueError`` naming the variable, and they fail before
any measurement runs or any socket is bound.
"""

from __future__ import annotations

import socket
from pathlib import Path

import pytest

from repro.settings import Settings, current, use

#: Every string names a directory, so these take any value.
PATHS = {"REPRO_CHECKPOINT_DIR", "REPRO_CACHE_DIR", "REPRO_SERVE_REGISTRY"}

#: (variable, value) pairs that must raise: one malformed value per
#: other variable, plus out-of-domain values where the domain is
#: narrower than the type.
BAD = [
    ("REPRO_WORKERS", "not-a-number"),
    ("REPRO_WORKERS", "0"),
    ("REPRO_WORKERS", "-2"),
    ("REPRO_WORKERS", "2.5"),
    ("REPRO_TIMEOUT", "soon"),
    ("REPRO_TIMEOUT", "-1"),
    ("REPRO_MAX_ATTEMPTS", "three"),
    ("REPRO_MAX_ATTEMPTS", "0"),
    ("REPRO_CACHE", "maybe"),
    ("REPRO_FAULTS", "bogus:0.1"),
    ("REPRO_FAULTS", "crash"),
    ("REPRO_FAULTS", "crash:1.5"),
    ("REPRO_FAULTS_SEED", "x"),
    ("REPRO_FAULTS_HANG_S", "5s"),
    ("REPRO_FAULTS_HANG_S", "-1"),
    ("REPRO_SERVE_TIMEOUT", "5s"),
    ("REPRO_SERVE_TIMEOUT", "-1"),
    ("REPRO_SERVE_TIMEOUT", "0"),
    ("REPRO_SERVE_QUEUE", "lots"),
    ("REPRO_SERVE_QUEUE", "2.5"),
    ("REPRO_SERVE_QUEUE", "0"),
    ("REPRO_SERVE_WORKERS", "four"),
    ("REPRO_SERVE_WORKERS", "-2"),
    ("REPRO_SERVE_MAX_RMSE", "tight"),
    ("REPRO_SERVE_MAX_RMSE", "-1"),
    ("REPRO_E13_SIZES", "big"),
    ("REPRO_E13_SIZES", "0 5"),
    ("REPRO_E13_EVAL", "many"),
    ("REPRO_E13_EVAL", "0"),
    ("REPRO_SANITIZE", "2"),
]


@pytest.mark.parametrize(("var", "raw"), BAD)
def test_malformed_value_raises(var, raw):
    with pytest.raises(ValueError, match=var) as info:
        Settings.from_env({var: raw})
    assert "must be" in str(info.value) and repr(raw) in str(info.value)


def test_every_variable_has_a_bad_case():
    from repro.settings import _RULES

    variables = {var for var, *_ in _RULES.values() if var}
    assert len(variables) == 17
    assert variables - PATHS == {var for var, _ in BAD}


def test_empty_environment_gives_the_defaults():
    s = Settings.from_env({})
    home = Path("~/.cache").expanduser() / "repro-vec"
    assert s == Settings()
    assert s.cache_dir == home and s.cache is True
    assert s.workers is None and s.timeout is None
    assert s.max_attempts == 3
    assert s.checkpoint_dir is None and s.resume is False
    assert s.faults == "" and s.fault_plan is None
    assert (s.faults_seed, s.faults_hang_s) == (0, 30.0)
    assert (s.serve_timeout, s.serve_queue) == (10.0, 64)
    assert 2 <= s.serve_workers <= 4
    assert s.registry_dir == home / "registry"
    assert s.serve_max_rmse == 1.5
    assert s.e13_sizes == (151, 400, 800, 1500) and s.e13_eval == 120
    assert s.sanitize is False


def test_cache_dir_follows_xdg_unless_set(tmp_path):
    xdg = Settings.from_env({"XDG_CACHE_HOME": str(tmp_path)})
    assert xdg.cache_dir == tmp_path / "repro-vec"
    assert xdg.registry_dir == tmp_path / "repro-vec" / "registry"
    both = {"XDG_CACHE_HOME": str(tmp_path), "REPRO_CACHE_DIR": "~/elsewhere"}
    assert Settings.from_env(both).cache_dir == Path("~/elsewhere").expanduser()


@pytest.mark.parametrize(
    ("raw", "value"),
    [("1", True), ("ON", True), ("true", True), ("yes", True),
     ("0", False), ("off", False), ("False", False), ("no", False)],
)
def test_switches_accept_the_same_values(raw, value):
    s = Settings.from_env({"REPRO_CACHE": raw, "REPRO_SANITIZE": raw})
    assert s.cache is value and s.sanitize is value


def test_zero_timeout_means_no_deadline():
    assert Settings.from_env({"REPRO_TIMEOUT": "0"}).timeout == 0.0


def test_replace_ignores_none_and_checks_the_rest():
    s = Settings(workers=4)
    assert s.replace(workers=None) == s
    assert s.replace(workers=2).workers == 2
    assert s.replace(cache_dir="~/c").cache_dir == Path("~/c").expanduser()
    with pytest.raises(ValueError, match=r"REPRO_WORKERS \(--workers\)"):
        s.replace(workers=0)


def test_current_reads_the_environment_once(monkeypatch):
    import repro.settings as settings_mod

    monkeypatch.setattr(settings_mod, "_CURRENT", None)
    monkeypatch.setenv("REPRO_E13_EVAL", "7")
    first = current()
    assert first.e13_eval == 7
    monkeypatch.setenv("REPRO_E13_EVAL", "9")
    assert current() is first


@pytest.mark.parametrize(
    ("argv", "knob"),
    [
        (["serve", "--queue", "0"], "REPRO_SERVE_QUEUE"),
        (["serve", "--workers", "0"], "REPRO_SERVE_WORKERS"),
        (["serve", "--timeout", "-1"], "REPRO_SERVE_TIMEOUT"),
        (["E1", "--workers", "0"], "REPRO_WORKERS"),
        (["E1", "--timeout", "-1"], "REPRO_TIMEOUT"),
    ],
)
def test_cli_flags_are_checked_like_their_variables(argv, knob, monkeypatch):
    import repro.experiments.scheduler as scheduler
    import repro.serve.server as server
    from repro.experiments.__main__ import main

    def forbidden(*args, **kwargs):
        raise AssertionError("ran past a malformed flag")

    monkeypatch.setattr(scheduler, "run_suite", forbidden)
    monkeypatch.setattr(server, "AdvisorServer", forbidden)
    monkeypatch.setattr(socket.socket, "bind", forbidden)
    flag = argv[-2]
    with pytest.raises(ValueError, match=f"{knob} .*{flag}"):
        main(argv)


def test_resume_checkpoints_sit_under_the_cache_dir_flag(tmp_path):
    """``--cache-dir B --resume`` checkpoints into ``B/checkpoints``,
    never under the cache directory the environment names."""
    from repro.experiments.__main__ import main
    from repro.experiments.dataset import DATASETS

    env_root, flag_root = tmp_path / "xdg", tmp_path / "flag"
    use(Settings.from_env({"XDG_CACHE_HOME": str(env_root)}))
    DATASETS.clear()  # a memoized dataset would skip the sweep
    argv = ["E2", "--no-scatter", "--cache-dir", str(flag_root), "--resume"]
    assert main(argv) == 0
    assert (flag_root / "checkpoints").is_dir()
    assert (flag_root / "measurements").is_dir()
    assert not env_root.exists()
