"""The one settings object: every ``REPRO_*`` knob, read and checked once.

:class:`Settings` has one typed field per variable the package reads
(but ``REPRO_CC``, which :mod:`repro.sim.toolchain` probes for the
end-to-end benchmark) and the flag-only ``resume``.  :data:`_RULES`
gives each field its variable, flag, accepted form and converter;
``from_env`` parses through it and ``__post_init__`` checks through it,
so a bad variable and a bad flag raise the same ``ValueError``.
``current()`` reads ``os.environ`` on first use; entry points fold
their flags in with ``use(current().replace(...))``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .pipeline.faultinject import FaultPlan


def _number(kind, low=None, *, above=False):
    """Converter to ``kind`` (int or float), at least (or above) ``low``."""

    def convert(value):
        if isinstance(value, str) or (kind is float and type(value) is int):
            value = kind(value)
        too_low = low is not None and not (value > low if above else value >= low)
        if type(value) is not kind or too_low:
            raise ValueError(value)
        return value

    return convert


_SWITCH = dict.fromkeys(("1", "on", "true", "yes"), True)
_SWITCH.update(dict.fromkeys(("0", "off", "false", "no"), False))


def _switch(value) -> bool:
    return value if isinstance(value, bool) else _SWITCH[value.strip().lower()]


def _path(value) -> Path:
    return Path(value).expanduser()


def _fault_spec(value) -> str:
    from .pipeline.faultinject import parse_faults

    parse_faults(value)
    return value.strip()


def _sizes(value) -> tuple[int, ...]:
    tokens = value.replace(",", " ").split() if isinstance(value, str) else value
    sizes = tuple(sorted({_number(int, 1)(token) for token in tokens}))
    if not sizes:
        raise ValueError(value)
    return sizes


_POS, _DIR = "a positive integer", "a directory"
_SW = "one of 1/0, on/off, true/false, yes/no"
_SPEC = "kind:rate pairs, comma-separated, known kinds, rates in [0, 1]"

#: field -> (variable, flag, accepted form, converter).  A converter
#: takes a raw environment string or a typed value and returns the
#: typed value, or raises.
_RULES = {
    "workers": ("REPRO_WORKERS", "--workers", _POS, _number(int, 1)),
    "timeout": ("REPRO_TIMEOUT", "--timeout", "seconds >= 0", _number(float, 0)),
    "max_attempts": ("REPRO_MAX_ATTEMPTS", "--max-attempts", _POS, _number(int, 1)),
    "checkpoint_dir": ("REPRO_CHECKPOINT_DIR", "--checkpoint-dir", _DIR, _path),
    "resume": (None, "--resume", "a boolean", _switch),
    "cache_dir": ("REPRO_CACHE_DIR", "--cache-dir", _DIR, _path),
    "cache": ("REPRO_CACHE", "--no-cache", _SW, _switch),
    "faults": ("REPRO_FAULTS", None, _SPEC, _fault_spec),
    "faults_seed": ("REPRO_FAULTS_SEED", None, "an integer", _number(int)),
    "faults_hang_s": ("REPRO_FAULTS_HANG_S", None, "seconds >= 0", _number(float, 0)),
    "serve_timeout": (
        "REPRO_SERVE_TIMEOUT", "serve --timeout", "seconds > 0",
        _number(float, 0, above=True),
    ),
    "serve_queue": ("REPRO_SERVE_QUEUE", "serve --queue", _POS, _number(int, 1)),
    "serve_workers": ("REPRO_SERVE_WORKERS", "serve --workers", _POS, _number(int, 1)),
    "serve_registry": ("REPRO_SERVE_REGISTRY", "--registry", _DIR, _path),
    "serve_max_rmse": ("REPRO_SERVE_MAX_RMSE", None, "a number >= 0", _number(float, 0)),
    "e13_sizes": ("REPRO_E13_SIZES", None, "positive integers", _sizes),
    "e13_eval": ("REPRO_E13_EVAL", None, _POS, _number(int, 1)),
    "sanitize": ("REPRO_SANITIZE", None, _SW, _switch),
}


def _convert(name: str, raw):
    var, flag, form, convert = _RULES[name]
    try:
        return convert(raw)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        label = f"{var} ({flag})" if var and flag else var or flag
        raise ValueError(f"{label} must be {form}, got {raw!r}") from exc


@dataclass(frozen=True)
class Settings:
    """Every knob, typed; ``Settings()`` is an empty environment's."""

    workers: Optional[int] = None  # None: the CPU count
    timeout: Optional[float] = None  # None or 0: no deadline
    max_attempts: int = 3
    checkpoint_dir: Optional[Path] = None  # None: no checkpoints
    resume: bool = False
    cache_dir: Path = field(default_factory=lambda: Path.home() / ".cache" / "repro-vec")
    cache: bool = True
    faults: str = ""
    faults_seed: int = 0
    faults_hang_s: float = 30.0
    serve_timeout: float = 10.0
    serve_queue: int = 64
    serve_workers: int = field(default_factory=lambda: min(4, max(2, os.cpu_count() or 2)))
    serve_registry: Optional[Path] = None  # None: <cache_dir>/registry
    serve_max_rmse: float = 1.5  # speedups are in (0, 8]; good fits score < 1
    # 151 is the bare TSVC suite: E13's first row is the paper's status quo.
    e13_sizes: tuple[int, ...] = (151, 400, 800, 1500)
    e13_eval: int = 120
    sanitize: bool = False

    def __post_init__(self) -> None:
        for name in _RULES:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _convert(name, getattr(self, name)))

    @classmethod
    def from_env(cls, environ: Mapping[str, str]) -> "Settings":
        """The settings ``environ`` describes; unset or blank is the default."""
        values = {
            name: _convert(name, environ[var])
            for name, (var, *_) in _RULES.items()
            if var and environ.get(var, "").strip()
        }
        if "cache_dir" not in values:
            base = Path(environ.get("XDG_CACHE_HOME") or "~/.cache").expanduser()
            values["cache_dir"] = base / "repro-vec"
        return cls(**values)

    def replace(self, **changes) -> "Settings":
        """A copy with ``changes`` applied; a ``None`` change is ignored."""
        changes = {k: v for k, v in changes.items() if v is not None}
        return dataclasses.replace(self, **changes) if changes else self

    @property
    def registry_dir(self) -> Path:
        return self.serve_registry or self.cache_dir / "registry"

    @cached_property
    def fault_plan(self) -> Optional["FaultPlan"]:
        """The plan ``faults``, ``faults_seed`` and ``faults_hang_s`` give."""
        from .pipeline.faultinject import parse_faults

        return parse_faults(
            self.faults, seed=self.faults_seed, hang_seconds=self.faults_hang_s
        )


_CURRENT: Optional[Settings] = None


def current() -> Settings:
    """The process's settings, read from ``os.environ`` on first use."""
    global _CURRENT
    if _CURRENT is None:
        _CURRENT = Settings.from_env(os.environ)
    return _CURRENT


def use(settings: Settings) -> None:
    """Make ``settings`` the process's settings."""
    global _CURRENT
    _CURRENT = settings
