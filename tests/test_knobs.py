"""Every ``REPRO_*`` knob is read in one place and documented, and only those.

A knob is a string literal that is exactly a ``REPRO_*`` name anywhere
under ``src/`` (environment reads always spell the name out in full);
the documented set is every ``REPRO_*`` name README.md mentions.  A
new knob without docs, or docs for a deleted knob, fails here, and so
does a knob or an environment read outside :mod:`repro.settings`
(``REPRO_CC`` stays in ``sim/toolchain.py``, which probes the compiler
for the end-to-end benchmark).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
NAME = re.compile(r"REPRO_[A-Z0-9_]+")

#: The only modules that may name a knob or read the environment.
ENV_READERS = {"settings.py", "sim/toolchain.py"}

#: ``os`` attributes that read or change the process environment.
ENV_ACCESS = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def src_trees():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        yield rel, ast.parse(path.read_text(), str(path))


def knob_literals() -> dict[str, set[str]]:
    """Knob name -> modules whose string literals spell it out."""
    found: dict[str, set[str]] = {}
    for rel, tree in src_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and NAME.fullmatch(node.value)
            ):
                found.setdefault(node.value, set()).add(rel)
    return found


def environment_access() -> set[str]:
    """Modules that touch ``os.environ``/``os.getenv`` and friends."""
    modules = set()
    for rel, tree in src_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ENV_ACCESS
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in ENV_ACCESS for alias in node.names)
            ):
                modules.add(rel)
    return modules


def knobs_in_readme() -> set[str]:
    return set(NAME.findall((ROOT / "README.md").read_text()))


def test_readme_documents_exactly_the_knobs_src_reads():
    read, documented = set(knob_literals()), knobs_in_readme()
    assert read, "no REPRO_* reads found under src/"
    assert sorted(read - documented) == [], "read in src/ but not in README"
    assert sorted(documented - read) == [], "in README but read nowhere in src/"


def test_knobs_are_named_only_in_settings_and_toolchain():
    stray = {
        knob: sorted(modules - ENV_READERS)
        for knob, modules in knob_literals().items()
        if modules - ENV_READERS
    }
    assert stray == {}


def test_only_settings_and_toolchain_read_the_environment():
    assert sorted(environment_access() - ENV_READERS) == []
