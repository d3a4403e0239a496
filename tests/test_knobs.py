"""Every ``REPRO_*`` knob the package reads is documented, and only those.

A knob is a string literal that is exactly a ``REPRO_*`` name anywhere
under ``src/`` (environment reads always spell the name out in full);
the documented set is every ``REPRO_*`` name README.md mentions.  A
new knob without docs, or docs for a deleted knob, fails here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def knobs_read_in_src() -> set[str]:
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def knobs_in_readme() -> set[str]:
    return set(NAME.findall((ROOT / "README.md").read_text()))


def test_readme_documents_exactly_the_knobs_src_reads():
    read, documented = knobs_read_in_src(), knobs_in_readme()
    assert read, "no REPRO_* reads found under src/"
    assert sorted(read - documented) == [], "read in src/ but not in README"
    assert sorted(documented - read) == [], "in README but read nowhere in src/"
