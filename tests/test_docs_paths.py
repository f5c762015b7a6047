"""Every repository path and ``make`` target the docs name must exist.

Covers the living documents, the Makefile's comments and the CI
workflow.  CHANGES.md and ROADMAP.md are history — they name files that
were deleted on purpose — and are exempt.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted(
    [
        ROOT / "README.md",
        ROOT / "DESIGN.md",
        ROOT / "EXPERIMENTS.md",
        ROOT / "Makefile",
        ROOT / ".github" / "workflows" / "ci.yml",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        *(ROOT / "docs").glob("*.md"),
    ]
)

#: ``src/…``, ``tests/…``, ``benchmarks/…``, ``docs/…``, ``examples/…``
#: (a bare ``src/`` too), or a capitalised root ``*.json`` / ``*.md``;
#: not the tail of a longer path such as ``artifacts/load-report.json``.
PATH = re.compile(
    r"(?<![\w/.<>-])"
    r"((?:src|tests|benchmarks|docs|examples)/(?:[\w./*-]*[\w*/])?"
    r"|[A-Z][\w*-]*\.(?:json|md))"
    r"(?![\w/-])"
)
#: ``make <target>`` where a command can stand: at the start of a line,
#: in backticks or parentheses, or after a colon (``run: make verify``).
MAKE = re.compile(r"(?:^[\s#]*|[`(]|: )make ([a-z][a-z0-9-]*)", re.MULTILINE)
TARGET = re.compile(r"^([a-z][a-z0-9-]*):", re.MULTILINE)


def text_of(doc: Path) -> str:
    text = doc.read_text()
    if doc.name == "Makefile":
        return "\n".join(line for line in text.splitlines() if line.startswith("#"))
    return text


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: str(doc.relative_to(ROOT)))
def test_named_paths_and_make_targets_exist(doc):
    text = text_of(doc)
    targets = set(TARGET.findall((ROOT / "Makefile").read_text()))
    missing = [
        name
        for name in sorted(set(PATH.findall(text)))
        if not (any(ROOT.glob(name)) if "*" in name else (ROOT / name).exists())
    ]
    missing += [
        f"make {target}"
        for target in sorted(set(MAKE.findall(text)))
        if target not in targets
    ]
    assert not missing, f"{doc.relative_to(ROOT)} names what does not exist: {missing}"
