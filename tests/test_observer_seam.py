"""One seam for observers: the tap, and nothing beside it.

The overlay and pub/sub layers announce what they do on the network's
observer tap (``src/repro/telemetry/tap.py``) and know no observer by
name; every mechanism the tap replaced stays gone; and a message leaves
the overlay upward through one ``do_deliver``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))

#: What ``overlay/`` and ``core/`` may not import: the observers.
OBSERVERS = ("repro.telemetry.tracing", "repro.telemetry.load", "repro.audit")
#: The guard flavours, bindings and attach points the tap replaced.
RETIRED = (
    "active_tracer",
    "active_load",
    "attach_auditor",
    "meter_sends",
    "_profile_sends",
    "_record_send",
    "_record_delivery",
)


def imported_modules(module: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_overlay_and_core_import_no_observer():
    offenders = {
        str(module.relative_to(SRC)): sorted(hits)
        for module in MODULES
        if module.relative_to(SRC).parts[1] in ("overlay", "core")
        and (
            hits := {
                name
                for name in imported_modules(module)
                if any(name == o or name.startswith(o + ".") for o in OBSERVERS)
            }
        )
    }
    assert not offenders, offenders


def test_retired_observer_mechanisms_stay_gone():
    offenders = {
        str(module.relative_to(SRC)): found
        for module in MODULES
        if (found := [name for name in RETIRED if name in module.read_text()])
    }
    assert not offenders, offenders


def test_one_do_deliver():
    definers = [
        str(module.relative_to(SRC))
        for module in MODULES
        for _ in range(module.read_text().count("def do_deliver"))
    ]
    assert definers == ["repro/overlay/api.py"], definers
