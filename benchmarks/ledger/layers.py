"""Fold a cProfile run into the repository's layers.

Every profiled function is assigned to a layer by its source path.  A
function that lives outside ``repro`` and this package — a builtin or a
standard-library helper — is charged to the layers of its callers, in
proportion to how often each called it, so ``heappush`` counts toward
``sim`` and ``bisect`` toward whichever overlay called it.  Call counts
are exact and sum to the profile's total; self time is indicative (the
profiler taxes Python calls more than native code).
"""

from __future__ import annotations

import os

LAYERS = (
    "sim",
    "overlay.network",
    "overlay.ring",
    "overlay.ids",
    "overlay.chord",
    "overlay.pastry",
    "overlay.can",
    "core.mappings",
    "core.system",
    "core.node",
    "core.rendezvous",
    "matching",
    "observers",
    "workload",
    "harness",
)

#: Longest prefix wins; paths are relative to the ``repro`` package.
_PREFIXES = (
    ("sim/", "sim"),
    ("overlay/network.py", "overlay.network"),
    ("overlay/ring.py", "overlay.ring"),
    ("overlay/ids.py", "overlay.ids"),
    ("overlay/api.py", "overlay.ids"),
    ("overlay/chord/", "overlay.chord"),
    ("overlay/pastry/", "overlay.pastry"),
    ("overlay/can/", "overlay.can"),
    ("core/mappings/", "core.mappings"),
    ("core/system.py", "core.system"),
    ("core/events.py", "core.system"),
    ("core/rendezvous.py", "core.rendezvous"),
    ("core/subscriptions.py", "matching"),
    ("core/", "core.node"),
    ("matching/", "matching"),
    ("metrics/", "observers"),
    ("telemetry/", "observers"),
    ("audit/", "observers"),
    ("workload/", "workload"),
)

_HERE = os.path.dirname(os.path.abspath(__file__))
_MARK = os.sep + "repro" + os.sep


def layer_of(filename: str) -> str | None:
    """The layer owning a source file, or None for external code."""
    position = filename.rfind(_MARK)
    if position >= 0:
        relative = filename[position + len(_MARK):].replace(os.sep, "/")
        for prefix, layer in _PREFIXES:
            if relative.startswith(prefix):
                return layer
        return "harness"
    if os.path.dirname(os.path.abspath(filename)) == _HERE:
        return "harness"
    return None


def _layer_of_code(code) -> str | None:
    return None if isinstance(code, str) else layer_of(code.co_filename)


def fold(profiler) -> dict:
    """Per-layer call counts and self time of one profile.

    Returns ``{"total_calls", "layers": {layer: {"calls", "self_s"}},
    "match_calls"}`` where ``match_calls`` is how often the rendezvous
    store's ``match`` ran.
    """
    entries = profiler.getstats()
    layer = {entry.code: _layer_of_code(entry.code) for entry in entries}
    # For each external function, who called it and how often.
    callers: dict[object, list[tuple[object, int]]] = {}
    for entry in entries:
        for sub in entry.calls or ():
            if layer.get(sub.code) is None:
                callers.setdefault(sub.code, []).append((entry.code, sub.callcount))
    callcount = {entry.code: entry.callcount for entry in entries}
    shares: dict[object, dict[str, float]] = {}

    def share_of(code, trail: frozenset) -> dict[str, float]:
        known = shares.get(code)
        if known is not None:
            return known
        total = callcount[code]
        weights: dict[str, float] = {}
        charged = 0
        for caller, count in callers.get(code, ()):
            charged += count
            own = layer[caller]
            if own is not None:
                weights[own] = weights.get(own, 0.0) + count
            elif caller in trail:
                weights["harness"] = weights.get("harness", 0.0) + count
            else:
                for name, part in share_of(caller, trail | {code}).items():
                    weights[name] = weights.get(name, 0.0) + count * part
        if total > charged:
            # Called from the frame that enabled the profiler.
            weights["harness"] = weights.get("harness", 0.0) + total - charged
        scale = sum(weights.values()) or 1.0
        result = {name: value / scale for name, value in weights.items()}
        if not trail:
            shares[code] = result
        return result

    totals = {name: {"calls": 0.0, "self_s": 0.0} for name in LAYERS}
    match_calls = 0
    for entry in entries:
        own = layer[entry.code]
        if own is not None:
            totals[own]["calls"] += entry.callcount
            totals[own]["self_s"] += entry.inlinetime
            code = entry.code
            if code.co_name == "match" and code.co_filename.endswith(
                os.path.join("core", "rendezvous.py")
            ):
                match_calls += entry.callcount
            continue
        for name, part in share_of(entry.code, frozenset()).items():
            totals[name]["calls"] += entry.callcount * part
            totals[name]["self_s"] += entry.inlinetime * part
    return {
        "total_calls": sum(callcount.values()),
        "layers": totals,
        "match_calls": match_calls,
    }
