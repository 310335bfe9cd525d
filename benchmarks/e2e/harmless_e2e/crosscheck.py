"""cProfile cross-check of the span-derived layer shares.

Spans taken from outside see only the calls that cross a wrapped
boundary: work a layer defers into a simulator event (a legacy
switch's delayed ``_forward``, a datapath's cost-model ``_emit``) runs
under ``Simulator.run`` and lands in ``netsim``.  cProfile sees every
function, so bucketing its self time by ``repro.<package>`` gives a
second opinion.  It has its own bias — it taxes every Python call but
not the work inside C builtins, so call-heavy layers look bigger — which
is why it is a cross-check and not the instrument.

Self time of code that is not under ``repro/`` (builtins, ``dataclasses
.replace``, the dataclass-generated ``__init__``) is handed to whoever
called it, following callers upwards until a ``repro`` package is found;
code generated by the compiled tier is recognised by its file name.
"""

from __future__ import annotations

import cProfile
import pstats

#: ``repro`` package (or generated-code marker) -> benchmark layer.
LAYER_OF = {
    "net": "net",
    "netsim": "netsim",
    "legacy": "legacy",
    "softswitch": "softswitch",
    "openflow": "softswitch",
    "costmodel": "softswitch",
    "controller": "controller",
    "apps": "controller",
    "snmp": "mgmt",
    "mgmt": "mgmt",
    "core": "mgmt",
    "fabric": "mgmt",
    "traffic": "traffic",
    "nfpa": "traffic",
    "bench": "traffic",
}
_GENERATED = {
    "<specialized datapath": "softswitch",
    "<flow-key extractor": "openflow",
}
_MAX_DEPTH = 8


def _package(filename: str) -> "str | None":
    if "/repro/" in filename:
        return filename.split("/repro/", 1)[1].split("/", 1)[0]
    for marker, package in _GENERATED.items():
        if filename.startswith(marker):
            return package
    if "/benchmarks/e2e/" in filename:
        return "bench"
    return None


def profile_shares(run) -> dict:
    """Run *run()* under cProfile; return layer -> share of self time."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    memo: dict = {}

    def owners(func, depth: int) -> dict:
        """package -> fraction of *func*'s self time it should carry."""
        package = _package(func[0])
        if package is not None:
            return {package: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}  # cycle guard; overwritten below
        callers = stats.get(func, (0, 0, 0, 0, {}))[4]
        total = sum(edge[3] for edge in callers.values())
        shares: dict = {}
        if depth < _MAX_DEPTH and total > 0:
            for caller, edge in callers.items():
                for package, fraction in owners(caller, depth + 1).items():
                    shares[package] = shares.get(package, 0.0) + fraction * edge[3] / total
        memo[func] = shares or {"other": 1.0}
        return memo[func]

    by_layer: dict = {}
    for func, (_, _, self_time, _, callers) in stats.items():
        if _package(func[0]) is None and callers:
            # Split this function's self time across its call edges
            # (edge[2] is the self time spent on behalf of that caller).
            for caller, edge in callers.items():
                for package, fraction in owners(caller, 1).items():
                    layer = LAYER_OF.get(package, "other")
                    by_layer[layer] = by_layer.get(layer, 0.0) + edge[2] * fraction
        else:
            for package, fraction in owners(func, 0).items():
                layer = LAYER_OF.get(package, "other")
                by_layer[layer] = by_layer.get(layer, 0.0) + self_time * fraction
    total = sum(by_layer.values())
    return {layer: value / total for layer, value in by_layer.items()} if total else {}
