"""Spans around every layer boundary, recorded from outside the program.

:class:`Tracer` is a context manager that replaces the public callables
at each layer boundary (:data:`TIMED`, :data:`TIERED` below) with wrappers and restores
the originals on exit — also when the traced code raises.  Nothing under
``src/`` is edited; spans *inside* the program are a later change.

While a measured region is open (:meth:`Tracer.begin_region` ..
:meth:`Tracer.end_region`) every wrapped call is a span: name, layer,
start, end, parent span, pass id.  Spans are aggregated in memory per
``(layer, name, parent layer)`` — count, total time, self time — and
the first :data:`RAW_SPANS` of the first pass are also kept raw, so the
nesting of the first few dozen frames can be read span by span.  A
span's **self time** is its duration minus the part its child spans
cover, so the self times of all spans partition the time spent inside
any span and a layer's share is the sum of its spans' self times over
the region's wall time.  Outside a region the wrappers call straight
through.

Tracing costs time (reported as ``trace.overhead_ratio``), so the
end-to-end metrics are always measured with the tracer absent.  The
host-speed reference that runs between the slices of a region (see
``hostspeed``) touches nothing wrapped, so it leaves no span; the
region's wall time is the sum of its slices.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from repro.apps import DmzPolicyApp
from repro.controller import Controller
from repro.controller.channel import ControllerChannel
from repro.controller.core import Datapath
from repro.core import HarmlessFleet, HarmlessManager, HarmlessS4
from repro.legacy import LegacySwitch
from repro.mgmt import NetworkDriver, SimIOSDriver
from repro.net.ethernet import EthernetFrame
from repro.netsim import Host, Link, Port, Simulator
from repro.nfpa import make_sink
from repro.openflow import FlowMod
from repro.snmp import SnmpAgent
from repro.softswitch import SoftSwitch
from repro.traffic import BurstSource

from .workloads import PolicyChurner, StampedSource

#: Raw spans kept (first pass only): about the first 64 frames' worth.
RAW_SPANS = 4096

_MISSING = object()


def _burst_len(args) -> int:
    return len(args[-1])  # the burst is the last positional argument


def _is_flow_mod(args) -> int:
    return isinstance(args[1], FlowMod)


def _raw_is_flow_mod(args) -> int:
    # OpenFlow header: version, type; OFPT_FLOW_MOD is 14.
    return len(args[1]) > 1 and args[1][1] == 14


#: (owner, attribute, layer[, weigh]) — *weigh* maps the call's
#: positional args to an integer added to ``weights[name]`` (frames in
#: a burst, flow-mods among messages), so ratios are measured at the
#: boundary where the work happens.
TIMED = [
    (Simulator, "run", "netsim.loop"),
    (Port, "send", "netsim.link"),
    (Port, "send_burst", "netsim.link", _burst_len),
    (Port, "deliver", "netsim.link"),
    (Port, "deliver_burst", "netsim.link"),
    (Link, "transmit", "netsim.link"),
    (Link, "transmit_burst", "netsim.link"),
    (LegacySwitch, "receive", "legacy"),
    (LegacySwitch, "receive_burst", "legacy", _burst_len),
    (LegacySwitch, "apply_config", "legacy"),
    (SoftSwitch, "handle_message", "softswitch", _raw_is_flow_mod),
    (EthernetFrame, "__init__", "net"),
    (EthernetFrame, "push_vlan", "net"),
    (EthernetFrame, "pop_vlan", "net"),
    (EthernetFrame, "set_vlan", "net"),
    (EthernetFrame, "copy", "net"),
    (EthernetFrame, "to_bytes", "net"),
    (EthernetFrame, "from_bytes", "net"),
    (ControllerChannel, "send_to_switch", "controller"),
    (ControllerChannel, "_from_switch_async", "controller"),
    (Controller, "connect", "controller"),
    (Controller, "_receive", "controller"),  # parse + app dispatch
    (Datapath, "send", "controller", _is_flow_mod),
    (DmzPolicyApp, "allow", "controller"),
    (DmzPolicyApp, "revoke", "controller"),
    (SnmpAgent, "handle", "snmp"),
    (NetworkDriver, "open", "mgmt"),
    (NetworkDriver, "get_facts", "mgmt"),
    (NetworkDriver, "get_interfaces", "mgmt"),
    (NetworkDriver, "get_vlans", "mgmt"),
    (NetworkDriver, "load_merge_candidate", "mgmt"),
    (NetworkDriver, "commit_config", "mgmt"),
    (NetworkDriver, "rollback", "mgmt"),
    (SimIOSDriver, "render_config", "mgmt"),
    (HarmlessManager, "migrate", "core"),
    (HarmlessS4, "install_translator", "core"),
    (HarmlessFleet, "migrate_next_wave", "core"),
    (HarmlessFleet, "verify_reachability", "core"),
    (BurstSource, "start", "traffic"),
    (BurstSource, "receive", "traffic"),
    (StampedSource, "play", "traffic"),
    (StampedSource, "fire", "traffic"),
    (PolicyChurner, "flip", "traffic"),
    (Host, "ping", "traffic"),
    (Host, "receive", "traffic"),
]

#: Software-datapath entry points: timed like the rest, and the frames
#: each call leaves to the interpreter are split by *why* (see
#: :meth:`Tracer._wrap_tiered`).
TIERED = [
    (SoftSwitch, "receive", "softswitch"),
    (SoftSwitch, "receive_burst", "softswitch"),
    (SoftSwitch, "process_batch", "softswitch"),
    (SoftSwitch, "inject", "softswitch"),
]

#: Properties too small to time: counted only.
COUNTED_PROPERTIES = [(EthernetFrame, "wire_length")]


def _targets():
    sink_type = type(make_sink(Simulator(), "probe"))
    return TIMED + [(sink_type, "receive", "traffic")]


@dataclass
class PassTrace:
    """What one measured region recorded."""

    wall_s: float = 0.0
    #: (layer, name, parent layer) -> [count, total_s, self_s]
    spans: dict = field(default_factory=dict)
    #: name -> calls, for count-only targets
    counts: Counter = field(default_factory=Counter)
    #: name -> summed weigh() results
    weights: Counter = field(default_factory=Counter)
    #: frames the datapaths left to the interpreter, by reason
    tiers: Counter = field(default_factory=Counter)

    def calls(self, name: str) -> int:
        return sum(row[0] for key, row in self.spans.items() if key[1] == name)

    def self_s(self, layer: str) -> float:
        """Self time of *layer*; ``"netsim"`` covers ``netsim.*``."""
        return sum(
            row[2]
            for key, row in self.spans.items()
            if key[0] == layer or key[0].startswith(layer + ".")
        )

    def self_of(self, name: str) -> float:
        return sum(row[2] for key, row in self.spans.items() if key[1] == name)

    def attributed_s(self) -> float:
        return sum(row[2] for row in self.spans.values())


class Tracer:
    """Install with ``with tracer:`` around each traced pass (the classes
    are patched only meanwhile); one region per pass, passes accumulate."""

    def __init__(self) -> None:
        self.active = False
        self.passes: "list[PassTrace]" = []
        self.raw: "list[tuple]" = []
        self._saved: "list[tuple[type, str, object]]" = []
        self._stack: list = []
        self._current = PassTrace()
        self._region_start = 0.0
        self._next_id = 0
        self._in_switch = False

    # ------------------------------------------------------------ regions

    def begin_region(self) -> None:
        self._current = PassTrace()
        self._stack = []
        self.active = True
        self._region_start = time.perf_counter()

    def end_region(self, wall_s: "float | None" = None) -> None:
        """Close the region; *wall_s* is its length when the caller
        timed it itself (in slices, with untraced pauses between)."""
        if wall_s is None:
            wall_s = time.perf_counter() - self._region_start
        self._current.wall_s = wall_s
        self.active = False
        self.passes.append(self._current)

    # ----------------------------------------------------------- patching

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, layer, *weigh in _targets():
                self._replace(owner, attr, self._wrap_timed(
                    self._callable(owner, attr), layer,
                    f"{owner.__name__.lstrip('_')}.{attr}", *weigh,
                ))
            for owner, attr, layer in TIERED:
                self._replace(owner, attr, self._wrap_tiered(
                    self._callable(owner, attr), layer, f"{owner.__name__}.{attr}"
                ))
            for owner, attr in COUNTED_PROPERTIES:
                self._replace(owner, attr, self._wrap_property(
                    owner.__dict__[attr], f"{owner.__name__}.{attr}"
                ))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.active = False
        self._restore()

    @staticmethod
    def _callable(owner: type, attr: str):
        """The function behind *owner.attr*; a classmethod stays wrapped so
        :meth:`_wrap_timed` can re-wrap its ``__func__``."""
        raw = owner.__dict__.get(attr)
        return raw if isinstance(raw, classmethod) else getattr(owner, attr)

    def _replace(self, owner: type, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)  # was inherited, not defined here
            else:
                setattr(owner, attr, original)

    # ----------------------------------------------------------- wrappers

    def _wrap_timed(self, func, layer: str, name: str, weigh=None):
        if isinstance(func, classmethod):
            inner = self._wrap_timed(func.__func__, layer, name, weigh)
            return classmethod(inner)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            stack = tracer._stack
            current = tracer._current
            if weigh is not None:
                current.weights[name] += weigh(args)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else None
            #: [layer, span id, time covered by children]
            frame = [layer, span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                key = (layer, name, parent[0] if parent is not None else None)
                row = current.spans.get(key)
                if row is None:
                    current.spans[key] = [1, duration, duration - frame[2]]
                else:
                    row[0] += 1
                    row[1] += duration
                    row[2] += duration - frame[2]
                if not tracer.passes and len(tracer.raw) < RAW_SPANS:
                    tracer.raw.append((
                        span_id,
                        parent[1] if parent is not None else None,
                        len(tracer.passes),
                        layer,
                        name,
                        start - tracer._region_start,
                        end - tracer._region_start,
                    ))

        traced.__wrapped__ = func
        return traced

    def _wrap_tiered(self, func, layer: str, name: str):
        """Time a datapath entry point and classify what it interpreted.

        ``SoftSwitch`` counts frames served by the compiled tier
        (``specialized_frames``) and frames left to the interpreter
        (``fallback_frames``), but not *why* a frame was left.  Seen
        from the call boundary the reasons separate: if a compiled
        program is active when the call returns, the program handed the
        frames over itself (a per-entry fallback: packet-in, flood);
        if none is, the switch sat in a recompile-hysteresis window and
        the microflow cache (hit) or the classifier walk (miss) served
        them.  FlowMods arrive as their own simulator events, never
        inside a receive call, so the program cannot change under one.
        """
        timed = self._wrap_timed(func, layer, name)
        tracer = self

        def traced(switch, *args, **kwargs):
            if not tracer.active or tracer._in_switch:
                return timed(switch, *args, **kwargs)
            tracer._in_switch = True
            cache = switch.flow_cache
            fallback_before = switch.fallback_frames
            hits_before = cache.hits if cache is not None else 0
            try:
                return timed(switch, *args, **kwargs)
            finally:
                tracer._in_switch = False
                left = switch.fallback_frames - fallback_before
                if left:
                    tiers = tracer._current.tiers
                    if switch.program is not None:
                        tiers["fallback"] += left
                    else:
                        hits = (cache.hits if cache is not None else 0) - hits_before
                        tiers["cache_hit"] += hits
                        tiers["interpreted"] += left - hits

        traced.__wrapped__ = func
        return traced

    def _wrap_property(self, original: property, name: str) -> property:
        tracer = self
        fget = original.fget

        def counted(instance):
            if tracer.active:
                tracer._current.counts[name] += 1
            return fget(instance)

        return property(counted, original.fset, original.fdel, original.__doc__)

    # ------------------------------------------------------------- output

    def to_json(self) -> dict:
        """Aggregates per pass plus the raw head of the first pass."""
        return {
            "passes": [
                {
                    "wall_s": trace.wall_s,
                    "spans": [
                        {
                            "layer": layer,
                            "name": name,
                            "parent_layer": parent,
                            "count": row[0],
                            "total_s": row[1],
                            "self_s": row[2],
                        }
                        for (layer, name, parent), row in sorted(
                            trace.spans.items(), key=lambda item: -item[1][2]
                        )
                    ],
                    "counts": dict(trace.counts),
                    "weights": dict(trace.weights),
                    "tiers": dict(trace.tiers),
                }
                for trace in self.passes
            ],
            "raw_spans": [
                dict(zip(
                    ("id", "parent", "pass", "layer", "name", "start_s", "end_s"), span
                ))
                for span in self.raw
            ],
        }
