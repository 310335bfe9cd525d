"""Metric definitions, their derivation from passes, and the statistics.

Three tables live here so that the code, ``BENCHMARK.json`` and the
README cannot drift apart (``test_e2e_smoke.py`` checks the first two
against each other):

* :data:`END_TO_END` — the nine end-to-end metrics, each with the
  workloads it is defined on and its regression bound (``None`` =
  simulated time: must repeat exactly); wall seconds are seconds at
  nominal host speed (see ``hostspeed``);
* :data:`DRIVER_END_TO_END` — the subset every workload emits under one
  name, which is what the ``BENCHMARK.json`` contract can hold;
* :data:`PER_LAYER` — the per-layer metrics of the traced run, each
  with the layer it belongs to, whether it is an exact count, and the
  end-to-end metric it is expected to move.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

ALL = ("site_detour", "fabric_steady", "site_policy_churn", "migration_wave")
STEADY = ALL[:3]

#: How far a median may worsen before it is a regression: the issue's
#: tenth.  Wall times are host-speed-normalised (see ``hostspeed``),
#: which is what makes a tenth resolvable on a box whose own speed
#: wanders by more than that.  Measured spreads: README (A/A).
WALL_BOUND = 0.10
SETUP_BOUND = 0.10
MEMORY_BOUND = 0.10


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    workloads: tuple
    #: Share of the median it may worsen; None = exact (simulated time).
    bound: "float | None"


END_TO_END = [
    # wall time to build the rig, migrate and prime; median over passes.
    # All wall seconds are at nominal host speed (see ``hostspeed``).
    EndToEnd("setup_s", "s", "lower", ALL, SETUP_BOUND),
    # frames delivered / host wall seconds of the measured region
    EndToEnd("frames_per_s", "frames/s", "higher", STEADY, WALL_BOUND),
    # sites migrated and verified / host wall seconds of migrate_all
    EndToEnd("sites_per_s", "sites/s", "higher", ("migration_wave",), WALL_BOUND),
    # (injected - delivered - exactly-expected policy drops) / injected;
    # on migration_wave lost pings / pings sent during the rollout
    EndToEnd("frame_loss_ratio", "ratio", "lower", ALL, None),
    # median simulated one-way latency
    EndToEnd("sim_latency_us_p50", "us", "lower", ("site_detour",), None),
    # 99th percentile of the same samples; must exceed p50
    EndToEnd("sim_latency_us_p99", "us", "lower", ("site_detour",), None),
    # HARMLESS p50 - legacy-only p50 on the same schedule
    EndToEnd("sim_added_latency_us", "us", "lower", ("site_detour",), None),
    # longest gap between consecutive answered pings of any host pair
    EndToEnd("sim_outage_ms", "ms", "lower", ("migration_wave",), None),
    # ru_maxrss of the workload's subprocess
    EndToEnd("peak_rss_mib", "MiB", "lower", ALL, MEMORY_BOUND),
]

#: Simulated-time results that no seed moves, as read at the commit that
#: defined the benchmark.  A run that reads worse is not ``correct``:
#: they are the paper's latency claim, and the contract's driver line
#: cannot hold a metric that only one workload defines.
CEILINGS = {
    "sim_latency_us_p50": 17.12,
    "sim_added_latency_us": 8.6912,
}

#: ``work_per_s`` is ``frames_per_s`` on the steady workloads and
#: ``sites_per_s`` on ``migration_wave``: the contract wants every
#: workload to emit every end-to-end metric and none to be 0, so the
#: throughput metric goes under one name and the simulated-time and
#: loss metrics stay in the full report (and in ``correct``).
DRIVER_END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": SETUP_BOUND},
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": WALL_BOUND},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": MEMORY_BOUND},
]


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: A deterministic count: identical on every pass of a seed.
    exact: bool
    #: The end-to-end metric this one is expected to move.
    moves: str


def _layer(prefix: str, moves: str, rows: list) -> "list[PerLayer]":
    return [
        PerLayer(f"{prefix}.{name}", unit, better, exact, moves)
        for name, unit, better, exact in rows
    ]


PER_LAYER = (
    _layer("net", "frames_per_s", [
        ("frames_built_per_frame", "count", "lower", True),
        ("vlan_ops_per_frame", "count", "lower", True),
        ("wire_length_per_frame", "count", "lower", True),
        ("codec_calls_per_frame", "count", "lower", True),
        ("self_us_per_frame", "us", "lower", False),
        ("share", "ratio", "lower", False),
    ])
    + _layer("netsim", "frames_per_s", [
        ("events_per_frame", "count", "lower", True),
        ("events_per_s", "events/s", "higher", False),
        ("frames_per_tx_call", "count", "higher", True),
        ("link_drops", "count", "lower", True),
        ("queue_hwm", "count", "lower", True),
        ("loop_self_us_per_frame", "us", "lower", False),
        ("link_self_us_per_frame", "us", "lower", False),
        ("share", "ratio", "lower", False),
    ])
    + _layer("legacy", "frames_per_s", [
        ("receive_calls_per_frame", "count", "lower", True),
        ("frames_per_receive_burst", "count", "higher", True),
        ("flooded", "count", "lower", True),
        ("self_us_per_frame", "us", "lower", False),
        ("share", "ratio", "lower", False),
    ])
    + _layer("softswitch", "frames_per_s", [
        ("batch_calls_per_frame", "count", "lower", True),
        ("frames_per_batch", "count", "higher", True),
        ("specialized_share", "ratio", "higher", True),
        ("cache_hit_share", "ratio", "higher", True),
        ("fallback_share", "ratio", "lower", True),
        ("interpreted_share", "ratio", "lower", True),
        ("compiles", "count", "lower", True),
        ("invalidations", "count", "lower", True),
        ("flow_mods_per_s", "1/s", "higher", False),
        ("handle_message_self_us_per_mod", "us", "lower", False),
        ("self_us_per_frame", "us", "lower", False),
        ("share", "ratio", "lower", False),
    ])
    + _layer("controller", "frames_per_s/sites_per_s", [
        ("packet_ins", "count", "lower", True),
        ("flow_mods_sent", "count", "lower", True),
        ("self_s", "s", "lower", False),
        ("share", "ratio", "lower", False),
    ])
    + _layer("snmp", "sites_per_s", [
        ("pdus_per_port", "count", "lower", True),
        ("self_s_per_site", "s", "lower", False),
    ])
    + _layer("mgmt", "sites_per_s", [
        ("self_s_per_site", "s", "lower", False),
        ("share", "ratio", "lower", False),
    ])
    + _layer("core", "sites_per_s", [
        ("migrate_self_s_per_site", "s", "lower", False),
        ("verify_s_per_wave", "s", "lower", False),
        ("translator_rules_per_port", "count", "lower", True),
    ])
    + _layer("traffic", "none", [
        ("gen_self_us_per_frame", "us", "lower", False),
        ("share", "ratio", "lower", False),
    ])
    + _layer("trace", "none", [
        ("overhead_ratio", "ratio", "lower", False),
        ("unattributed_share", "ratio", "lower", False),
    ])
)

#: The layer shares that, with ``trace.unattributed_share``, sum to 1.
SHARES = ("net", "netsim", "legacy", "softswitch", "controller", "mgmt", "traffic")


def layer_self_s(trace, layer: str) -> float:
    """Self time behind ``<layer>.share``; ``mgmt`` stands for the whole
    management group (``snmp`` + ``mgmt`` + ``core``)."""
    if layer == "mgmt":
        return sum(trace.self_s(member) for member in ("snmp", "mgmt", "core"))
    return trace.self_s(layer)


# --------------------------------------------------------------------------
# Deriving metric values from one pass
# --------------------------------------------------------------------------


def end_to_end_values(workload: str, result, baseline_p50_us=None) -> dict:
    """The end-to-end metrics one pass yields (``peak_rss_mib`` is per
    process, not per pass, and is added by the caller)."""
    values = {"setup_s": result.setup_nominal_s}
    rate = result.units / result.wall_nominal_s
    values["frames_per_s" if workload in STEADY else "sites_per_s"] = rate
    values["frame_loss_ratio"] = result.lost / result.injected
    values.update(result.sim)
    if baseline_p50_us is not None:
        values["sim_added_latency_us"] = (
            result.sim["sim_latency_us_p50"] - baseline_p50_us
        )
    return values


def _ratio(numerator: float, denominator: float) -> float:
    """0 when the layer did no such work in the region (no ports
    migrated, no FlowMods handled): absent work costs nothing."""
    return numerator / denominator if denominator else 0.0


def per_layer_values(result, trace, untraced_wall_s: float) -> dict:
    """Every :data:`PER_LAYER` metric for one traced pass.

    *frames* is the pass's delivered count — on ``migration_wave`` one
    answered background ping — so ``*_per_frame`` always divides by
    work the user saw complete.
    """
    frames = result.delivered
    counters = result.counters
    wall = trace.wall_s
    #: Seconds at nominal host speed per second on the clock, over the
    #: pass (shares are ratios within the pass and need none).
    nominal = result.host_speed
    sites = counters.get("sites", 0)
    waves = counters.get("waves", 0)
    ports = counters.get("access_ports", 0)

    def us_per_frame(seconds: float) -> float:
        return seconds * nominal / frames * 1e6

    def nested(name: str, layer: str) -> int:
        return sum(
            row[0]
            for (_, span, parent), row in trace.spans.items()
            if span == name and parent == layer
        )

    tx_calls = trace.calls("Port.send") + trace.calls("Port.send_burst")
    tx_frames = trace.calls("Port.send") + trace.weights["Port.send_burst"]
    legacy_entries = (
        trace.calls("LegacySwitch.receive")
        - nested("LegacySwitch.receive", "legacy")
        + trace.calls("LegacySwitch.receive_burst")
    )
    ss_names = [f"SoftSwitch.{n}" for n in ("receive", "receive_burst", "process_batch", "inject")]
    ss_entries = sum(
        trace.calls(name) - nested(name, "softswitch") for name in ss_names
    )
    ss_frames = counters["specialized"] + counters["fallback"]
    flow_mods = trace.weights["SoftSwitch.handle_message"]
    share = {layer: layer_self_s(trace, layer) / wall for layer in SHARES}

    return {
        "net.frames_built_per_frame": trace.calls("EthernetFrame.__init__") / frames,
        "net.vlan_ops_per_frame": sum(
            trace.calls(f"EthernetFrame.{op}")
            for op in ("push_vlan", "pop_vlan", "set_vlan")
        ) / frames,
        "net.wire_length_per_frame": trace.counts["EthernetFrame.wire_length"] / frames,
        "net.codec_calls_per_frame": (
            trace.calls("EthernetFrame.to_bytes") + trace.calls("EthernetFrame.from_bytes")
        ) / frames,
        "net.self_us_per_frame": us_per_frame(trace.self_s("net")),
        "net.share": share["net"],
        "netsim.events_per_frame": counters["events"] / frames,
        "netsim.events_per_s": counters["events"] / (wall * nominal),
        "netsim.frames_per_tx_call": _ratio(tx_frames, tx_calls),
        "netsim.link_drops": counters["link_drops"],
        "netsim.queue_hwm": counters["queue_hwm"],
        "netsim.loop_self_us_per_frame": us_per_frame(trace.self_s("netsim.loop")),
        "netsim.link_self_us_per_frame": us_per_frame(trace.self_s("netsim.link")),
        "netsim.share": share["netsim"],
        "legacy.receive_calls_per_frame": trace.calls("LegacySwitch.receive") / frames,
        "legacy.frames_per_receive_burst": _ratio(counters["legacy_rx"], legacy_entries),
        "legacy.flooded": counters["legacy_flooded"],
        "legacy.self_us_per_frame": us_per_frame(trace.self_s("legacy")),
        "legacy.share": share["legacy"],
        "softswitch.batch_calls_per_frame": ss_entries / frames,
        "softswitch.frames_per_batch": _ratio(ss_frames, ss_entries),
        "softswitch.specialized_share": _ratio(counters["specialized"], ss_frames),
        "softswitch.cache_hit_share": _ratio(trace.tiers["cache_hit"], ss_frames),
        "softswitch.fallback_share": _ratio(trace.tiers["fallback"], ss_frames),
        "softswitch.interpreted_share": _ratio(trace.tiers["interpreted"], ss_frames),
        "softswitch.compiles": counters["compiles"],
        "softswitch.invalidations": counters["invalidations"],
        "softswitch.flow_mods_per_s": flow_mods / (wall * nominal),
        "softswitch.handle_message_self_us_per_mod": _ratio(
            trace.self_of("SoftSwitch.handle_message") * nominal * 1e6, flow_mods
        ),
        "softswitch.self_us_per_frame": us_per_frame(trace.self_s("softswitch")),
        "softswitch.share": share["softswitch"],
        "controller.packet_ins": counters["packet_ins"],
        "controller.flow_mods_sent": trace.weights["Datapath.send"],
        "controller.self_s": trace.self_s("controller") * nominal,
        "controller.share": share["controller"],
        "snmp.pdus_per_port": _ratio(trace.calls("SnmpAgent.handle"), ports),
        "snmp.self_s_per_site": _ratio(trace.self_s("snmp") * nominal, sites),
        "mgmt.self_s_per_site": _ratio(trace.self_s("mgmt") * nominal, sites),
        "mgmt.share": share["mgmt"],
        "core.migrate_self_s_per_site": _ratio(
            trace.self_of("HarmlessManager.migrate") * nominal, sites
        ),
        "core.verify_s_per_wave": _ratio(
            sum(
                row[1] * nominal
                for key, row in trace.spans.items()
                if key[1] == "HarmlessFleet.verify_reachability"
            ),
            waves,
        ),
        "core.translator_rules_per_port": _ratio(counters["translator_rules"], ports),
        "traffic.gen_self_us_per_frame": us_per_frame(
            result.gen_s + trace.self_s("traffic")
        ),
        "traffic.share": share["traffic"],
        "trace.overhead_ratio": result.wall_nominal_s / untraced_wall_s,
        "trace.unattributed_share": 1.0 - trace.attributed_s() / wall,
    }


# --------------------------------------------------------------------------
# Statistics over passes
# --------------------------------------------------------------------------


def summarise(values: "list[float]") -> dict:
    """n, median and quartiles, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def spread(summary: dict) -> float:
    """Interquartile range as a share of the median."""
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*
    (negative = better)."""
    if not first:
        return 0.0 if not second else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def is_stationary(values: "list[float]", better: str, bound: float) -> bool:
    """Median of the second half of the passes is no worse than the
    first half's by more than *bound* (and no better by more, either:
    a drift is a drift)."""
    half = len(values) // 2
    if half < 2:
        return True
    first = statistics.median(values[:half])
    second = statistics.median(values[len(values) - half:])
    return abs(worse_by(first, second, better)) <= bound
