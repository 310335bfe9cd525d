"""Shared builders for the benchmark suite.

Each bench builds its environments through these helpers so every row
in EXPERIMENTS.md is produced by the same code paths the test suite
exercises.  Results are printed and archived under
``benchmarks/results/`` so the bench run leaves an auditable artefact.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.core import HarmlessManager
from repro.legacy import LegacySwitch
from repro.mgmt import DeviceConnection, get_network_driver
from repro.net import IPv4Address, MACAddress
from repro.netsim import Host, Link, Simulator
from repro.netsim.link import wire
from repro.netsim.node import Node
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.snmp import SnmpAgent, attach_bridge_mib
from repro.softswitch import ESWITCH_COST_MODEL, DatapathCostModel, SoftSwitch
from repro.traffic import FlowSpec, interleave_bursts, zipf_weights

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Cost-free datapath for wall-clock (Python-level) measurements.
ZERO_COST = DatapathCostModel.zero()

#: Full measurement passes per bench suite (merged per-row by keep_best).
MEASURE_REPEATS = 3

#: Steady-state working set the wall-clock benches cycle through.
ACTIVE_FLOWS = 64

#: Zipf skew of the burst-stream traffic mix (flow popularity, NFPA-style).
TRAFFIC_SKEW = 1.0
#: Per-flow trains of up to this many back-to-back frames (TCP-window /
#: GSO shape) — the within-burst locality a compiled burst amortises.
TRAIN_LEN = 4

BENCH_MAC_SRC = MACAddress("02:00:00:00:aa:01")
BENCH_MAC_DST = MACAddress("02:00:00:00:bb:02")


class CountingSink(Node):
    """A port peer that just counts what it receives."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.count = 0

    def receive(self, port, frame) -> None:
        self.count += 1

    def receive_burst(self, port, arrivals) -> None:
        self.count += len(arrivals)


def wire_counting_sinks(sim, switch, packets: int, count: int = 3):
    """*count* CountingSinks on the switch, queues sized for the burst.

    Everything is injected at t=0, so the drop-tail queues must hold
    the whole run or the egress links silently tail-drop what the
    datapath forwarded.
    """
    sinks = []
    for _ in range(count):
        sink = CountingSink(sim, "sink")
        wire(
            switch,
            sink,
            bandwidth_bps=None,
            propagation_delay_s=0.0,
            queue_frames=packets + 1,
        )
        sinks.append(sink)
    return sinks


def bench_flow_addresses(index: int):
    """The (src, dst) pair of exact bench flow *index*."""
    return (
        IPv4Address((10 << 24) | index),
        IPv4Address((11 << 24) | index),
    )


def install_exact_flows(switch, num_flows):
    """*num_flows* exact 5-tuple rules + a match-all drop."""
    for index in range(num_flows):
        src, dst = bench_flow_addresses(index)
        message = FlowMod(
            match=Match(eth_type=0x0800, ipv4_src=src, ipv4_dst=dst, udp_dst=2000),
            priority=100,
            instructions=[
                ApplyActions(actions=(OutputAction(port=index % 3 + 1),))
            ],
        )
        assert switch.handle_message(message.to_bytes()) == []
    drop = FlowMod(match=Match(), priority=0, instructions=[])
    assert switch.handle_message(drop.to_bytes()) == []


def make_stream(num_flows: int, packets: int) -> list:
    """One flat zipf-weighted frame stream over ACTIVE_FLOWS flows
    spread across the table, every frame a distinct object — what a
    deployed softswitch sees, since the hop before it derived the frame
    (replaying one template object per flow would time a switch's
    handling of object identity, not its datapath).

    Generated once, outside any timed loop, and *chunked* per burst, so
    every configuration processes byte-for-byte the same frame sequence.
    """
    active = min(num_flows, ACTIVE_FLOWS)
    stride = max(num_flows // active, 1)
    specs = [
        FlowSpec(
            src_mac=BENCH_MAC_SRC,
            dst_mac=BENCH_MAC_DST,
            src_ip=src,
            dst_ip=dst,
            src_port=1000,
            dst_port=2000,
        )
        for src, dst in (
            bench_flow_addresses((slot * stride) % num_flows)
            for slot in range(active)
        )
    ]
    weights = zipf_weights(len(specs), skew=TRAFFIC_SKEW)
    ((_, frames),) = interleave_bursts(
        specs, [(0.0, packets)], seed=num_flows, weights=weights,
        payload_len=32, train_len=TRAIN_LEN,
    )
    return [frame.copy() for frame in frames]


def chunk(stream: list, size: int) -> "list[list]":
    return [stream[i:i + size] for i in range(0, len(stream), size)]


def keep_best(best: dict, key, row: dict) -> None:
    """Keep the higher-pps *row* for *key* in *best* (noise suppression).

    The CI regression gate compares individual rows against committed
    baselines, and a single wall-clock measurement moves by more than a
    real regression threshold when the runner's scheduler hiccups.
    Benches therefore run the whole measurement pass N times and merge
    with this helper: interference must persist across *every* pass to
    depress a published number, while genuine regressions (which affect
    all passes equally) still show.
    """
    if key not in best or row["pps"] > best[key]["pps"]:
        best[key] = row


def save_result(name: str, text: str) -> None:
    """Print a result table and archive it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def save_json(name: str, rows: list, mode: str) -> pathlib.Path:
    """Archive machine-readable rows for the check_regression.py gate."""
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"bench": name, "mode": mode, "rows": rows}
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def measure_usecase_datapath(
    name: str,
    make_rig,
    packets: int = 12_000,
    burst: int = 32,
    repeats: int = MEASURE_REPEATS,
) -> list:
    """Compiled-vs-interpreted wall-clock pps through a use-case pipeline.

    ``make_rig(specialize)`` returns ``(sim, switch, stream, in_port)``:
    a fully provisioned HARMLESS site whose *switch* carries the use
    case's installed rules, and a frame *stream* exercising them in
    steady state.  Each config runs *repeats* full passes; the best
    pps survives (the ``keep_best`` noise-suppression story: scheduler
    interference must depress *every* pass of a config to depress its
    published number, which matters here because the site's full
    delivery path — trunk, QinQ, host receive — dwarfs the datapath
    delta being measured).  The specialized rows carry
    ``speedup_vs_interpreted`` plus the compiled-tier activity
    counters the acceptance gate checks.
    """
    best: dict[str, dict] = {}
    for config in ("interpreted", "specialized"):
        runs = []
        for _ in range(repeats):
            sim, switch, stream, in_port = make_rig(config == "specialized")
            frames = [stream[i % len(stream)] for i in range(packets)]
            bursts = [
                frames[i : i + burst] for i in range(0, len(frames), burst)
            ]
            process_batch = switch.process_batch
            start = time.perf_counter()
            for chunk in bursts:
                process_batch(in_port, list(chunk))
            sim.run()
            elapsed = time.perf_counter() - start
            spec = switch.stats()["specialization"]
            runs.append(
                {
                    "bench": name,
                    "config": config,
                    "packets": len(frames),
                    "pps": len(frames) / elapsed,
                    "compiles": spec["compiles"],
                    "specialized_share": (
                        spec["specialized_frames"] / len(frames)
                        if spec["enabled"]
                        else 0.0
                    ),
                }
            )
        row = dict(runs[0])
        row["pps"] = max(run["pps"] for run in runs)
        best[config] = row
    best["specialized"]["speedup_vs_interpreted"] = (
        best["specialized"]["pps"] / best["interpreted"]["pps"]
    )
    return [best["interpreted"], best["specialized"]]


def render_usecase_datapath(name: str, rows: list) -> str:
    lines = [
        "=" * 72,
        f"{name}: datapath wall-clock, compiled tier vs interpreted",
        "=" * 72,
        f"{'config':>12} {'pps':>12} {'speedup':>8} {'compiles':>9} "
        f"{'spec share':>11}",
    ]
    for row in rows:
        speedup = (
            f"{row['speedup_vs_interpreted']:>7.2f}x"
            if "speedup_vs_interpreted" in row
            else f"{'—':>8}"
        )
        lines.append(
            f"{row['config']:>12} {row['pps']:>12.0f} {speedup} "
            f"{row['compiles']:>9} {row['specialized_share']:>10.1%}"
        )
    return "\n".join(lines)


def make_hosts(sim: Simulator, count: int, net: str = "10.0.0") -> list[Host]:
    return [
        Host(
            sim,
            f"h{index + 1}",
            MACAddress(0x020000000001 + index),
            IPv4Address(f"{net}.{index + 1}"),
        )
        for index in range(count)
    ]


def build_harmless_site(
    num_hosts: int,
    apps_factory=None,
    cost_model=ESWITCH_COST_MODEL,
    legacy_delay_s: float = 4e-6,
    controller_latency_s: float = 50e-6,
):
    """Hosts on a legacy switch migrated by the HARMLESS Manager.

    Returns (sim, hosts, deployment, controller).
    """
    num_ports = num_hosts + 1
    sim = Simulator()
    legacy = LegacySwitch(
        sim, "edge", num_ports=num_ports, processing_delay_s=legacy_delay_s
    )
    hosts = make_hosts(sim, num_hosts)
    for index, host in enumerate(hosts):
        Link(host.port0, legacy.port(index + 1))
    mib, _ = attach_bridge_mib(legacy)
    driver = get_network_driver("sim-ios")(
        DeviceConnection(agent=SnmpAgent(mib), hostname="edge")
    )
    driver.open()
    controller = Controller(sim)
    for app in (apps_factory or (lambda: [LearningSwitchApp()]))():
        controller.add_app(app)
    manager = HarmlessManager(sim, controller=controller, cost_model=cost_model)
    deployment = manager.migrate(
        legacy, driver, trunk_port=num_ports, controller_latency_s=controller_latency_s
    )
    sim.run(until=0.05)
    return sim, hosts, deployment, controller


def build_ideal_site(
    num_hosts: int,
    apps_factory=None,
    cost_model=ESWITCH_COST_MODEL,
    controller_latency_s: float = 50e-6,
):
    """The reference: hosts directly on one software OpenFlow switch."""
    sim = Simulator()
    switch = SoftSwitch(sim, "native", datapath_id=0x42, cost_model=cost_model)
    hosts = make_hosts(sim, num_hosts)
    for index, host in enumerate(hosts):
        Link(host.port0, switch.add_port(index + 1))
    controller = Controller(sim)
    for app in (apps_factory or (lambda: [LearningSwitchApp()]))():
        controller.add_app(app)
    controller.connect(switch, latency_s=controller_latency_s)
    sim.run(until=0.05)
    return sim, hosts, switch, controller


def build_legacy_site(num_hosts: int, legacy_delay_s: float = 4e-6):
    """The pre-migration baseline: hosts on the plain legacy switch."""
    sim = Simulator()
    legacy = LegacySwitch(
        sim, "edge", num_ports=num_hosts + 1, processing_delay_s=legacy_delay_s
    )
    hosts = make_hosts(sim, num_hosts)
    for index, host in enumerate(hosts):
        Link(host.port0, legacy.port(index + 1))
    return sim, hosts, legacy


def warm_up_pings(sim, hosts, pairs, until=2.0):
    """Prime ARP tables and reactive flows so measurements are steady-state."""
    for a, b in pairs:
        a.ping(b.ip)
    sim.run(until=sim.now + until)
