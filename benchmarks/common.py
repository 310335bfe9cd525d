"""Shared helpers for the benchmark suite.

Frame streams, counting sinks, the use-case datapath pass and the
artefact writers.  Sites come from :mod:`repro.core.verify`, the one
site builder the tests use too.  Results are printed and archived under
``benchmarks/results/`` so the bench run leaves an auditable artefact.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.net import IPv4Address, MACAddress
from repro.netsim import Simulator
from repro.netsim.link import wire
from repro.netsim.node import Node
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.softswitch import DatapathCostModel
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


def run_rig_pass(make_rig, specialize: bool, packets: int, burst: int) -> dict:
    """One pass of *packets* frames, in bursts of *burst*, through the
    use-case rig ``make_rig(specialize)``.

    The rig returns ``(sim, switch, stream, in_port)``: a fully
    provisioned HARMLESS site whose *switch* carries the use case's
    installed rules, and a frame *stream* exercising them in steady
    state.  Returns the compiled-tier counters — ``compiles`` since the
    switch was built, and ``specialized_share``, the measured frames the
    compiled program served over the measured frames (frames served
    while the rig was set up are not counted) — plus ``seconds``, the
    wall clock of the burst loop alone.
    """
    sim, switch, stream, in_port = make_rig(specialize)
    frames = [stream[i % len(stream)] for i in range(packets)]
    bursts = [frames[i : i + burst] for i in range(0, len(frames), burst)]
    served_before = switch.stats()["specialization"]["specialized_frames"]
    process_batch = switch.process_batch
    start = time.perf_counter()
    for chunk in bursts:
        process_batch(in_port, list(chunk))
    sim.run()
    seconds = time.perf_counter() - start
    spec = switch.stats()["specialization"]
    served = spec["specialized_frames"] - served_before
    return {
        "packets": len(frames),
        "seconds": seconds,
        "compiles": spec["compiles"],
        "specialized_share": served / len(frames) if spec["enabled"] else 0.0,
    }


def measure_usecase_datapath(
    name: str,
    make_rig,
    packets: int = 12_000,
    burst: int = 32,
    repeats: int = MEASURE_REPEATS,
) -> list:
    """Compiled-vs-interpreted wall-clock pps through a use-case rig.

    Each config runs *repeats* passes of :func:`run_rig_pass`; the best
    pps survives (the ``keep_best`` noise-suppression story: scheduler
    interference must depress *every* pass of a config to depress its
    published number, which matters here because the site's full
    delivery path — trunk, QinQ, host receive — dwarfs the datapath
    delta being measured).  The specialized row carries
    ``speedup_vs_interpreted`` plus the compiled-tier counters the
    regression gate checks.
    """
    best: dict[str, dict] = {}
    for config in ("interpreted", "specialized"):
        runs = [
            run_rig_pass(make_rig, config == "specialized", packets, burst)
            for _ in range(repeats)
        ]
        best[config] = {
            "bench": name,
            "config": config,
            "packets": runs[0]["packets"],
            "pps": max(run["packets"] / run["seconds"] for run in runs),
            "compiles": runs[0]["compiles"],
            "specialized_share": runs[0]["specialized_share"],
        }
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
