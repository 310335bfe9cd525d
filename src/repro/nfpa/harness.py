"""Throughput / latency measurement over simulated topologies."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable

from repro.net.ethernet import EthernetFrame
from repro.netsim.node import Node, Port
from repro.netsim.simulator import Simulator
from repro.traffic.generators import FlowSpec, synth_frame


@dataclass
class LatencyStats:
    """Summary of per-packet one-way latencies (seconds)."""

    #: One entry per measured packet; the sink appends to it.
    samples: list[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples) if self.samples else float("nan")

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else float("nan")

    def percentile(self, pct: float) -> float:
        if not self.samples:
            return float("nan")
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))
        return ordered[index]


@dataclass
class MeasurementResult:
    """One measurement row."""

    label: str
    offered_packets: int
    delivered_packets: int
    duration_s: float
    latency: LatencyStats = field(default_factory=LatencyStats)

    @property
    def delivered_pps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.delivered_packets / self.duration_s

    @property
    def loss_rate(self) -> float:
        if not self.offered_packets:
            return 0.0
        return 1.0 - self.delivered_packets / self.offered_packets

    def row(self) -> str:
        return (
            f"{self.label:<28s} {self.delivered_pps / 1e6:8.3f} Mpps   "
            f"loss {self.loss_rate * 100:5.2f}%   "
            f"lat mean {self.latency.mean * 1e6:7.2f}us "
            f"p99 {self.latency.p99 * 1e6:7.2f}us"
        )


class _MeasurementSink(Node):
    """Terminates measured traffic and records per-packet latency."""

    def __init__(self, sim: Simulator, name: str, stats: "MeasurementResult") -> None:
        super().__init__(sim, name)
        self.stats = stats
        self._send_times: dict[bytes, float] = {}

    def expect(self, frame: EthernetFrame, sent_at: float) -> None:
        # Key by payload identity (unique per measured packet).
        self._send_times[frame.payload[-8:]] = sent_at

    def receive(self, port: Port, frame: EthernetFrame) -> None:
        sent_at = self._send_times.pop(frame.payload[-8:], None)
        self.stats.delivered_packets += 1
        if sent_at is not None:
            self.stats.latency.samples.append(self.sim.now - sent_at)


InjectFn = Callable[[EthernetFrame], None]


def measure_forwarding(
    sim: Simulator,
    label: str,
    ingress: InjectFn,
    sink: "_MeasurementSink",
    flows: list[FlowSpec],
    packets_per_flow: int,
    interval_s: float,
    payload_len: int = 56,
    vlan_id: "int | None" = None,
) -> MeasurementResult:
    """Send packets round-robin over *flows* and measure at *sink*.

    The caller wires the topology and provides ``ingress`` (how a frame
    enters the device under test) and the sink node at the egress side.
    """
    result = sink.stats
    result.label = label
    offered = 0
    send_clock = sim.now
    for index in range(packets_per_flow * len(flows)):
        spec = flows[index % len(flows)]
        frame = synth_frame(spec, payload_len=payload_len, vlan_id=vlan_id)
        # Stamp a unique trailer so the sink can match send times.
        stamped = frame.replaced(
            payload=frame.payload[:-8] + index.to_bytes(8, "big")
        )
        send_clock += interval_s
        offered += 1

        def fire(f=stamped, t=send_clock):
            sink.expect(f, t)
            ingress(f)

        sim.schedule_at(send_clock, fire)
    start = sim.now
    sim.run()
    result.offered_packets = offered
    result.duration_s = max(sim.now - start, interval_s * offered)
    return result


def make_sink(sim: Simulator, label: str) -> "_MeasurementSink":
    """A sink node pre-wired with an empty result row."""
    result = MeasurementResult(
        label=label, offered_packets=0, delivered_packets=0, duration_s=0.0
    )
    return _MeasurementSink(sim, f"sink-{label}", result)

