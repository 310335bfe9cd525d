"""Flow populations and arrival processes for the benchmarks.

Everything takes an explicit ``random.Random`` or seed so a benchmark
row is exactly reproducible — the NFPA methodology the paper's authors
use for software-switch measurement.

Besides the per-frame :func:`cbr_schedule`, the module generates
**bursts** — real
softswitches only reach line rate by amortising per-packet overhead
over batches (DPDK/OVS batch receive), and the simulated pipeline
mirrors that: :func:`burst_schedule` spaces whole bursts instead of
single frames, :func:`interleave_bursts` fills them with frames from a
weighted flow mix (reusing one template frame per flow, which the batch
datapath decodes once per burst), and :class:`BurstSource` plays the
result onto a port with one coalesced link event per burst.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.net.addresses import BROADCAST_MAC, IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.net.ethernet import EthernetFrame
from repro.netsim.node import Node, Port


@dataclass(frozen=True)
class FlowSpec:
    """One synthetic flow (constant 5-tuple)."""

    src_mac: MACAddress
    dst_mac: MACAddress
    src_ip: IPv4Address
    dst_ip: IPv4Address
    src_port: int
    dst_port: int

    def frame(self, payload_len: int = 64, vlan_id: "int | None" = None) -> EthernetFrame:
        return synth_frame(self, payload_len=payload_len, vlan_id=vlan_id)


def make_flow_population(
    count: int,
    seed: int = 0,
    src_net: str = "10.1.0.0",
    dst_net: str = "10.2.0.0",
    dst_port: "int | None" = None,
) -> list[FlowSpec]:
    """*count* distinct flows with randomised addresses."""
    rng = random.Random(seed)
    flows = []
    seen = set()
    base_src = int(IPv4Address(src_net))
    base_dst = int(IPv4Address(dst_net))
    while len(flows) < count:
        spec = FlowSpec(
            src_mac=MACAddress(0x02_0A_00_000000 + rng.randrange(1 << 24)),
            dst_mac=MACAddress(0x02_0B_00_000000 + rng.randrange(1 << 24)),
            src_ip=IPv4Address(base_src + rng.randrange(1 << 16)),
            dst_ip=IPv4Address(base_dst + rng.randrange(1 << 16)),
            src_port=rng.randrange(1024, 65536),
            dst_port=dst_port if dst_port is not None else rng.randrange(1, 1024),
        )
        key = (spec.src_ip, spec.dst_ip, spec.src_port, spec.dst_port)
        if key in seen:
            continue
        seen.add(key)
        flows.append(spec)
    return flows


def zipf_weights(count: int, skew: float = 1.0) -> list[float]:
    """Zipfian popularity weights (rank 1 most popular), normalised."""
    if count < 1:
        raise ValueError("need at least one flow")
    raw = [1.0 / (rank**skew) for rank in range(1, count + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def synth_frame(
    spec: FlowSpec, payload_len: int = 64, vlan_id: "int | None" = None
) -> EthernetFrame:
    """A UDP frame for *spec* padded to *payload_len* UDP-payload bytes."""
    return udp_frame(
        spec.src_mac,
        spec.dst_mac,
        spec.src_ip,
        spec.dst_ip,
        spec.src_port,
        spec.dst_port,
        payload=b"\x00" * payload_len,
        vlan_id=vlan_id,
    )


def cbr_schedule(rate_pps: float, duration_s: float, start_s: float = 0.0) -> list[float]:
    """Constant-bit-rate send times."""
    if rate_pps <= 0:
        raise ValueError("rate must be positive")
    interval = 1.0 / rate_pps
    count = int(duration_s * rate_pps)
    return [start_s + index * interval for index in range(count)]


def burst_schedule(
    rate_pps: float,
    duration_s: float,
    burst_size: int,
    start_s: float = 0.0,
) -> "list[tuple[float, int]]":
    """CBR traffic emitted in bursts: ``(start_time, frame_count)`` pairs.

    The aggregate rate matches :func:`cbr_schedule` — the same
    ``int(duration * rate)`` frames — but frames leave in bursts of
    *burst_size* spaced ``burst_size / rate`` apart (the final burst
    may be partial).  ``burst_size=1`` degenerates to per-frame CBR.
    """
    if rate_pps <= 0:
        raise ValueError("rate must be positive")
    if burst_size < 1:
        raise ValueError("burst size must be at least 1")
    total = int(duration_s * rate_pps)
    interval = burst_size / rate_pps
    schedule = []
    index = 0
    while total > 0:
        count = min(burst_size, total)
        schedule.append((start_s + index * interval, count))
        total -= count
        index += 1
    return schedule


def interleave_bursts(
    flows: "list[FlowSpec]",
    schedule: "list[tuple[float, int]]",
    seed: int = 0,
    weights: "list[float] | None" = None,
    payload_len: int = 64,
    vlan_id: "int | None" = None,
    train_len: int = 1,
) -> "list[tuple[float, list[EthernetFrame]]]":
    """Fill *schedule*'s bursts with frames from a weighted flow mix.

    Each burst interleaves frames drawn from *flows* (by *weights*,
    e.g. :func:`zipf_weights`; uniform when omitted), so one burst
    carries repeated flow keys the way aggregated access traffic does —
    exactly what the batch datapath's per-key grouping amortises.
    ``train_len > 1`` makes every draw contribute a *train* of up to
    that many back-to-back frames from one flow (the TCP-window/GSO
    shape real captures show), raising within-burst flow locality.
    One template frame is built per flow and reused for all its packets
    (frames are immutable on the wire; the pipeline transforms copies),
    which also lets the datapath decode each template once per burst.
    """
    if not flows:
        raise ValueError("need at least one flow")
    if weights is not None and len(weights) != len(flows):
        raise ValueError("weights must align with flows")
    if train_len < 1:
        raise ValueError("train length must be at least 1")
    rng = random.Random(seed)
    templates = [
        synth_frame(flow, payload_len=payload_len, vlan_id=vlan_id)
        for flow in flows
    ]
    indices = range(len(flows))
    # choices() rebuilds the cumulative distribution on every call;
    # precompute it once so per-train draws stay O(log flows).
    cum_weights = (
        None if weights is None else list(itertools.accumulate(weights))
    )
    bursts = []
    for start, count in schedule:
        if train_len == 1:
            picks = rng.choices(indices, cum_weights=cum_weights, k=count)
            frames = [templates[index] for index in picks]
        else:
            frames = []
            while len(frames) < count:
                (index,) = rng.choices(indices, cum_weights=cum_weights)
                run = min(rng.randint(1, train_len), count - len(frames))
                frames.extend([templates[index]] * run)
        bursts.append((start, frames))
    return bursts


#: Source MAC a broadcast storm claims unless the caller picks one
#: (locally administered, so it never collides with host/station MACs).
STORM_SRC_MAC = MACAddress(0x02_BA_D0_00_00_01)


def storm_frames(
    count: int,
    src_mac: "MACAddress | None" = None,
    vlan_id: "int | None" = None,
    payload_len: int = 32,
) -> "list[EthernetFrame]":
    """*count* copies of one broadcast frame — a looped or babbling source.

    A real broadcast storm replicates the *same* frame (a loop replays
    it, a babbling NIC repeats it), so a single template is reused for
    the whole train: *count* identical broadcasts, each flooded.
    """
    if count < 1:
        raise ValueError("storm needs at least one frame")
    template = udp_frame(
        src_mac if src_mac is not None else STORM_SRC_MAC,
        BROADCAST_MAC,
        IPv4Address("10.255.0.1"),
        IPv4Address("10.255.255.255"),
        68,
        67,
        payload=b"\x00" * payload_len,
        vlan_id=vlan_id,
    )
    return [template] * count


def station_mac(pod: int, station: int = 0) -> MACAddress:
    """The MAC a fabric traffic station in *pod* claims for its flows."""
    if not 0 <= pod < 256 or not 0 <= station < 256:
        raise ValueError("pod and station indices must fit one byte")
    return MACAddress(0x02_F0_00_00_00_00 | (pod << 8) | station)


def _station_net(pod: int) -> str:
    """First two octets of a pod station's flow-IP block.

    Historically ``10.{100 + pod}``; the carry folds into the first
    octet so pods >= 156 stay representable while every pod below
    that keeps its exact historical prefix.
    """
    hi, lo = divmod(100 + pod, 256)
    return f"{10 + hi}.{lo}"


@dataclass(frozen=True)
class CrossPodFlow:
    """One fabric flow: a 5-tuple travelling between two pods."""

    src_pod: int
    dst_pod: int
    spec: FlowSpec


def cross_pod_flows(
    pods: int, per_pair: int = 1, seed: int = 0
) -> "list[CrossPodFlow]":
    """Flows between every ordered pod pair of a fabric.

    Each of the ``pods * (pods - 1)`` ordered pairs gets *per_pair*
    flows whose endpoints are the pods' traffic stations
    (:func:`station_mac`) and whose IPs/L4 ports make every 5-tuple
    distinct — so a multi-hop fabric bench exercises many flow
    keys per hop while the learning switch only installs one rule per
    destination MAC.  Frames for a flow enter the fabric at the
    station of ``src_pod`` and must be delivered to the station of
    ``dst_pod``.
    """
    if pods < 2:
        raise ValueError("cross-pod traffic needs at least two pods")
    if per_pair < 1:
        raise ValueError("per_pair must be at least 1")
    rng = random.Random(seed)
    flows = []
    for src_pod in range(pods):
        for dst_pod in range(pods):
            if src_pod == dst_pod:
                continue
            for index in range(per_pair):
                flows.append(
                    CrossPodFlow(
                        src_pod=src_pod,
                        dst_pod=dst_pod,
                        spec=FlowSpec(
                            src_mac=station_mac(src_pod),
                            dst_mac=station_mac(dst_pod),
                            src_ip=IPv4Address(
                                f"{_station_net(src_pod)}.{dst_pod}.{index + 1}"
                            ),
                            dst_ip=IPv4Address(
                                f"{_station_net(dst_pod)}.{src_pod}.{index + 1}"
                            ),
                            src_port=rng.randrange(1024, 65536),
                            dst_port=rng.randrange(1, 1024),
                        ),
                    )
                )
    return flows


def announcement_frame(spec: FlowSpec, payload_len: int = 32) -> EthernetFrame:
    """A broadcast frame *from the flow's destination* station.

    Played into the fabric at the destination pod before measurement,
    it floods everywhere and lets every learning switch on the way
    learn ``spec.dst_mac``'s location — the warm-up that turns the
    first measured frame of each flow into a data-plane hit instead of
    a packet-in.
    """
    return udp_frame(
        spec.dst_mac,
        BROADCAST_MAC,
        spec.dst_ip,
        spec.src_ip,
        spec.dst_port,
        spec.src_port,
        payload=b"\x00" * payload_len,
    )


class BurstSource(Node):
    """A traffic-generator node that plays bursts onto its port.

    Wire it to a device under test, hand it ``(time, frames)`` bursts
    (from :func:`interleave_bursts`), and :meth:`start` schedules one
    simulator event per burst (via ``Simulator.schedule_many``); each
    firing pushes the whole burst through ``Port.send_burst``, so the
    frames ride one coalesced link event to the far end.  Received
    frames are counted and dropped (a generator is not a sink).
    """

    def __init__(self, sim, name: str) -> None:
        super().__init__(sim, name)
        self.sent = 0
        self.rx_count = 0

    @property
    def port0(self) -> Port:
        if not self.ports:
            self.add_port()
        return self.ports[min(self.ports)]

    def start(
        self, bursts: "list[tuple[float, list[EthernetFrame]]]"
    ) -> None:
        """Schedule every burst for transmission at its start time."""
        port = self.port0

        def fire(frames: "list[EthernetFrame]") -> None:
            self.sent += port.send_burst(frames)

        self.sim.schedule_many(
            (start, (lambda f=frames: fire(f))) for start, frames in bursts
        )

    def receive(self, port: Port, frame: EthernetFrame) -> None:
        self.rx_count += 1
