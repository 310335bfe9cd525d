"""End hosts with a miniature ARP/IPv4/ICMP/UDP stack.

Hosts resolve MAC addresses via real ARP exchanges, answer pings and
run UDP services (the DNS server in the parental-control demo is one).
Any other IP protocol, TCP included, is counted as
``unknown-ip-protocol``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.addresses import BROADCAST_MAC, GROUP_BIT, IPv4Address, MACAddress
from repro.net.arp import ARP_OP_REPLY, ARP_OP_REQUEST, ArpPacket
from repro.net.build import arp_frame
from repro.net.errors import PacketDecodeError
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, EthernetFrame
from repro.net.icmp import ICMP_TYPE_ECHO_REPLY, ICMP_TYPE_ECHO_REQUEST, IcmpPacket
from repro.net.ipv4 import IPPROTO_ICMP, IPPROTO_UDP, IPv4Packet
from repro.net.udp import UdpDatagram
from repro.netsim.node import Node, Port
from repro.netsim.simulator import Simulator

#: Seconds an ARP entry stays fresh.
ARP_TTL_S = 60.0
#: Seconds before parked frames waiting on an ARP reply are dropped.
ARP_REQUEST_TIMEOUT_S = 1.0
#: How long a ping waits before being recorded as lost.
PING_TIMEOUT_S = 1.0

#: The reasons in ``Host.drops`` that ``rx_unhandled`` sums: received
#: frames the stack could not use.  ``arp-timeout`` (parked outgoing
#: frames whose next hop never answered) is kept beside them.
RX_DROPS = (
    "tagged", "not-for-me:mac", "unknown-ethertype", "malformed",
    "not-for-me:ip", "unknown-ip-protocol",
)

UdpHandler = Callable[["Host", IPv4Address, int, int, bytes], None]


@dataclass
class PingResult:
    """Outcome of one echo request."""

    sequence: int
    sent_at: float
    rtt: Optional[float] = None

    @property
    def lost(self) -> bool:
        return self.rtt is None


class Host(Node):
    """A single-homed end host."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MACAddress,
        ip: IPv4Address,
        gateway: "IPv4Address | None" = None,
    ) -> None:
        super().__init__(sim, name)
        self.mac = MACAddress(mac)
        self.ip = IPv4Address(ip)
        self.gateway = IPv4Address(gateway) if gateway is not None else None
        self.port0 = self.add_port(0, name=f"{name}:eth0")
        self.arp_table: dict[IPv4Address, tuple[MACAddress, float]] = {}
        self._pending_arp: dict[IPv4Address, list[EthernetFrame]] = {}
        self.udp_handlers: dict[int, UdpHandler] = {}
        self._next_ephemeral = 49152
        self.ping_results: list[PingResult] = []
        self._pending_pings: dict[tuple[int, int], PingResult] = {}
        self._ping_id = 0
        self.rx_ip_packets = 0
        #: Why frames died here, reason -> count (see ``RX_DROPS``).
        self.drops: "defaultdict[str, int]" = defaultdict(int)
        #: (src_ip, src_port, dst_port, payload) tuples seen by UDP handlers.
        self.udp_received: list[tuple[IPv4Address, int, int, bytes]] = []

    # ------------------------------------------------------------- sending

    def _allocate_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > 65535:
            self._next_ephemeral = 49152
        return port

    def resolve(self, ip: IPv4Address) -> Optional[MACAddress]:
        """Fresh ARP-table lookup, or None."""
        key = IPv4Address(ip)
        entry = self.arp_table.get(key)
        if entry is None:
            return None
        mac, learned_at = entry
        if self.sim.now - learned_at > ARP_TTL_S:
            del self.arp_table[key]
            return None
        return mac

    def send_ip(self, packet: IPv4Packet) -> None:
        """Send an IPv4 packet, ARP-resolving the next hop as needed."""
        next_hop = packet.dst
        if self.gateway is not None and not self._same_subnet(packet.dst):
            next_hop = self.gateway
        mac = self.resolve(next_hop)
        frame_payload = packet.to_bytes()
        if mac is not None:
            frame = EthernetFrame(
                dst=mac, src=self.mac, ethertype=ETHERTYPE_IPV4, payload=frame_payload
            )
            self.port0.send(frame)
            return
        # Park the frame and ask who-has.
        placeholder = EthernetFrame(
            dst=BROADCAST_MAC,
            src=self.mac,
            ethertype=ETHERTYPE_IPV4,
            payload=frame_payload,
        )
        next_hop = IPv4Address(next_hop)
        queue = self._pending_arp.setdefault(next_hop, [])
        queue.append(placeholder)
        if len(queue) == 1:
            request = ArpPacket.request(self.mac, self.ip, next_hop)
            self.port0.send(arp_frame(request))
            self.sim.schedule(ARP_REQUEST_TIMEOUT_S, self._arp_timeout, next_hop)

    def _arp_timeout(self, next_hop: IPv4Address) -> None:
        """Unanswered ARP: drop the parked frames so later attempts
        trigger a fresh request instead of queueing forever."""
        parked = self._pending_arp.pop(next_hop, None)
        if parked:
            self.drops["arp-timeout"] += len(parked)

    def _same_subnet(self, dst: IPv4Address) -> bool:
        # Hosts use a /24 assumption unless they have no gateway at all.
        return int(dst) >> 8 == int(self.ip) >> 8

    def send_udp(
        self,
        dst_ip: IPv4Address,
        dst_port: int,
        payload: bytes,
        src_port: "int | None" = None,
    ) -> int:
        """Send a UDP datagram; returns the source port used."""
        if src_port is None:
            src_port = self._allocate_port()
        datagram = UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
        packet = IPv4Packet(
            src=self.ip,
            dst=IPv4Address(dst_ip),
            protocol=IPPROTO_UDP,
            payload=datagram.to_bytes(self.ip, IPv4Address(dst_ip)),
        )
        self.send_ip(packet)
        return src_port

    def ping(self, dst_ip: IPv4Address, payload: bytes = b"harmless-ping") -> PingResult:
        """Send one echo request; result fills in when the reply returns."""
        self._ping_id += 1
        sequence = self._ping_id
        result = PingResult(sequence=sequence, sent_at=self.sim.now)
        self.ping_results.append(result)
        key = (0x4242, sequence)
        self._pending_pings[key] = result

        echo = IcmpPacket.echo_request(identifier=0x4242, sequence=sequence, payload=payload)
        packet = IPv4Packet(
            src=self.ip,
            dst=IPv4Address(dst_ip),
            protocol=IPPROTO_ICMP,
            payload=echo.to_bytes(),
        )
        self.send_ip(packet)
        self.sim.schedule(PING_TIMEOUT_S, self._pending_pings.pop, key, None)
        return result

    # ----------------------------------------------------------- services

    def serve_udp(self, port: int, handler: UdpHandler) -> None:
        """Register *handler* for datagrams to *port*."""
        self.udp_handlers[port] = handler

    # ----------------------------------------------------------- receiving

    @property
    def rx_unhandled(self) -> int:
        """Received frames the stack could not use: the sum of the
        ``RX_DROPS`` reasons in ``drops``."""
        drops = self.drops  # .get: reading must not add zero-valued keys
        return sum(drops.get(reason, 0) for reason in RX_DROPS)

    def receive(self, port: Port, frame: EthernetFrame) -> None:
        if frame.vlan is not None:
            # Hosts sit on access ports; tagged frames are not for us.
            self.drops["tagged"] += 1
            return
        if not (frame.dst == self.mac or frame.dst & GROUP_BIT):
            self.drops["not-for-me:mac"] += 1
            return
        try:
            if frame.ethertype == ETHERTYPE_ARP:
                self._receive_arp(ArpPacket.from_bytes(frame.payload))
            elif frame.ethertype == ETHERTYPE_IPV4:
                self._receive_ip(IPv4Packet.from_bytes(frame.payload))
            else:
                self.drops["unknown-ethertype"] += 1
        except PacketDecodeError:
            # Malformed payloads are dropped, as a real stack would.
            self.drops["malformed"] += 1

    def _receive_arp(self, arp: ArpPacket) -> None:
        # Learn the sender either way (standard gratuitous-friendly ARP).
        self.arp_table[arp.sender_ip] = (arp.sender_mac, self.sim.now)
        if arp.opcode == ARP_OP_REQUEST and arp.target_ip == self.ip:
            self.port0.send(arp_frame(arp.make_reply(self.mac), src_mac=self.mac))
        elif arp.opcode == ARP_OP_REPLY:
            self._flush_pending(arp.sender_ip, arp.sender_mac)

    def _flush_pending(self, ip: IPv4Address, mac: MACAddress) -> None:
        for frame in self._pending_arp.pop(ip, []):
            resolved = EthernetFrame(
                dst=mac, src=self.mac, ethertype=frame.ethertype, payload=frame.payload
            )
            self.port0.send(resolved)

    def _receive_ip(self, packet: IPv4Packet) -> None:
        if packet.dst != self.ip and not packet.dst.is_multicast:
            self.drops["not-for-me:ip"] += 1
            return
        self.rx_ip_packets += 1
        if packet.protocol == IPPROTO_ICMP:
            self._receive_icmp(packet)
        elif packet.protocol == IPPROTO_UDP:
            self._receive_udp(packet)
        else:
            self.drops["unknown-ip-protocol"] += 1

    def _receive_icmp(self, packet: IPv4Packet) -> None:
        icmp = IcmpPacket.from_bytes(packet.payload)
        if icmp.icmp_type == ICMP_TYPE_ECHO_REQUEST:
            reply = icmp.make_reply()
            response = IPv4Packet(
                src=self.ip,
                dst=packet.src,
                protocol=IPPROTO_ICMP,
                payload=reply.to_bytes(),
            )
            self.send_ip(response)
        elif icmp.icmp_type == ICMP_TYPE_ECHO_REPLY:
            key = (icmp.identifier, icmp.sequence)
            result = self._pending_pings.pop(key, None)
            if result is not None:
                result.rtt = self.sim.now - result.sent_at

    def _receive_udp(self, packet: IPv4Packet) -> None:
        datagram = UdpDatagram.from_bytes(packet.payload, packet.src, packet.dst)
        handler = self.udp_handlers.get(datagram.dst_port)
        self.udp_received.append(
            (packet.src, datagram.src_port, datagram.dst_port, datagram.payload)
        )
        if handler is not None:
            handler(self, packet.src, datagram.src_port, datagram.dst_port, datagram.payload)

    # ----------------------------------------------------------- queries

    @property
    def ping_loss_rate(self) -> float:
        if not self.ping_results:
            return 0.0
        lost = sum(1 for result in self.ping_results if result.lost)
        return lost / len(self.ping_results)

    def rtts(self) -> list[float]:
        """RTTs of all answered pings, in seconds."""
        return [r.rtt for r in self.ping_results if r.rtt is not None]
