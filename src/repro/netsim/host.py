"""End hosts with a miniature ARP/IPv4/ICMP/UDP/TCP stack.

Hosts resolve MAC addresses via real ARP exchanges, answer pings, run
UDP services (the DNS server in the parental-control demo is one) and
open simplified TCP connections (SYN -> SYN/ACK -> request -> response)
sufficient for the HTTP-level use cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.addresses import BROADCAST_MAC, IPv4Address, MACAddress
from repro.net.arp import ARP_OP_REPLY, ARP_OP_REQUEST, ArpPacket
from repro.net.build import arp_frame, ethernet_ipv4
from repro.net.errors import PacketDecodeError
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, EthernetFrame
from repro.net.icmp import ICMP_TYPE_ECHO_REPLY, ICMP_TYPE_ECHO_REQUEST, IcmpPacket
from repro.net.ipv4 import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP, IPv4Packet
from repro.net.tcp import (
    TCP_FLAG_ACK,
    TCP_FLAG_FIN,
    TCP_FLAG_PSH,
    TCP_FLAG_RST,
    TCP_FLAG_SYN,
    TcpSegment,
)
from repro.net.udp import UdpDatagram
from repro.netsim.node import Node, Port
from repro.netsim.simulator import Simulator

#: Seconds an ARP entry stays fresh.
ARP_TTL_S = 60.0
#: Seconds before parked frames waiting on an ARP reply are dropped.
ARP_REQUEST_TIMEOUT_S = 1.0
#: How long a ping waits before being recorded as lost.
PING_TIMEOUT_S = 1.0

UdpHandler = Callable[["Host", IPv4Address, int, int, bytes], None]
TcpServer = Callable[["Host", IPv4Address, int, bytes], "bytes | None"]


@dataclass
class PingResult:
    """Outcome of one echo request."""

    sequence: int
    sent_at: float
    rtt: Optional[float] = None

    @property
    def lost(self) -> bool:
        return self.rtt is None


@dataclass
class _TcpConn:
    """Client-side state of one simplified TCP exchange."""

    remote_ip: IPv4Address
    remote_port: int
    local_port: int
    request: bytes
    on_response: "Optional[Callable[[bytes], None]]"
    state: str = "syn-sent"
    seq: int = 1000
    response: bytes = b""


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
        self.tcp_servers: dict[int, TcpServer] = {}
        self._tcp_conns: dict[tuple[int, int], _TcpConn] = {}
        self._next_ephemeral = 49152
        self.ping_results: list[PingResult] = []
        self._pending_pings: dict[tuple[int, int], PingResult] = {}
        self._ping_id = 0
        self.rx_ip_packets = 0
        self.rx_unhandled = 0
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
            # Unanswered ARP: drop the parked frames so later attempts
            # trigger a fresh request instead of queueing forever.
            self.sim.schedule(ARP_REQUEST_TIMEOUT_S, self._pending_arp.pop, next_hop, None)

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

    def tcp_request(
        self,
        dst_ip: IPv4Address,
        dst_port: int,
        request: bytes,
        on_response: "Optional[Callable[[bytes], None]]" = None,
    ) -> None:
        """Open a simplified TCP exchange: handshake, one request, one reply."""
        local_port = self._allocate_port()
        conn = _TcpConn(
            remote_ip=IPv4Address(dst_ip),
            remote_port=dst_port,
            local_port=local_port,
            request=request,
            on_response=on_response,
        )
        self._tcp_conns[(local_port, dst_port)] = conn
        syn = TcpSegment(
            src_port=local_port, dst_port=dst_port, seq=conn.seq, flags=TCP_FLAG_SYN
        )
        self._send_tcp(conn.remote_ip, syn)

    def _send_tcp(self, dst_ip: IPv4Address, segment: TcpSegment) -> None:
        packet = IPv4Packet(
            src=self.ip,
            dst=dst_ip,
            protocol=IPPROTO_TCP,
            payload=segment.to_bytes(self.ip, dst_ip),
        )
        self.send_ip(packet)

    # ----------------------------------------------------------- services

    def serve_udp(self, port: int, handler: UdpHandler) -> None:
        """Register *handler* for datagrams to *port*."""
        self.udp_handlers[port] = handler

    def serve_tcp(self, port: int, server: TcpServer) -> None:
        """Register a request->response server on *port*."""
        self.tcp_servers[port] = server

    # ----------------------------------------------------------- receiving

    def receive(self, port: Port, frame: EthernetFrame) -> None:
        if frame.vlan is not None:
            # Hosts sit on access ports; tagged frames are not for us.
            self.rx_unhandled += 1
            return
        if not (frame.dst == self.mac or frame.dst.is_multicast):
            self.rx_unhandled += 1
            return
        try:
            if frame.ethertype == ETHERTYPE_ARP:
                self._receive_arp(ArpPacket.from_bytes(frame.payload))
            elif frame.ethertype == ETHERTYPE_IPV4:
                self._receive_ip(IPv4Packet.from_bytes(frame.payload))
            else:
                self.rx_unhandled += 1
        except PacketDecodeError:
            # Malformed payloads are dropped, as a real stack would.
            self.rx_unhandled += 1

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
            self.rx_unhandled += 1
            return
        self.rx_ip_packets += 1
        if packet.protocol == IPPROTO_ICMP:
            self._receive_icmp(packet)
        elif packet.protocol == IPPROTO_UDP:
            self._receive_udp(packet)
        elif packet.protocol == IPPROTO_TCP:
            self._receive_tcp(packet)
        else:
            self.rx_unhandled += 1

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

    def _receive_tcp(self, packet: IPv4Packet) -> None:
        segment = TcpSegment.from_bytes(packet.payload, packet.src, packet.dst)
        # Server side: SYN to a listening port.
        if segment.is_syn and segment.dst_port in self.tcp_servers:
            synack = TcpSegment(
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                seq=5000,
                ack=segment.seq + 1,
                flags=TCP_FLAG_SYN | TCP_FLAG_ACK,
            )
            self._send_tcp(packet.src, synack)
            return
        # Server side: data to a listening port -> run the server.
        if segment.dst_port in self.tcp_servers and segment.payload:
            server = self.tcp_servers[segment.dst_port]
            response = server(self, packet.src, segment.src_port, segment.payload)
            if response is not None:
                reply = TcpSegment(
                    src_port=segment.dst_port,
                    dst_port=segment.src_port,
                    seq=5001,
                    ack=segment.seq + len(segment.payload),
                    flags=TCP_FLAG_ACK | TCP_FLAG_PSH | TCP_FLAG_FIN,
                    payload=response,
                )
                self._send_tcp(packet.src, reply)
            return
        # Client side: match an open connection.
        conn = self._tcp_conns.get((segment.dst_port, segment.src_port))
        if conn is None:
            self.rx_unhandled += 1
            return
        if segment.is_rst:
            conn.state = "reset"
            if conn.on_response is not None:
                conn.on_response(b"")
            del self._tcp_conns[(segment.dst_port, segment.src_port)]
            return
        if conn.state == "syn-sent" and segment.flags & TCP_FLAG_SYN:
            conn.state = "established"
            data = TcpSegment(
                src_port=conn.local_port,
                dst_port=conn.remote_port,
                seq=conn.seq + 1,
                ack=segment.seq + 1,
                flags=TCP_FLAG_ACK | TCP_FLAG_PSH,
                payload=conn.request,
            )
            self._send_tcp(conn.remote_ip, data)
            return
        if conn.state == "established" and segment.payload:
            conn.response += segment.payload
            if segment.is_fin:
                conn.state = "closed"
                if conn.on_response is not None:
                    conn.on_response(conn.response)
                del self._tcp_conns[(segment.dst_port, segment.src_port)]

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
