"""Convenience constructors for full protocol stacks.

Tests, traffic generators and examples all need "an IPv4/UDP frame from
A to B" in one call; these helpers keep that noise out of the call
sites while still producing byte-accurate frames.
"""

from __future__ import annotations

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.arp import ArpPacket
from repro.net.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    EthernetFrame,
)
from repro.net.ipv4 import IPPROTO_TCP, IPPROTO_UDP, IPv4Packet
from repro.net.tcp import TcpSegment
from repro.net.udp import UdpDatagram


def ethernet_ipv4(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    ip_packet: IPv4Packet,
    vlan_id: "int | None" = None,
) -> EthernetFrame:
    """Wrap an IPv4 packet in an Ethernet frame, optionally 802.1Q tagged."""
    frame = EthernetFrame(
        dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4, payload=ip_packet.to_bytes()
    )
    if vlan_id is not None:
        frame = frame.push_vlan(vlan_id)
    return frame


def udp_frame(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
    ttl: int = 64,
    vlan_id: "int | None" = None,
) -> EthernetFrame:
    """Build an Ethernet/IPv4/UDP frame."""
    datagram = UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
    packet = IPv4Packet(
        src=src_ip,
        dst=dst_ip,
        protocol=IPPROTO_UDP,
        payload=datagram.to_bytes(src_ip, dst_ip),
        ttl=ttl,
    )
    return ethernet_ipv4(src_mac, dst_mac, packet, vlan_id=vlan_id)


def tcp_frame(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    segment: TcpSegment,
    ttl: int = 64,
    vlan_id: "int | None" = None,
) -> EthernetFrame:
    """Build an Ethernet/IPv4/TCP frame from a prepared segment."""
    packet = IPv4Packet(
        src=src_ip,
        dst=dst_ip,
        protocol=IPPROTO_TCP,
        payload=segment.to_bytes(src_ip, dst_ip),
        ttl=ttl,
    )
    return ethernet_ipv4(src_mac, dst_mac, packet, vlan_id=vlan_id)


def arp_frame(arp: ArpPacket, src_mac: "MACAddress | None" = None) -> EthernetFrame:
    """Wrap an ARP packet; requests go to broadcast, replies unicast."""
    from repro.net.addresses import BROADCAST_MAC

    dst = BROADCAST_MAC if int(arp.target_mac) == 0 else arp.target_mac
    return EthernetFrame(
        dst=dst,
        src=src_mac if src_mac is not None else arp.sender_mac,
        ethertype=ETHERTYPE_ARP,
        payload=arp.to_bytes(),
    )


def parse_ipv4(frame: EthernetFrame) -> "IPv4Packet | None":
    """Parse the IPv4 payload of *frame*, or None if not IPv4."""
    if frame.ethertype != ETHERTYPE_IPV4:
        return None
    return IPv4Packet.from_bytes(frame.payload)


def parse_udp(frame: EthernetFrame) -> "tuple[IPv4Packet, UdpDatagram] | None":
    """Parse Ethernet/IPv4/UDP, or None if the stack doesn't match."""
    packet = parse_ipv4(frame)
    if packet is None or packet.protocol != IPPROTO_UDP:
        return None
    return packet, UdpDatagram.from_bytes(packet.payload, packet.src, packet.dst)


def parse_arp(frame: EthernetFrame) -> "ArpPacket | None":
    """Parse the ARP payload of *frame*, or None if not ARP."""
    if frame.ethertype != ETHERTYPE_ARP:
        return None
    return ArpPacket.from_bytes(frame.payload)
