"""Wire-format packet model.

Byte-accurate implementations of the protocols HARMLESS touches:
Ethernet II, 802.1Q VLAN tags (including QinQ stacking), ARP, IPv4
(with header checksum), ICMP, UDP and TCP (with pseudo-header
checksums), plus the small DNS codec the parental-control app
inspects.

Every header type serialises to ``bytes`` and parses back; round-trip
identity is enforced by property tests.  The rest of the repository
(simulator, switches, OpenFlow pipeline) operates on these objects, so
the forwarding code paths exercised here are the same ones a hardware
testbed would exercise on real frames.
"""

from repro.net.addresses import BROADCAST_MAC, IPv4Address, MACAddress
from repro.net.arp import (
    ARP_OP_REPLY,
    ARP_OP_REQUEST,
    ArpPacket,
)
from repro.net.checksum import internet_checksum
from repro.net.dns import DnsMessage, DnsQuestion, DnsResourceRecord
from repro.net.errors import PacketDecodeError
from repro.net.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_DOT1AD,
    ETHERTYPE_DOT1Q,
    ETHERTYPE_IPV4,
    Dot1QTag,
    EthernetFrame,
)
from repro.net.ipv4 import (
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4Packet,
)
from repro.net.icmp import (
    ICMP_TYPE_ECHO_REPLY,
    ICMP_TYPE_ECHO_REQUEST,
    IcmpPacket,
)
from repro.net.tcp import TCP_FLAG_ACK, TCP_FLAG_FIN, TCP_FLAG_RST, TCP_FLAG_SYN, TcpSegment
from repro.net.udp import UdpDatagram

__all__ = [
    "BROADCAST_MAC",
    "MACAddress",
    "IPv4Address",
    "internet_checksum",
    "PacketDecodeError",
    "EthernetFrame",
    "Dot1QTag",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_ARP",
    "ETHERTYPE_DOT1Q",
    "ETHERTYPE_DOT1AD",
    "ArpPacket",
    "ARP_OP_REQUEST",
    "ARP_OP_REPLY",
    "IPv4Packet",
    "IPPROTO_ICMP",
    "IPPROTO_TCP",
    "IPPROTO_UDP",
    "IcmpPacket",
    "ICMP_TYPE_ECHO_REQUEST",
    "ICMP_TYPE_ECHO_REPLY",
    "UdpDatagram",
    "TcpSegment",
    "TCP_FLAG_SYN",
    "TCP_FLAG_ACK",
    "TCP_FLAG_FIN",
    "TCP_FLAG_RST",
    "DnsMessage",
    "DnsQuestion",
    "DnsResourceRecord",
]
