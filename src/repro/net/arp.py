"""ARP for IPv4 over Ethernet (RFC 826)."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.errors import PacketDecodeError

ARP_OP_REQUEST = 1
ARP_OP_REPLY = 2

_HEADER = struct.Struct("!HHBBH")
_HTYPE_ETHERNET = 1
_PTYPE_IPV4 = 0x0800
_new_packet = object.__new__


@dataclass
class ArpPacket:
    """An Ethernet/IPv4 ARP packet."""

    opcode: int
    sender_mac: MACAddress
    sender_ip: IPv4Address
    target_mac: MACAddress
    target_ip: IPv4Address

    def __post_init__(self) -> None:
        if self.opcode not in (ARP_OP_REQUEST, ARP_OP_REPLY):
            raise ValueError(f"unsupported ARP opcode: {self.opcode}")
        self.sender_mac = MACAddress(self.sender_mac)
        self.target_mac = MACAddress(self.target_mac)
        self.sender_ip = IPv4Address(self.sender_ip)
        self.target_ip = IPv4Address(self.target_ip)

    @classmethod
    def request(
        cls, sender_mac: MACAddress, sender_ip: IPv4Address, target_ip: IPv4Address
    ) -> "ArpPacket":
        """Build a who-has request for *target_ip*."""
        return cls(
            opcode=ARP_OP_REQUEST,
            sender_mac=sender_mac,
            sender_ip=sender_ip,
            target_mac=MACAddress(0),
            target_ip=target_ip,
        )

    def make_reply(self, responder_mac: MACAddress) -> "ArpPacket":
        """Build the is-at reply answering this request."""
        if self.opcode != ARP_OP_REQUEST:
            raise ValueError("can only reply to an ARP request")
        return ArpPacket(
            opcode=ARP_OP_REPLY,
            sender_mac=responder_mac,
            sender_ip=self.target_ip,
            target_mac=self.sender_mac,
            target_ip=self.sender_ip,
        )

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(_HTYPE_ETHERNET, _PTYPE_IPV4, 6, 4, self.opcode)
        return (
            header
            + self.sender_mac.packed
            + self.sender_ip.packed
            + self.target_mac.packed
            + self.target_ip.packed
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArpPacket":
        if len(data) < 28:
            raise PacketDecodeError("arp", f"packet too short: {len(data)} bytes")
        htype, ptype, hlen, plen, opcode = _HEADER.unpack_from(data)
        if htype != _HTYPE_ETHERNET or ptype != _PTYPE_IPV4:
            raise PacketDecodeError(
                "arp", f"unsupported htype/ptype: {htype}/{ptype:#06x}"
            )
        if hlen != 6 or plen != 4:
            raise PacketDecodeError("arp", f"unsupported address sizes: {hlen}/{plen}")
        if opcode != ARP_OP_REQUEST and opcode != ARP_OP_REPLY:
            raise PacketDecodeError("arp", f"unsupported opcode: {opcode}")
        # Every field is checked or built from its bytes here, so the
        # packet skips the dataclass's __init__ and its re-validation: a
        # host decodes every ARP broadcast of its VLAN.
        packet = _new_packet(cls)
        packet.opcode = opcode
        packet.sender_mac = MACAddress(data[8:14])
        packet.sender_ip = IPv4Address(data[14:18])
        packet.target_mac = MACAddress(data[18:24])
        packet.target_ip = IPv4Address(data[24:28])
        return packet

    def __str__(self) -> str:
        if self.opcode == ARP_OP_REQUEST:
            return f"ARP who-has {self.target_ip} tell {self.sender_ip}"
        return f"ARP {self.sender_ip} is-at {self.sender_mac}"
