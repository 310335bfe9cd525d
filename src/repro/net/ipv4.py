"""IPv4 packets (RFC 791) with header checksum and option support."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.net.addresses import IPv4Address
from repro.net.checksum import internet_checksum
from repro.net.errors import PacketDecodeError

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17

_FIXED = struct.Struct("!BBHHHBBH4s4s")
#: The same header with the addresses as ints: what :meth:`IPv4Packet.to_bytes` packs.
_FIXED_INTS = struct.Struct("!BBHHHBBHII")


@dataclass
class IPv4Packet:
    """An IPv4 packet.

    The header checksum is computed on serialisation; parsing verifies it
    and raises :class:`PacketDecodeError` on corruption, so the simulator
    catches any switch that mangles bytes it should not touch.
    """

    src: IPv4Address
    dst: IPv4Address
    protocol: int
    payload: bytes = b""
    ttl: int = 64
    dscp: int = 0
    ecn: int = 0
    identification: int = 0
    flags: int = 0b010  # don't-fragment, matching common OS defaults
    fragment_offset: int = 0
    options: bytes = field(default=b"")

    def __post_init__(self) -> None:
        if type(self.src) is not IPv4Address:
            self.src = IPv4Address(self.src)
        if type(self.dst) is not IPv4Address:
            self.dst = IPv4Address(self.dst)
        if not 0 <= self.protocol <= 255:
            raise ValueError(f"protocol out of range: {self.protocol}")
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"TTL out of range: {self.ttl}")
        if len(self.options) % 4:
            raise ValueError("IPv4 options must be padded to 32-bit words")
        if len(self.options) > 40:
            raise ValueError("IPv4 options longer than 40 bytes")
        self.payload = bytes(self.payload)

    @property
    def ihl(self) -> int:
        """Header length in 32-bit words."""
        return 5 + len(self.options) // 4

    @property
    def total_length(self) -> int:
        return self.ihl * 4 + len(self.payload)

    def to_bytes(self) -> bytes:
        # The header is packed over the address ints in this one frame
        # (no ihl/.packed property calls): every host's send serialises.
        options, payload = self.options, self.payload
        ihl = 5 + len(options) // 4
        header = _FIXED_INTS.pack(
            0x40 | ihl,
            (self.dscp << 2) | self.ecn,
            ihl * 4 + len(payload),
            self.identification,
            (self.flags << 13) | self.fragment_offset,
            self.ttl,
            self.protocol,
            0,
            self.src,
            self.dst,
        ) + options
        checksum = internet_checksum(header).to_bytes(2, "big")
        return b"".join((header[:10], checksum, header[12:], payload))

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Packet":
        if len(data) < 20:
            raise PacketDecodeError("ipv4", f"header too short: {len(data)} bytes")
        (
            version_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            checksum,
            src,
            dst,
        ) = _FIXED.unpack_from(data)
        version = version_ihl >> 4
        if version != 4:
            raise PacketDecodeError("ipv4", f"not IPv4 (version {version})")
        ihl = version_ihl & 0x0F
        header_len = ihl * 4
        if ihl < 5 or len(data) < header_len:
            raise PacketDecodeError("ipv4", f"bad IHL {ihl}")
        if total_length < header_len or total_length > len(data):
            raise PacketDecodeError(
                "ipv4", f"bad total length {total_length} (buffer {len(data)})"
            )
        if internet_checksum(data[:header_len]) != 0:
            raise PacketDecodeError("ipv4", "header checksum mismatch")
        return cls(
            src=IPv4Address(src),
            dst=IPv4Address(dst),
            protocol=protocol,
            payload=data[header_len:total_length],
            ttl=ttl,
            dscp=tos >> 2,
            ecn=tos & 0x3,
            identification=identification,
            flags=flags_frag >> 13,
            fragment_offset=flags_frag & 0x1FFF,
            options=data[20:header_len],
        )

    def __str__(self) -> str:
        return (
            f"IP {self.src} > {self.dst} proto {self.protocol} "
            f"ttl {self.ttl} len {self.total_length}"
        )
