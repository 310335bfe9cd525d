"""TCP segments (RFC 793) — header-accurate, with a minimal option model.

The simulator runs no TCP state machine (hosts count a TCP segment
as an unknown IP protocol), but OpenFlow matches ``tcp_src`` and
``tcp_dst``, so segments carry real flags, sequence numbers and
checksums for the packet view to decode.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.net.addresses import IPv4Address
from repro.net.checksum import pseudo_header_checksum
from repro.net.errors import PacketDecodeError
from repro.net.ipv4 import IPPROTO_TCP

TCP_FLAG_FIN = 0x01
TCP_FLAG_SYN = 0x02
TCP_FLAG_RST = 0x04
TCP_FLAG_PSH = 0x08
TCP_FLAG_ACK = 0x10
TCP_FLAG_URG = 0x20

_HEADER = struct.Struct("!HHIIBBHHH")


@dataclass
class TcpSegment:
    """A TCP segment."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    urgent: int = 0
    options: bytes = field(default=b"")
    payload: bytes = b""

    def __post_init__(self) -> None:
        for name, port in (("src_port", self.src_port), ("dst_port", self.dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")
        if not 0 <= self.seq < 1 << 32 or not 0 <= self.ack < 1 << 32:
            raise ValueError("seq/ack out of range")
        if len(self.options) % 4:
            raise ValueError("TCP options must be padded to 32-bit words")
        if len(self.options) > 40:
            raise ValueError("TCP options longer than 40 bytes")
        self.payload = bytes(self.payload)

    @property
    def data_offset(self) -> int:
        """Header length in 32-bit words."""
        return 5 + len(self.options) // 4

    def flag_names(self) -> str:
        names = []
        for bit, name in (
            (TCP_FLAG_SYN, "SYN"),
            (TCP_FLAG_ACK, "ACK"),
            (TCP_FLAG_FIN, "FIN"),
            (TCP_FLAG_RST, "RST"),
            (TCP_FLAG_PSH, "PSH"),
            (TCP_FLAG_URG, "URG"),
        ):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) if names else "none"

    def _header(self, checksum: int) -> bytes:
        offset_reserved = self.data_offset << 4
        return (
            _HEADER.pack(
                self.src_port,
                self.dst_port,
                self.seq,
                self.ack,
                offset_reserved,
                self.flags,
                self.window,
                checksum,
                self.urgent,
            )
            + self.options
        )

    def to_bytes(self, src_ip: IPv4Address, dst_ip: IPv4Address) -> bytes:
        unchecksummed = self._header(checksum=0) + self.payload
        checksum = pseudo_header_checksum(
            src_ip.packed, dst_ip.packed, IPPROTO_TCP, unchecksummed
        )
        return self._header(checksum=checksum) + self.payload

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        src_ip: "IPv4Address | None" = None,
        dst_ip: "IPv4Address | None" = None,
    ) -> "TcpSegment":
        if len(data) < 20:
            raise PacketDecodeError("tcp", f"segment too short: {len(data)} bytes")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_reserved,
            flags,
            window,
            checksum,
            urgent,
        ) = _HEADER.unpack_from(data)
        data_offset = offset_reserved >> 4
        header_len = data_offset * 4
        if data_offset < 5 or len(data) < header_len:
            raise PacketDecodeError("tcp", f"bad data offset {data_offset}")
        if src_ip is not None and dst_ip is not None:
            computed = pseudo_header_checksum(
                src_ip.packed, dst_ip.packed, IPPROTO_TCP, data
            )
            if computed != 0:
                raise PacketDecodeError("tcp", "checksum mismatch")
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            urgent=urgent,
            options=data[20:header_len],
            payload=data[header_len:],
        )

    def __str__(self) -> str:
        return (
            f"TCP {self.src_port} > {self.dst_port} [{self.flag_names()}] "
            f"seq {self.seq} ack {self.ack} len {len(self.payload)}"
        )
