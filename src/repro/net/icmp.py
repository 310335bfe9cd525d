"""ICMP echo (ping) — the latency benchmarks measure with these."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.net.checksum import internet_checksum
from repro.net.errors import PacketDecodeError

ICMP_TYPE_ECHO_REPLY = 0
ICMP_TYPE_ECHO_REQUEST = 8
ICMP_TYPE_DEST_UNREACHABLE = 3
ICMP_TYPE_TIME_EXCEEDED = 11

_HEADER = struct.Struct("!BBHHH")
_new_message = object.__new__


@dataclass
class IcmpPacket:
    """An ICMP message; echo request/reply carry identifier + sequence."""

    icmp_type: int
    code: int = 0
    identifier: int = 0
    sequence: int = 0
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.icmp_type <= 255:
            raise ValueError(f"ICMP type out of range: {self.icmp_type}")
        if not 0 <= self.code <= 255:
            raise ValueError(f"ICMP code out of range: {self.code}")
        self.payload = bytes(self.payload)

    @classmethod
    def echo_request(
        cls, identifier: int, sequence: int, payload: bytes = b""
    ) -> "IcmpPacket":
        # Type and code are constants in range: built as make_reply
        # builds, without the dataclass's __init__ (a host's every ping).
        request = _new_message(cls)
        request.icmp_type = ICMP_TYPE_ECHO_REQUEST
        request.code = 0
        request.identifier = identifier
        request.sequence = sequence
        request.payload = bytes(payload)
        return request

    def make_reply(self) -> "IcmpPacket":
        if self.icmp_type != ICMP_TYPE_ECHO_REQUEST:
            raise ValueError("can only reply to an echo request")
        # Built from this message's already-checked fields, like a decode.
        reply = _new_message(IcmpPacket)
        reply.icmp_type = ICMP_TYPE_ECHO_REPLY
        reply.code = 0
        reply.identifier = self.identifier
        reply.sequence = self.sequence
        reply.payload = self.payload
        return reply

    def to_bytes(self) -> bytes:
        unchecksummed = _HEADER.pack(
            self.icmp_type, self.code, 0, self.identifier, self.sequence
        )
        checksum = internet_checksum(unchecksummed + self.payload)
        return (
            _HEADER.pack(self.icmp_type, self.code, checksum, self.identifier, self.sequence)
            + self.payload
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "IcmpPacket":
        if len(data) < 8:
            raise PacketDecodeError("icmp", f"message too short: {len(data)} bytes")
        icmp_type, code, checksum, identifier, sequence = _HEADER.unpack_from(data)
        if internet_checksum(data) != 0:
            raise PacketDecodeError("icmp", "checksum mismatch")
        # Type and code are single bytes, so in range: the message skips
        # the dataclass's __init__ and its re-validation (every ping a
        # host answers or collects is decoded here).
        message = _new_message(cls)
        message.icmp_type = icmp_type
        message.code = code
        message.identifier = identifier
        message.sequence = sequence
        message.payload = bytes(data[8:])
        return message

    def __str__(self) -> str:
        names = {
            ICMP_TYPE_ECHO_REPLY: "echo-reply",
            ICMP_TYPE_ECHO_REQUEST: "echo-request",
            ICMP_TYPE_DEST_UNREACHABLE: "dest-unreachable",
            ICMP_TYPE_TIME_EXCEEDED: "time-exceeded",
        }
        name = names.get(self.icmp_type, f"type-{self.icmp_type}")
        return f"ICMP {name} id {self.identifier} seq {self.sequence}"
