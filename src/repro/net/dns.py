"""Minimal DNS (RFC 1035) — queries and A-record answers.

The parental-control use case blocks web sites per user; blocking at
DNS-lookup time is one of its enforcement points, so the simulator's
hosts really resolve names through these messages.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.net.addresses import IPv4Address
from repro.net.errors import PacketDecodeError

DNS_TYPE_A = 1
DNS_CLASS_IN = 1
DNS_RCODE_OK = 0
DNS_RCODE_NXDOMAIN = 3
DNS_RCODE_REFUSED = 5

_HEADER = struct.Struct("!HHHHHH")


def encode_name(name: str) -> bytes:
    """Encode a dotted name into DNS label format."""
    if name.endswith("."):
        name = name[:-1]
    encoded = bytearray()
    if name:
        for label in name.split("."):
            raw = label.encode("ascii")
            if not 1 <= len(raw) <= 63:
                raise ValueError(f"bad DNS label: {label!r}")
            encoded.append(len(raw))
            encoded += raw
    encoded.append(0)
    return bytes(encoded)


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a label-format name (no compression) starting at *offset*.

    Returns (name, next_offset).
    """
    labels = []
    while True:
        if offset >= len(data):
            raise PacketDecodeError("dns", "truncated name")
        length = data[offset]
        if length & 0xC0:
            raise PacketDecodeError("dns", "compressed names not supported")
        offset += 1
        if length == 0:
            break
        if offset + length > len(data):
            raise PacketDecodeError("dns", "truncated label")
        label = data[offset : offset + length]
        # A label :func:`encode_name` could not give back: not ASCII, or
        # holding the dot that separates labels.
        if not label.isascii() or b"." in label:
            raise PacketDecodeError("dns", f"unencodable label {label!r}")
        labels.append(label.decode("ascii"))
        offset += length
    return ".".join(labels), offset


@dataclass
class DnsQuestion:
    """A single DNS question (name, qtype, qclass)."""

    name: str
    qtype: int = DNS_TYPE_A
    qclass: int = DNS_CLASS_IN

    def to_bytes(self) -> bytes:
        return encode_name(self.name) + struct.pack("!HH", self.qtype, self.qclass)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int) -> tuple["DnsQuestion", int]:
        name, offset = decode_name(data, offset)
        if offset + 4 > len(data):
            raise PacketDecodeError("dns", "truncated question")
        qtype, qclass = struct.unpack_from("!HH", data, offset)
        return cls(name=name, qtype=qtype, qclass=qclass), offset + 4


@dataclass
class DnsResourceRecord:
    """A resource record; only A records carry a typed ``address``."""

    name: str
    rtype: int = DNS_TYPE_A
    rclass: int = DNS_CLASS_IN
    ttl: int = 300
    rdata: bytes = b""

    @classmethod
    def a_record(cls, name: str, address: IPv4Address, ttl: int = 300) -> "DnsResourceRecord":
        return cls(name=name, rtype=DNS_TYPE_A, ttl=ttl, rdata=IPv4Address(address).packed)

    @property
    def address(self) -> IPv4Address:
        if self.rtype != DNS_TYPE_A or len(self.rdata) != 4:
            raise ValueError("not an A record")
        return IPv4Address(self.rdata)

    def to_bytes(self) -> bytes:
        return (
            encode_name(self.name)
            + struct.pack("!HHIH", self.rtype, self.rclass, self.ttl, len(self.rdata))
            + self.rdata
        )

    @classmethod
    def from_bytes(cls, data: bytes, offset: int) -> tuple["DnsResourceRecord", int]:
        name, offset = decode_name(data, offset)
        if offset + 10 > len(data):
            raise PacketDecodeError("dns", "truncated resource record")
        rtype, rclass, ttl, rdlength = struct.unpack_from("!HHIH", data, offset)
        offset += 10
        if offset + rdlength > len(data):
            raise PacketDecodeError("dns", "truncated rdata")
        rdata = data[offset : offset + rdlength]
        return cls(name=name, rtype=rtype, rclass=rclass, ttl=ttl, rdata=rdata), offset + rdlength


@dataclass
class DnsMessage:
    """A DNS message: header + questions + answers."""

    transaction_id: int
    is_response: bool = False
    rcode: int = DNS_RCODE_OK
    recursion_desired: bool = True
    questions: list[DnsQuestion] = field(default_factory=list)
    answers: list[DnsResourceRecord] = field(default_factory=list)

    @classmethod
    def query(cls, transaction_id: int, name: str) -> "DnsMessage":
        return cls(
            transaction_id=transaction_id, questions=[DnsQuestion(name=name)]
        )

    def make_response(
        self, answers: "list[DnsResourceRecord] | None" = None, rcode: int = DNS_RCODE_OK
    ) -> "DnsMessage":
        return DnsMessage(
            transaction_id=self.transaction_id,
            is_response=True,
            rcode=rcode,
            recursion_desired=self.recursion_desired,
            questions=list(self.questions),
            answers=list(answers or []),
        )

    def to_bytes(self) -> bytes:
        flags = 0
        if self.is_response:
            flags |= 0x8000
        if self.recursion_desired:
            flags |= 0x0100
        flags |= self.rcode & 0x000F
        header = _HEADER.pack(
            self.transaction_id, flags, len(self.questions), len(self.answers), 0, 0
        )
        body = b"".join(q.to_bytes() for q in self.questions)
        body += b"".join(rr.to_bytes() for rr in self.answers)
        return header + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "DnsMessage":
        if len(data) < 12:
            raise PacketDecodeError("dns", f"message too short: {len(data)} bytes")
        transaction_id, flags, qdcount, ancount, _nscount, _arcount = _HEADER.unpack_from(
            data
        )
        offset = 12
        questions = []
        for _ in range(qdcount):
            question, offset = DnsQuestion.from_bytes(data, offset)
            questions.append(question)
        answers = []
        for _ in range(ancount):
            answer, offset = DnsResourceRecord.from_bytes(data, offset)
            answers.append(answer)
        return cls(
            transaction_id=transaction_id,
            is_response=bool(flags & 0x8000),
            rcode=flags & 0x000F,
            recursion_desired=bool(flags & 0x0100),
            questions=questions,
            answers=answers,
        )

    def __str__(self) -> str:
        kind = "response" if self.is_response else "query"
        names = ",".join(q.name for q in self.questions)
        return f"DNS {kind} id {self.transaction_id} [{names}] rcode {self.rcode}"
