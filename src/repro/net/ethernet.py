"""Ethernet II frames and 802.1Q VLAN tags.

The 802.1Q behaviour here is the foundation of HARMLESS: the legacy
switch pushes a per-access-port tag, the translator (SS_1) pops it, and
the reverse path pushes the destination port's tag.  Tags are modelled
as an explicit stack so QinQ (802.1ad S-tag over C-tag) also works,
which the scalability benchmarks use when several legacy switches share
one trunk.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from repro.net.addresses import MACAddress
from repro.net.errors import PacketDecodeError

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_DOT1Q = 0x8100
ETHERTYPE_DOT1AD = 0x88A8
ETHERTYPE_LLDP = 0x88CC

#: Minimum Ethernet payload (frames shorter than this get padded on the wire).
MIN_PAYLOAD = 46
#: Conventional Ethernet MTU used by default links.
DEFAULT_MTU = 1500

_TAG_STRUCT = struct.Struct("!HH")
_new_frame = object.__new__


@dataclass(frozen=True)
class Dot1QTag:
    """One 802.1Q (or 802.1ad) tag: TPID implied by stack position.

    Attributes:
        vlan_id: 12-bit VLAN identifier (0 = priority tag, 4095 reserved).
        pcp: 3-bit priority code point.
        dei: drop-eligible indicator bit.
    """

    vlan_id: int
    pcp: int = 0
    dei: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.vlan_id <= 4095:
            raise ValueError(f"VLAN id out of range: {self.vlan_id}")
        if not 0 <= self.pcp <= 7:
            raise ValueError(f"PCP out of range: {self.pcp}")

    @property
    def tci(self) -> int:
        """The 16-bit tag control information field."""
        return (self.pcp << 13) | (int(self.dei) << 12) | self.vlan_id

    @classmethod
    def from_tci(cls, tci: int) -> "Dot1QTag":
        return _interned_tag(tci & 0x0FFF, tci >> 13 & 0x7, bool(tci >> 12 & 0x1))

    def __str__(self) -> str:
        return f"vlan {self.vlan_id} pcp {self.pcp}"


#: (vlan_id, pcp, dei) -> the one tag the frame derivations and the
#: decoder hand out for that value.  Derived state, at most 4096 * 8 * 2
#: entries: only values :class:`Dot1QTag` accepted are ever stored.
_TAGS: "dict[tuple[int, int, bool], Dot1QTag]" = {}


def _interned_tag(vlan_id: int, pcp: int = 0, dei: bool = False) -> Dot1QTag:
    """The shared tag of that value: validated by the dataclass the
    first time, a dict hit afterwards; a value it rejects raises on
    every call and is never stored.  Tags compare by value, never by
    identity — a directly built ``Dot1QTag`` is not in the table."""
    key = (vlan_id, pcp, dei)
    tag = _TAGS.get(key)
    if tag is None:
        tag = _TAGS[key] = Dot1QTag(vlan_id, pcp, dei)
    return tag


class EthernetFrame:
    """An Ethernet II frame with an explicit VLAN tag stack.

    ``tags[0]`` is the outermost tag.  ``ethertype`` is the *inner*
    ethertype (the payload's protocol), independent of tagging, which is
    how OpenFlow's OXM model exposes it too.

    A frame is a value: everything is validated here, at construction
    (and so at :meth:`from_bytes` and the :mod:`repro.net.build`
    helpers), ``tags`` is a tuple, and :meth:`push_vlan`,
    :meth:`pop_vlan`, :meth:`set_vlan` and :meth:`copy` return a new
    frame that shares the already-validated addresses, payload and tags
    with its source instead of validating them again.  Datapath code
    derives frames and never assigns their fields.

    A frame carries its :attr:`wire_length`: measured once here, moved
    by four by a push or a pop, copied by the other derivations.  The
    two fields that are assigned after construction — ``payload`` (the
    stamping idiom: copy a template, assign a payload) and ``tags`` —
    are properties whose setters apply the constructor's rule and keep
    the length true.
    """

    __slots__ = ("dst", "src", "ethertype", "_payload", "_tags", "_wire_length")

    def __init__(
        self,
        dst: "MACAddress | int | str | bytes",
        src: "MACAddress | int | str | bytes",
        ethertype: int,
        payload: bytes = b"",
        tags: "tuple[Dot1QTag, ...] | list[Dot1QTag]" = (),
    ) -> None:
        self.dst = dst if type(dst) is MACAddress else MACAddress(dst)
        self.src = src if type(src) is MACAddress else MACAddress(src)
        if not 0 <= ethertype <= 0xFFFF:
            raise ValueError(f"ethertype out of range: {ethertype:#x}")
        self.ethertype = ethertype
        self._tags = ()
        self.payload = payload
        if tags:
            self.tags = tags

    payload = property(attrgetter("_payload"), doc="The frame's payload bytes.")

    @payload.setter
    def payload(self, payload: "bytes | bytearray") -> None:
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeError("payload must be bytes")
        self._payload = payload = bytes(payload)
        self._wire_length = 14 + 4 * len(self._tags) + max(len(payload), MIN_PAYLOAD)

    tags = property(attrgetter("_tags"), doc="The VLAN tag stack, outermost first.")

    @tags.setter
    def tags(self, tags: "tuple[Dot1QTag, ...] | list[Dot1QTag]") -> None:
        tags = tuple(tags)
        for tag in tags:
            if not isinstance(tag, Dot1QTag):
                raise TypeError("tags must be Dot1QTag instances")
        self._wire_length += 4 * (len(tags) - len(self._tags))
        self._tags = tags

    #: Length on the wire in bytes (without preamble/FCS, with padding).
    #: A property object — the benchmark's tracer wraps its ``fget`` —
    #: whose getter is a slot read.
    wire_length = property(attrgetter("_wire_length"))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not EthernetFrame:
            return NotImplemented
        return (
            self.dst == other.dst
            and self.src == other.src
            and self.ethertype == other.ethertype
            and self._payload == other._payload
            and self._tags == other._tags
        )

    def __repr__(self) -> str:
        return (
            f"EthernetFrame(dst={self.dst!r}, src={self.src!r}, "
            f"ethertype={self.ethertype!r}, payload={self.payload!r}, "
            f"tags={self.tags!r})"
        )

    # -- VLAN tag manipulation (semantics match OpenFlow push/pop actions) --

    @property
    def vlan(self) -> Optional[Dot1QTag]:
        """The outermost VLAN tag, or None if untagged."""
        return self._tags[0] if self._tags else None

    @property
    def vlan_id(self) -> Optional[int]:
        """The outermost VLAN id, or None if untagged."""
        return self._tags[0].vlan_id if self._tags else None

    # Each derivation builds its frame in its own body — one Python
    # frame per tag edit, the hop's commonest call — and takes its tag
    # from the intern table, calling out only on a miss.  Every
    # reference it copies was validated when this frame was built.

    def push_vlan(self, vlan_id: int, pcp: int = 0) -> "EthernetFrame":
        """Return a copy with a new outermost tag (OpenFlow PUSH_VLAN + SET_FIELD)."""
        tag = _TAGS.get((vlan_id, pcp, False))
        if tag is None:
            tag = _interned_tag(vlan_id, pcp)
        frame = _new_frame(EthernetFrame)
        frame.dst = self.dst
        frame.src = self.src
        frame.ethertype = self.ethertype
        frame._payload = self._payload
        frame._tags = (tag, *self._tags)
        frame._wire_length = self._wire_length + 4
        return frame

    def pop_vlan(self) -> "EthernetFrame":
        """Return a copy with the outermost tag removed (OpenFlow POP_VLAN)."""
        tags = self._tags
        if not tags:
            raise ValueError("cannot pop VLAN tag from untagged frame")
        frame = _new_frame(EthernetFrame)
        frame.dst = self.dst
        frame.src = self.src
        frame.ethertype = self.ethertype
        frame._payload = self._payload
        frame._tags = tags[1:]
        frame._wire_length = self._wire_length - 4
        return frame

    def set_vlan(self, vlan_id: int) -> "EthernetFrame":
        """Return a copy with the outermost tag's VLAN id rewritten."""
        tags = self._tags
        if not tags:
            raise ValueError("cannot set VLAN id on untagged frame")
        head = tags[0]
        key = (vlan_id, head.pcp, head.dei)
        tag = _TAGS.get(key)
        if tag is None:
            tag = _interned_tag(*key)
        frame = _new_frame(EthernetFrame)
        frame.dst = self.dst
        frame.src = self.src
        frame.ethertype = self.ethertype
        frame._payload = self._payload
        frame._tags = (tag, *tags[1:])
        frame._wire_length = self._wire_length
        return frame

    def copy(self) -> "EthernetFrame":
        frame = _new_frame(EthernetFrame)
        frame.dst = self.dst
        frame.src = self.src
        frame.ethertype = self.ethertype
        frame._payload = self._payload
        frame._tags = self._tags
        frame._wire_length = self._wire_length
        return frame

    def replaced(self, **fields) -> "EthernetFrame":
        """Return a copy with *fields* replaced, validated by the
        constructor (header rewrites and stamping; not the VLAN hot path)."""
        names = ("dst", "src", "ethertype", "payload", "tags")
        current = {name: getattr(self, name) for name in names}
        current.update(fields)
        return EthernetFrame(**current)

    # -- wire format --

    def to_bytes(self) -> bytes:
        """Serialise, using 0x88a8 for the outer TPID of doubly-tagged frames."""
        buffer = bytearray()
        buffer += self.dst.packed
        buffer += self.src.packed
        for index, tag in enumerate(self.tags):
            outermost_of_stack = index == 0 and len(self.tags) > 1
            tpid = ETHERTYPE_DOT1AD if outermost_of_stack else ETHERTYPE_DOT1Q
            buffer += _TAG_STRUCT.pack(tpid, tag.tci)
        buffer += self.ethertype.to_bytes(2, "big")
        buffer += self.payload
        return bytes(buffer)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthernetFrame":
        if len(data) < 14:
            raise PacketDecodeError("ethernet", f"frame too short: {len(data)} bytes")
        dst = MACAddress(data[0:6])
        src = MACAddress(data[6:12])
        offset = 12
        tags: list[Dot1QTag] = []
        while True:
            if len(data) < offset + 2:
                raise PacketDecodeError("ethernet", "truncated ethertype")
            ethertype = int.from_bytes(data[offset : offset + 2], "big")
            if ethertype in (ETHERTYPE_DOT1Q, ETHERTYPE_DOT1AD):
                if len(data) < offset + 4:
                    raise PacketDecodeError("ethernet", "truncated 802.1Q tag")
                tci = int.from_bytes(data[offset + 2 : offset + 4], "big")
                tags.append(Dot1QTag.from_tci(tci))
                offset += 4
            else:
                offset += 2
                break
        return cls(
            dst=dst, src=src, ethertype=ethertype, payload=data[offset:], tags=tags
        )

    def __str__(self) -> str:
        tag_text = "".join(f" [{tag}]" for tag in self.tags)
        return (
            f"{self.src} > {self.dst}{tag_text} type {self.ethertype:#06x} "
            f"len {len(self.payload)}"
        )
