"""OXM matches: masked field matching plus spec wire encoding.

A :class:`Match` is a set of (field, value, mask) constraints.  Fields
use the OpenFlow 1.3 OXM basic class; serialisation follows the spec
TLV layout (type=OXM match, padded to 8 bytes), so flow mods captured
off the controller channel carry real OXM bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.net.addresses import IPv4Address, MACAddress
from repro.openflow.consts import OFPVID_PRESENT
from repro.openflow.packetview import FIELD_INDEX, PacketView

#: field name -> (oxm field code, byte width)
OXM_FIELDS: dict[str, tuple[int, int]] = {
    "in_port": (0, 4),
    "eth_dst": (3, 6),
    "eth_src": (4, 6),
    "eth_type": (5, 2),
    "vlan_vid": (6, 2),
    "vlan_pcp": (7, 1),
    "ip_dscp": (8, 1),
    "ip_proto": (10, 1),
    "ipv4_src": (11, 4),
    "ipv4_dst": (12, 4),
    "tcp_src": (13, 2),
    "tcp_dst": (14, 2),
    "udp_src": (15, 2),
    "udp_dst": (16, 2),
}
_CODE_TO_FIELD = {code: name for name, (code, _) in OXM_FIELDS.items()}
#: flow-key slot -> its field's all-ones mask: a constraint carrying it
#: matches the whole field.
FULL_MASKS: dict[int, int] = {
    FIELD_INDEX[name]: (1 << (8 * width)) - 1 for name, (_, width) in OXM_FIELDS.items()
}
_OXM_CLASS_BASIC = 0x8000


def _normalise(field: str, value: object) -> int:
    """Accept the convenient types (addresses, strings) for each field."""
    if field in ("eth_dst", "eth_src") and isinstance(value, (str, bytes, MACAddress)):
        return int(MACAddress(value))
    if field in ("ipv4_src", "ipv4_dst") and isinstance(
        value, (str, bytes, IPv4Address)
    ):
        return int(IPv4Address(value))
    return int(value)  # type: ignore[arg-type]


@dataclass(frozen=True)
class MatchField:
    """One masked constraint: packet_field & mask == value & mask."""

    field: str
    value: int
    mask: Optional[int] = None

    def __post_init__(self) -> None:
        if self.field not in OXM_FIELDS:
            raise ValueError(f"unknown OXM field {self.field!r}")
        width = OXM_FIELDS[self.field][1]
        limit = 1 << (8 * width)
        if not 0 <= self.value < limit:
            raise ValueError(f"{self.field} value out of range: {self.value:#x}")
        if self.mask is not None and not 0 <= self.mask < limit:
            raise ValueError(f"{self.field} mask out of range: {self.mask:#x}")

    @property
    def effective_mask(self) -> int:
        if self.mask is not None:
            return self.mask
        return FULL_MASKS[FIELD_INDEX[self.field]]

    def covers(self, packet_value: "int | None") -> bool:
        if packet_value is None:
            return False
        mask = self.effective_mask
        return packet_value & mask == self.value & mask


class Match:
    """A conjunction of masked field constraints (empty = match all).

    Construction accepts keyword values or (value, mask) tuples::

        Match(eth_type=0x0800, ipv4_src=("10.0.0.0", 0xFFFFFF00))
        Match.vlan(101)                      # tagged with VID 101
    """

    def __init__(self, **fields: object) -> None:
        self._fields: dict[str, MatchField] = {}
        self._compiled: "tuple[tuple[int, int, int], ...] | None" = None
        self._mask_key: (
            "tuple[tuple[tuple[int, int], ...], tuple[int, ...]] | None"
        ) = None
        for name, spec in fields.items():
            if isinstance(spec, tuple):
                value, mask = spec
                self._fields[name] = MatchField(
                    field=name,
                    value=_normalise(name, value),
                    mask=_normalise(name, mask),
                )
            else:
                self._fields[name] = MatchField(
                    field=name, value=_normalise(name, spec)
                )

    @classmethod
    def vlan(cls, vlan_id: int, **fields: object) -> "Match":
        """Match frames tagged with *vlan_id* (OFPVID_PRESENT handled)."""
        return cls(vlan_vid=OFPVID_PRESENT | vlan_id, **fields)

    @classmethod
    def untagged(cls, **fields: object) -> "Match":
        """Match frames with no VLAN tag."""
        return cls(vlan_vid=0, **fields)

    @property
    def fields(self) -> dict[str, MatchField]:
        return dict(self._fields)

    def get(self, field: str) -> Optional[MatchField]:
        return self._fields.get(field)

    def _compile(self) -> "tuple[tuple[int, int, int], ...]":
        """Pre-compile to (flow-key slot, mask, masked value) triples.

        Turns ``matches`` into plain integer compares over the packet's
        flow key — no per-field name dispatch on the hot path.  Cached;
        Match objects are immutable once visible to a flow table.
        """
        compiled = tuple(
            (
                FIELD_INDEX[name],
                constraint.effective_mask,
                constraint.value & constraint.effective_mask,
            )
            for name, constraint in self._fields.items()
        )
        self._compiled = compiled
        return compiled

    def matches_key(self, key: "tuple[int | None, ...]") -> bool:
        """True if the flow key *key* satisfies every constraint."""
        compiled = self._compiled
        if compiled is None:
            compiled = self._compile()
        for index, mask, value in compiled:
            packet_value = key[index]
            if packet_value is None or packet_value & mask != value:
                return False
        return True

    def matches(self, view: PacketView) -> bool:
        """True if *view* satisfies every constraint."""
        return self.matches_key(view.flow_key())

    def mask_key(self) -> "tuple[tuple[tuple[int, int], ...], tuple[int, ...]]":
        """Canonical (mask-set, masked values) fingerprint of this match.

        The mask-set is the tuple of (flow-key slot, effective mask)
        pairs in slot order; the values are each constraint's value
        pre-masked.  Every Match constraining the same fields with the
        same masks shares a mask-set, so a classifier can group entries
        into one staged subtable per distinct mask-set and probe each
        with ``key[slot] & mask`` pulled straight from a packet's flow
        key.  Defined for every match: a whole-field constraint carries
        its field's all-ones mask, and the match-all's mask-set is ``()``.
        """
        cached = self._mask_key
        if cached is not None:
            return cached
        fields = self._fields
        mask_set = []
        values = []
        for slot, constraint in sorted(
            zip(map(FIELD_INDEX.__getitem__, fields), fields.values())
        ):
            mask = FULL_MASKS[slot] if constraint.mask is None else constraint.mask
            mask_set.append((slot, mask))
            values.append(constraint.value & mask)
        self._mask_key = (tuple(mask_set), tuple(values))
        return self._mask_key

    def is_subset_of(self, other: "Match") -> bool:
        """True if every packet matching self also matches *other*.

        Used for non-strict flow deletion (OFPFC_DELETE takes all flows
        whose match is a superset... strictly, whose match *overlaps*
        per the spec's "matching flows" definition: we use subset which
        is what mainstream switches implement).
        """
        for name, theirs in other._fields.items():
            mine = self._fields.get(name)
            if mine is None:
                return False
            their_mask = theirs.effective_mask
            my_mask = mine.effective_mask
            # Self must constrain at least the bits other constrains...
            if my_mask & their_mask != their_mask:
                return False
            # ...to the same values.
            if (mine.value & their_mask) != (theirs.value & their_mask):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Match):
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._fields.items()))

    def __iter__(self) -> Iterator[MatchField]:
        return iter(self._fields.values())

    def __len__(self) -> int:
        return len(self._fields)

    def describe(self) -> str:
        """Compact human-readable form used in flow-table dumps."""
        if not self._fields:
            return "*"
        parts = []
        for name in sorted(self._fields):
            constraint = self._fields[name]
            if name == "vlan_vid" and constraint.mask is None:
                if constraint.value == 0:
                    parts.append("vlan=untagged")
                else:
                    parts.append(f"vlan={constraint.value & 0xFFF}")
            elif name in ("ipv4_src", "ipv4_dst"):
                addr = IPv4Address(constraint.value)
                if constraint.mask is not None:
                    bits = bin(constraint.mask).count("1")
                    parts.append(f"{name}={addr}/{bits}")
                else:
                    parts.append(f"{name}={addr}")
            elif name in ("eth_dst", "eth_src"):
                parts.append(f"{name}={MACAddress(constraint.value)}")
            elif name == "eth_type":
                parts.append(f"eth_type={constraint.value:#06x}")
            else:
                suffix = (
                    f"/{constraint.mask:#x}" if constraint.mask is not None else ""
                )
                parts.append(f"{name}={constraint.value}{suffix}")
        return ",".join(parts)

    def __repr__(self) -> str:
        return f"Match({self.describe()})"

    # ------------------------------------------------------- wire format

    def to_bytes(self) -> bytes:
        """Spec ofp_match: type=1 (OXM), length, fields, pad to 8."""
        body = bytearray()
        for name in sorted(self._fields, key=lambda n: OXM_FIELDS[n][0]):
            constraint = self._fields[name]
            code, width = OXM_FIELDS[name]
            has_mask = constraint.mask is not None
            payload = constraint.value.to_bytes(width, "big")
            if has_mask:
                payload += constraint.mask.to_bytes(width, "big")  # type: ignore[union-attr]
            body += struct.pack(
                "!HBB", _OXM_CLASS_BASIC, (code << 1) | int(has_mask), len(payload)
            )
            body += payload
        length = 4 + len(body)
        padding = (-length) % 8
        return struct.pack("!HH", 1, length) + bytes(body) + b"\x00" * padding

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> "tuple[Match, int]":
        """Parse an ofp_match; returns (match, next_offset_after_padding)."""
        match_type, length = struct.unpack_from("!HH", data, offset)
        if match_type != 1:
            raise ValueError(f"unsupported ofp_match type {match_type}")
        end = offset + length
        cursor = offset + 4
        result = cls()
        while cursor < end:
            oxm_class, code_hm, payload_len = struct.unpack_from("!HBB", data, cursor)
            cursor += 4
            if oxm_class != _OXM_CLASS_BASIC:
                raise ValueError(f"unsupported OXM class {oxm_class:#06x}")
            code = code_hm >> 1
            has_mask = bool(code_hm & 1)
            name = _CODE_TO_FIELD.get(code)
            if name is None:
                raise ValueError(f"unknown OXM field code {code}")
            width = OXM_FIELDS[name][1]
            expected = width * 2 if has_mask else width
            if payload_len != expected:
                raise ValueError(
                    f"OXM {name} payload length {payload_len} != {expected}"
                )
            value = int.from_bytes(data[cursor : cursor + width], "big")
            mask = None
            if has_mask:
                mask = int.from_bytes(data[cursor + width : cursor + 2 * width], "big")
            result._fields[name] = MatchField(field=name, value=value, mask=mask)
            cursor += payload_len
        return result, offset + length + ((-length) % 8)
