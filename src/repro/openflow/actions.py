"""OpenFlow actions with spec wire encoding and execution semantics.

``apply(frame)`` returns the transformed frame (frames are treated as
immutable values); output/group are terminal decisions resolved by the
switch, not by the action itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.ethernet import ETHERTYPE_DOT1AD, ETHERTYPE_DOT1Q, EthernetFrame
from repro.openflow.consts import OFPCML_NO_BUFFER, OFPVID_PRESENT
from repro.openflow.match import OXM_FIELDS, _OXM_CLASS_BASIC, _CODE_TO_FIELD

OFPAT_OUTPUT = 0
OFPAT_PUSH_VLAN = 17
OFPAT_POP_VLAN = 18
OFPAT_GROUP = 22
OFPAT_SET_FIELD = 25


class Action:
    """Base class; subclasses define wire format and apply()."""

    type_code: int = -1

    def apply(self, frame: EthernetFrame) -> EthernetFrame:
        """Transform *frame*; default is identity (output/group)."""
        return frame

    def to_bytes(self) -> bytes:
        raise NotImplementedError

    @staticmethod
    def parse_list(data: bytes, offset: int, end: int) -> "list[Action]":
        actions: list[Action] = []
        cursor = offset
        while cursor < end:
            action_type, length = struct.unpack_from("!HH", data, cursor)
            body = data[cursor : cursor + length]
            if action_type == OFPAT_OUTPUT:
                actions.append(OutputAction.from_bytes(body))
            elif action_type == OFPAT_PUSH_VLAN:
                actions.append(PushVlanAction.from_bytes(body))
            elif action_type == OFPAT_POP_VLAN:
                actions.append(PopVlanAction())
            elif action_type == OFPAT_GROUP:
                actions.append(GroupAction.from_bytes(body))
            elif action_type == OFPAT_SET_FIELD:
                actions.append(SetFieldAction.from_bytes(body))
            else:
                raise ValueError(f"unsupported action type {action_type}")
            cursor += length
        return actions

    @staticmethod
    def serialize_list(actions: "list[Action]") -> bytes:
        return b"".join(action.to_bytes() for action in actions)


@dataclass(frozen=True)
class OutputAction(Action):
    """Forward to a port (physical or reserved like OFPP_CONTROLLER)."""

    port: int
    max_len: int = OFPCML_NO_BUFFER

    type_code = OFPAT_OUTPUT

    def to_bytes(self) -> bytes:
        return struct.pack("!HHIH6x", OFPAT_OUTPUT, 16, self.port, self.max_len)

    @classmethod
    def from_bytes(cls, body: bytes) -> "OutputAction":
        _, _, port, max_len = struct.unpack_from("!HHIH", body)
        return cls(port=port, max_len=max_len)

    def __str__(self) -> str:
        from repro.openflow.consts import OFPP_CONTROLLER, OFPP_FLOOD, OFPP_IN_PORT

        names = {
            OFPP_CONTROLLER: "CONTROLLER",
            OFPP_FLOOD: "FLOOD",
            OFPP_IN_PORT: "IN_PORT",
        }
        return f"output:{names.get(self.port, self.port)}"


@dataclass(frozen=True)
class GroupAction(Action):
    """Hand the packet to a group (select/all/indirect)."""

    group_id: int

    type_code = OFPAT_GROUP

    def to_bytes(self) -> bytes:
        return struct.pack("!HHI", OFPAT_GROUP, 8, self.group_id)

    @classmethod
    def from_bytes(cls, body: bytes) -> "GroupAction":
        _, _, group_id = struct.unpack_from("!HHI", body)
        return cls(group_id=group_id)

    def __str__(self) -> str:
        return f"group:{self.group_id}"


@dataclass(frozen=True)
class PushVlanAction(Action):
    """Push a fresh VLAN tag (VID 0 until a set-field fills it in)."""

    ethertype: int = ETHERTYPE_DOT1Q

    type_code = OFPAT_PUSH_VLAN

    def __post_init__(self) -> None:
        if self.ethertype not in (ETHERTYPE_DOT1Q, ETHERTYPE_DOT1AD):
            raise ValueError(f"bad push-vlan ethertype {self.ethertype:#06x}")

    def apply(self, frame: EthernetFrame) -> EthernetFrame:
        return frame.push_vlan(0)

    def to_bytes(self) -> bytes:
        return struct.pack("!HHH2x", OFPAT_PUSH_VLAN, 8, self.ethertype)

    @classmethod
    def from_bytes(cls, body: bytes) -> "PushVlanAction":
        _, _, ethertype = struct.unpack_from("!HHH", body)
        return cls(ethertype=ethertype)

    def __str__(self) -> str:
        return "push_vlan"


@dataclass(frozen=True)
class PopVlanAction(Action):
    """Remove the outermost VLAN tag."""

    type_code = OFPAT_POP_VLAN

    def apply(self, frame: EthernetFrame) -> EthernetFrame:
        if not frame.tags:
            # Per spec behaviour on bad pop: leave the packet unchanged
            # (many implementations drop; unchanged keeps pipelines sane).
            return frame
        return frame.pop_vlan()

    def to_bytes(self) -> bytes:
        return struct.pack("!HH4x", OFPAT_POP_VLAN, 8)

    def __str__(self) -> str:
        return "pop_vlan"


@dataclass(frozen=True)
class SetFieldAction(Action):
    """Rewrite a header field (vlan_vid, eth_src/dst, ipv4_src/dst...)."""

    field: str
    value: int

    type_code = OFPAT_SET_FIELD

    def __post_init__(self) -> None:
        if self.field not in OXM_FIELDS:
            raise ValueError(f"unknown set-field target {self.field!r}")

    @classmethod
    def vlan_vid(cls, vlan_id: int) -> "SetFieldAction":
        """Set the VLAN id of the outermost tag (PRESENT bit handled)."""
        return cls(field="vlan_vid", value=OFPVID_PRESENT | vlan_id)

    def apply(self, frame: EthernetFrame) -> EthernetFrame:
        if self.field == "vlan_vid":
            if frame.vlan is None:
                return frame  # set-field on absent tag is a no-op
            return frame.set_vlan(self.value & 0xFFF)
        if self.field == "eth_dst":
            return frame.replaced(dst=MACAddress(self.value))
        if self.field == "eth_src":
            return frame.replaced(src=MACAddress(self.value))
        if self.field in ("ipv4_src", "ipv4_dst"):
            return self._rewrite_ipv4(frame)
        raise NotImplementedError(f"set-field {self.field} not executable")

    def _rewrite_ipv4(self, frame: EthernetFrame) -> EthernetFrame:
        from repro.net.build import parse_ipv4
        from dataclasses import replace

        packet = parse_ipv4(frame)
        if packet is None:
            return frame
        if self.field == "ipv4_src":
            packet = replace(packet, src=IPv4Address(self.value))
        else:
            packet = replace(packet, dst=IPv4Address(self.value))
        packet = self._fix_l4_checksum(packet)
        return frame.replaced(payload=packet.to_bytes())

    @staticmethod
    def _fix_l4_checksum(packet):
        """Recompute the TCP/UDP checksum after address NAT.

        The pseudo header covers the IP addresses, so hardware (and
        every serious software switch) patches the transport checksum
        when a set-field rewrites them.
        """
        from dataclasses import replace

        from repro.net.errors import PacketDecodeError
        from repro.net.ipv4 import IPPROTO_TCP, IPPROTO_UDP
        from repro.net.tcp import TcpSegment
        from repro.net.udp import UdpDatagram

        try:
            if packet.protocol == IPPROTO_UDP:
                datagram = UdpDatagram.from_bytes(packet.payload)
                return replace(
                    packet, payload=datagram.to_bytes(packet.src, packet.dst)
                )
            if packet.protocol == IPPROTO_TCP:
                segment = TcpSegment.from_bytes(packet.payload)
                return replace(
                    packet, payload=segment.to_bytes(packet.src, packet.dst)
                )
        except PacketDecodeError:
            pass  # malformed L4: leave bytes alone, the endpoint drops it
        return packet

    def to_bytes(self) -> bytes:
        code, width = OXM_FIELDS[self.field]
        oxm = struct.pack("!HBB", _OXM_CLASS_BASIC, code << 1, width)
        oxm += self.value.to_bytes(width, "big")
        length = 4 + len(oxm)
        padded = length + ((-length) % 8)
        return (
            struct.pack("!HH", OFPAT_SET_FIELD, padded)
            + oxm
            + b"\x00" * ((-length) % 8)
        )

    @classmethod
    def from_bytes(cls, body: bytes) -> "SetFieldAction":
        oxm_class, code_hm, width = struct.unpack_from("!HBB", body, 4)
        if oxm_class != _OXM_CLASS_BASIC:
            raise ValueError(f"unsupported OXM class {oxm_class:#06x}")
        field = _CODE_TO_FIELD[code_hm >> 1]
        value = int.from_bytes(body[8 : 8 + width], "big")
        return cls(field=field, value=value)

    def __str__(self) -> str:
        if self.field == "vlan_vid":
            return f"set_vlan:{self.value & 0xFFF}"
        return f"set_{self.field}:{self.value:#x}"
