"""A single-pass field view over an Ethernet frame.

The switch pipeline matches fields many times per packet; PacketView
decodes every supported OXM field once into a flat *flow key* tuple
(the OVS-style "miniflow").  The key is what classification is built
on: the bucketed classifier hashes its slots directly, and
pre-compiled :class:`~repro.openflow.match.Match` objects test it with
plain integer comparisons instead of per-field attribute dispatch.
Field names follow the OXM naming.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.net.build import parse_ipv4
from repro.net.checksum import internet_checksum
from repro.net.errors import PacketDecodeError
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.ipv4 import IPPROTO_TCP, IPPROTO_UDP
from repro.net.tcp import TcpSegment
from repro.net.udp import UdpDatagram
from repro.openflow.consts import OFPVID_PRESENT

#: Canonical field order of the flow key.  Every supported OXM field
#: has a fixed slot; absent fields hold None.  Matches and the flow
#: cache index into this tuple, so the order is part of the fast-path
#: contract (append-only if it ever grows).
FLOW_KEY_FIELDS: tuple[str, ...] = (
    "in_port",
    "eth_dst",
    "eth_src",
    "eth_type",
    "vlan_vid",
    "vlan_pcp",
    "ip_dscp",
    "ip_proto",
    "ipv4_src",
    "ipv4_dst",
    "tcp_src",
    "tcp_dst",
    "udp_src",
    "udp_dst",
)

#: field name -> slot in the flow key tuple.
FIELD_INDEX: dict[str, int] = {name: i for i, name in enumerate(FLOW_KEY_FIELDS)}

FlowKey = "tuple[Optional[int], ...]"


class PacketView:
    """Read-only OXM-field access to a frame as it ingresses a port."""

    __slots__ = ("frame", "in_port", "_key")

    def __init__(
        self,
        frame: EthernetFrame,
        in_port: int,
        key: "tuple[Optional[int], ...] | None" = None,
    ) -> None:
        """*key*, when given, is a flow key already decoded for this
        exact (frame, in_port) pair — the burst path passes it so a
        frame object appearing many times in one burst is decoded once.
        """
        self.frame = frame
        self.in_port = in_port
        self._key: "tuple[Optional[int], ...] | None" = key

    def flow_key(self) -> "tuple[Optional[int], ...]":
        """All OXM fields of this packet as one flat tuple.

        Decoded in a single pass on first use (L2 always, L3/L4 when
        present); absent fields are None.  ``vlan_vid`` follows
        OpenFlow semantics: tagged frames report ``OFPVID_PRESENT |
        vid``; untagged frames report 0.
        """
        key = self._key
        if key is None:
            key = self._key = self._decode()
        return key

    def _decode(self) -> "tuple[Optional[int], ...]":
        frame = self.frame
        vlan = frame.vlan
        ip_dscp = ip_proto = ipv4_src = ipv4_dst = None
        tcp_src = tcp_dst = udp_src = udp_dst = None
        if frame.ethertype == ETHERTYPE_IPV4:
            try:
                packet = parse_ipv4(frame)
            except PacketDecodeError:
                packet = None
            if packet is not None:
                ip_dscp = packet.dscp
                ip_proto = packet.protocol
                ipv4_src = int(packet.src)
                ipv4_dst = int(packet.dst)
                try:
                    if ip_proto == IPPROTO_TCP:
                        segment = TcpSegment.from_bytes(packet.payload)
                        tcp_src = segment.src_port
                        tcp_dst = segment.dst_port
                    elif ip_proto == IPPROTO_UDP:
                        datagram = UdpDatagram.from_bytes(packet.payload)
                        udp_src = datagram.src_port
                        udp_dst = datagram.dst_port
                except PacketDecodeError:
                    pass
        return (
            self.in_port,
            int(frame.dst),
            int(frame.src),
            frame.ethertype,
            OFPVID_PRESENT | vlan.vlan_id if vlan is not None else 0,
            vlan.pcp if vlan is not None else None,
            ip_dscp,
            ip_proto,
            ipv4_src,
            ipv4_dst,
            tcp_src,
            tcp_dst,
            udp_src,
            udp_dst,
        )

    def get(self, field: str) -> Optional[Any]:
        """The value of OXM *field* for this packet, or None if absent."""
        index = FIELD_INDEX.get(field)
        if index is None:
            raise KeyError(f"unknown OXM field {field!r}")
        return self.flow_key()[index]

    def flow_key_for(self, slots: "Iterable[int]") -> "tuple[Optional[int], ...]":
        """The shrunk flow key: only *slots* (sorted, deduplicated) decoded.

        Each returned position equals ``flow_key()[slot]`` for the
        corresponding slot, but when the full key has not been decoded
        yet only the requested fields are parsed — L3/L4 headers a
        pipeline never matches on are skipped (ESwitch's miniflow
        shrinking).  Uses the already-decoded full key when present.
        """
        slots = tuple(sorted(set(slots)))
        key = self._key
        if key is not None:
            return tuple(key[slot] for slot in slots)
        return compile_flow_key_extractor(slots)(self.frame, self.in_port)


def expand_key(
    slots: "tuple[int, ...]", values: "tuple[Optional[int], ...]"
) -> "tuple[Optional[int], ...]":
    """Rehydrate a shrunk key back into full 14-slot form.

    Positions listed in *slots* receive the corresponding entries of
    *values*; every other slot is None.  When *slots* covers every slot
    any match in a pipeline reads, the expanded key classifies exactly
    like the full key — the basis for running interpreted table walks
    (multi-table chain building, select-group hashing) off a shrunk
    key produced by a specialized extractor.
    """
    full: "list[Optional[int]]" = [None] * len(FLOW_KEY_FIELDS)
    for slot, value in zip(slots, values):
        full[slot] = value
    return tuple(full)


# ---------------------------------------------------------------------------
# Miniflow shrinking: code-generated partial flow-key extractors
# ---------------------------------------------------------------------------

#: Names the generated extractor source relies on.  The datapath
#: compiler merges these into its own exec namespace when it inlines
#: ``partial_decode_source`` into a specialized program.
EXTRACTOR_GLOBALS: dict[str, Any] = {
    "internet_checksum": internet_checksum,
    "ETHERTYPE_IPV4": ETHERTYPE_IPV4,
    "IPPROTO_TCP": IPPROTO_TCP,
    "IPPROTO_UDP": IPPROTO_UDP,
    "OFPVID_PRESENT": OFPVID_PRESENT,
    "int_from_bytes": int.from_bytes,
}

_L3_SLOTS = frozenset((6, 7, 8, 9, 10, 11, 12, 13))
_TCP_SLOTS = frozenset((10, 11))
_UDP_SLOTS = frozenset((12, 13))


def partial_decode_source(
    slots: "tuple[int, ...]",
    frame_var: str = "frame",
    in_port_var: str = "in_port",
    prefix: str = "v",
    indent: str = "",
) -> list[str]:
    """Source lines assigning ``{prefix}{slot}`` for every slot in *slots*.

    The emitted code produces exactly what :meth:`PacketView._decode`
    would hold at the requested slots — including every decode-error
    condition (version/IHL/length checks, the IPv4 header checksum, UDP
    length and TCP data-offset validation) and the VLAN/OFPVID
    semantics — but touches only the headers the requested slots need,
    and reads the L3/L4 fields straight off the raw payload bytes
    instead of constructing packet objects, so a pipeline matching
    three fields never pays for a 14-field object decode.  Names in
    :data:`EXTRACTOR_GLOBALS` must be present in the exec namespace.
    """
    need = frozenset(slots)
    unknown = need - set(range(len(FLOW_KEY_FIELDS)))
    if unknown:
        raise ValueError(f"unknown flow-key slots {sorted(unknown)}")
    lines: list[str] = []

    def emit(depth: int, text: str) -> None:
        lines.append(indent + "    " * depth + text)

    if 0 in need:
        emit(0, f"{prefix}0 = {in_port_var}")
    if 1 in need:
        emit(0, f"{prefix}1 = int({frame_var}.dst)")
    if 2 in need:
        emit(0, f"{prefix}2 = int({frame_var}.src)")
    if 3 in need:
        emit(0, f"{prefix}3 = {frame_var}.ethertype")
    if need & {4, 5}:
        emit(0, f"_tags = {frame_var}.tags")
        if 4 in need:
            emit(0, f"{prefix}4 = OFPVID_PRESENT | _tags[0].vlan_id if _tags else 0")
        if 5 in need:
            emit(0, f"{prefix}5 = _tags[0].pcp if _tags else None")
    l3 = need & _L3_SLOTS
    if not l3:
        return lines
    for slot in sorted(l3):
        emit(0, f"{prefix}{slot} = None")
    ethertype = f"{prefix}3" if 3 in need else f"{frame_var}.ethertype"
    tcp = need & _TCP_SLOTS
    udp = need & _UDP_SLOTS
    emit(0, f"if {ethertype} == ETHERTYPE_IPV4:")
    emit(1, f"_p = {frame_var}.payload")
    emit(1, "_n = len(_p)")
    emit(1, "if _n >= 20:")
    emit(2, "_vi = _p[0]")
    emit(2, "_hl = (_vi & 15) * 4")
    emit(2, "if _vi >> 4 == 4 and 20 <= _hl <= _n:")
    emit(3, "_tl = (_p[2] << 8) | _p[3]")
    emit(3, "if _hl <= _tl <= _n and internet_checksum(_p[:_hl]) == 0:")
    if 6 in need:
        emit(4, f"{prefix}6 = _p[1] >> 2")
    if 7 in need or tcp or udp:
        emit(4, "_proto = _p[9]")
    if 7 in need:
        emit(4, f"{prefix}7 = _proto")
    if 8 in need:
        emit(4, f"{prefix}8 = int_from_bytes(_p[12:16], 'big')")
    if 9 in need:
        emit(4, f"{prefix}9 = int_from_bytes(_p[16:20], 'big')")
    branch = "if"
    if tcp:
        # TcpSegment.from_bytes validity: >= 20 bytes and a data offset
        # of >= 5 words fitting inside the segment.
        emit(4, f"{branch} _proto == IPPROTO_TCP:")
        emit(5, "_l4n = _tl - _hl")
        emit(5, "if _l4n >= 20:")
        emit(6, "_do = _p[_hl + 12] >> 4")
        emit(6, "if _do >= 5 and _do * 4 <= _l4n:")
        if 10 in need:
            emit(7, f"{prefix}10 = (_p[_hl] << 8) | _p[_hl + 1]")
        if 11 in need:
            emit(7, f"{prefix}11 = (_p[_hl + 2] << 8) | _p[_hl + 3]")
        branch = "elif"
    if udp:
        # UdpDatagram.from_bytes validity: >= 8 bytes and a length
        # field of >= 8 fitting inside the datagram.
        emit(4, f"{branch} _proto == IPPROTO_UDP:")
        emit(5, "_l4n = _tl - _hl")
        emit(5, "if _l4n >= 8:")
        emit(6, "_ul = (_p[_hl + 4] << 8) | _p[_hl + 5]")
        emit(6, "if 8 <= _ul <= _l4n:")
        if 12 in need:
            emit(7, f"{prefix}12 = (_p[_hl] << 8) | _p[_hl + 1]")
        if 13 in need:
            emit(7, f"{prefix}13 = (_p[_hl + 2] << 8) | _p[_hl + 3]")
    return lines


_EXTRACTOR_CACHE: "dict[tuple[int, ...], Callable]" = {}


def compile_flow_key_extractor(slots: "Iterable[int]") -> Callable:
    """A compiled ``extract(frame, in_port) -> tuple`` for *slots*.

    The returned function yields exactly what ``flow_key()`` would hold
    at those slot positions (in ascending slot order), decoding nothing
    else.  Compiled once per distinct slot set and cached; the source is
    kept on ``__source__`` for introspection and tests.
    """
    slots = tuple(sorted(set(slots)))
    extractor = _EXTRACTOR_CACHE.get(slots)
    if extractor is None:
        body = partial_decode_source(slots, indent="    ")
        values = ", ".join(f"v{slot}" for slot in slots)
        source = "\n".join(
            ["def _extract(frame, in_port):"]
            + (body or ["    pass"])
            + [f"    return ({values}{',' if slots else ''})"]
        )
        namespace = dict(EXTRACTOR_GLOBALS)
        exec(compile(source, f"<flow-key extractor {slots}>", "exec"), namespace)
        extractor = namespace["_extract"]
        extractor.__source__ = source
        _EXTRACTOR_CACHE[slots] = extractor
    return extractor
