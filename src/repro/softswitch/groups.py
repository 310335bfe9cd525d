"""Group table: all / select / indirect groups.

Select groups implement the weighted-hash bucket choice the
load-balancer use case depends on: the hash is computed over the
packet's flow key so one flow always lands on one backend (connection
affinity), while distinct flows spread by bucket weight.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.openflow.consts import OFPGT_ALL, OFPGT_INDIRECT, OFPGT_SELECT
from repro.openflow.messages import Bucket
from repro.openflow.packetview import FIELD_INDEX, PacketView

#: Fields hashed for select-group bucket choice (5-tuple-ish).
SELECT_HASH_FIELDS = (
    "eth_src",
    "eth_dst",
    "ipv4_src",
    "ipv4_dst",
    "ip_proto",
    "tcp_src",
    "tcp_dst",
    "udp_src",
    "udp_dst",
)


@dataclass
class GroupEntry:
    """One group with its buckets and counters."""

    group_id: int
    group_type: int
    buckets: list[Bucket] = field(default_factory=list)
    packet_count: int = 0
    bucket_packet_counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.group_type not in (OFPGT_ALL, OFPGT_SELECT, OFPGT_INDIRECT):
            raise ValueError(f"unsupported group type {self.group_type}")
        if self.group_type == OFPGT_INDIRECT and len(self.buckets) != 1:
            raise ValueError("indirect groups take exactly one bucket")
        if not self.bucket_packet_counts:
            self.bucket_packet_counts = [0] * len(self.buckets)

    def select_bucket(
        self, view: PacketView, hash_fields: "tuple[str, ...]" = SELECT_HASH_FIELDS
    ) -> Optional[int]:
        """Weighted-hash bucket index for *view* (None if no buckets)."""
        return self.select_bucket_for_key(view.flow_key(), hash_fields)

    def select_bucket_for_key(
        self,
        key: "tuple[Optional[int], ...]",
        hash_fields: "tuple[str, ...]" = SELECT_HASH_FIELDS,
    ) -> Optional[int]:
        """Bucket index for a full 14-slot flow *key*.

        The hash reads only *hash_fields* slots, so any key whose
        hash-field slots carry the packet's decoded values — including
        an :func:`~repro.openflow.packetview.expand_key`-rehydrated
        shrunk key — selects the same bucket as the full decode.  The
        compiled tier bakes bucket choices per flow key on this basis.
        """
        if not self.buckets:
            return None
        key_material = []
        for name in hash_fields:
            value = key[FIELD_INDEX[name]]
            if value is not None:
                key_material.append(f"{name}={value}")
        digest = hashlib.sha256(";".join(key_material).encode()).digest()
        point = int.from_bytes(digest[:8], "big")
        total_weight = sum(max(bucket.weight, 1) for bucket in self.buckets)
        slot = point % total_weight
        cumulative = 0
        for index, bucket in enumerate(self.buckets):
            cumulative += max(bucket.weight, 1)
            if slot < cumulative:
                return index
        return len(self.buckets) - 1


class GroupTable:
    """All groups of one datapath."""

    def __init__(self) -> None:
        self._groups: dict[int, GroupEntry] = {}

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, group_id: int) -> bool:
        return group_id in self._groups

    def __iter__(self):
        return iter(self._groups.values())

    def add(self, group_id: int, group_type: int, buckets: list[Bucket]) -> None:
        if group_id in self._groups:
            raise ValueError(f"group {group_id} already exists")
        self._groups[group_id] = GroupEntry(
            group_id=group_id, group_type=group_type, buckets=list(buckets)
        )

    def modify(self, group_id: int, group_type: int, buckets: list[Bucket]) -> None:
        if group_id not in self._groups:
            raise KeyError(f"group {group_id} does not exist")
        old = self._groups[group_id]
        self._groups[group_id] = GroupEntry(
            group_id=group_id,
            group_type=group_type,
            buckets=list(buckets),
            packet_count=old.packet_count,
        )

    def delete(self, group_id: int) -> None:
        self._groups.pop(group_id, None)

    def get(self, group_id: int) -> Optional[GroupEntry]:
        return self._groups.get(group_id)

    def has_select_groups(self) -> bool:
        """True when any select group is installed (compiler probe:
        decides whether the shrunk flow key must carry hash slots)."""
        return any(
            entry.group_type == OFPGT_SELECT for entry in self._groups.values()
        )

    def dump(self) -> str:
        lines = [f"groups ({len(self._groups)}):"]
        for group_id in sorted(self._groups):
            entry = self._groups[group_id]
            type_names = {OFPGT_ALL: "all", OFPGT_SELECT: "select", OFPGT_INDIRECT: "indirect"}
            buckets = "; ".join(
                f"w={bucket.weight}:"
                + ",".join(str(action) for action in bucket.actions)
                for bucket in entry.buckets
            )
            lines.append(
                f"  group {group_id} type={type_names[entry.group_type]} [{buckets}]"
            )
        return "\n".join(lines)
