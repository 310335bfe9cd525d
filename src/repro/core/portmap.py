"""The access-port <-> VLAN-id bijection at the heart of HARMLESS.

"The legacy switch is configured to tag each packet with a unique VLAN
id that identifies the access port it was received from."  This module
owns that mapping: allocation (skipping VLANs already used on the
switch), validation and both-way lookup.
"""

from __future__ import annotations

from typing import Iterator

from repro.legacy.config import MAX_VLAN

#: Default first VLAN id handed out (matches the paper's example: the
#: ports of the demo switch get 101, 102, ...).
DEFAULT_VLAN_BASE = 101


class PortVlanMap:
    """An immutable-ish bijection between access ports and VLAN ids."""

    def __init__(self, mapping: "dict[int, int] | None" = None) -> None:
        self._port_to_vlan: dict[int, int] = {}
        self._vlan_to_port: dict[int, int] = {}
        for port, vlan in (mapping or {}).items():
            self.assign(port, vlan)

    @classmethod
    def allocate(
        cls,
        ports: "list[int]",
        base: int = DEFAULT_VLAN_BASE,
        reserved: "set[int] | None" = None,
    ) -> "PortVlanMap":
        """Densely allocate VLAN ids >= *base* to *ports*, skipping
        *reserved* ids (VLANs already configured on the switch).
        """
        reserved = set(reserved or ())
        mapping = {}
        candidate = base
        for port in sorted(set(ports)):
            while candidate in reserved:
                candidate += 1
            if candidate > MAX_VLAN:
                raise ValueError(
                    f"ran out of VLAN ids allocating for {len(ports)} ports"
                )
            mapping[port] = candidate
            candidate += 1
        return cls(mapping)

    def assign(self, port: int, vlan: int) -> None:
        """Bind *port* <-> *vlan*, enforcing bijectivity."""
        if port < 1:
            raise ValueError(f"port numbers start at 1, got {port}")
        if not 2 <= vlan <= MAX_VLAN:
            raise ValueError(f"usable VLAN ids are 2..{MAX_VLAN}, got {vlan}")
        if port in self._port_to_vlan:
            raise ValueError(f"port {port} already mapped to {self._port_to_vlan[port]}")
        if vlan in self._vlan_to_port:
            raise ValueError(f"VLAN {vlan} already mapped to port {self._vlan_to_port[vlan]}")
        self._port_to_vlan[port] = vlan
        self._vlan_to_port[vlan] = port

    def vlan_of(self, port: int) -> int:
        """The VLAN id tagging traffic of access *port*."""
        try:
            return self._port_to_vlan[port]
        except KeyError:
            raise KeyError(f"port {port} is not managed by this map") from None

    def port_of(self, vlan: int) -> int:
        """The access port a trunk frame tagged *vlan* belongs to."""
        try:
            return self._vlan_to_port[vlan]
        except KeyError:
            raise KeyError(f"VLAN {vlan} is not managed by this map") from None

    @property
    def ports(self) -> list[int]:
        return sorted(self._port_to_vlan)

    @property
    def vlans(self) -> list[int]:
        return sorted(self._vlan_to_port)

    def __len__(self) -> int:
        return len(self._port_to_vlan)

    def __contains__(self, port: int) -> bool:
        return port in self._port_to_vlan

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """(port, vlan) pairs in port order."""
        for port in sorted(self._port_to_vlan):
            yield port, self._port_to_vlan[port]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PortVlanMap):
            return self._port_to_vlan == other._port_to_vlan
        return NotImplemented

    def validate(self) -> None:
        """Internal consistency check (the bijection invariant)."""
        if len(self._port_to_vlan) != len(self._vlan_to_port):
            raise AssertionError("port->vlan and vlan->port sizes differ")
        for port, vlan in self._port_to_vlan.items():
            if self._vlan_to_port.get(vlan) != port:
                raise AssertionError(f"mapping not bijective at port {port}")

    def describe(self) -> str:
        pairs = ", ".join(f"{port}->{vlan}" for port, vlan in self)
        return f"PortVlanMap({pairs})"

    __repr__ = describe
