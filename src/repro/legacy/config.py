"""Configuration model of the legacy switch.

A :class:`RunningConfig` is a plain data object so the management plane
(SNMP agent, vendor drivers) can read and write it, diff it and roll it
back — the same operations NAPALM performs against real devices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: The VLAN every port belongs to out of the box.
DEFAULT_VLAN = 1
#: Highest usable VLAN id (4095 is reserved by 802.1Q).
MAX_VLAN = 4094


class PortMode(enum.Enum):
    """802.1Q operating mode of a switch port."""

    ACCESS = "access"
    TRUNK = "trunk"


@dataclass
class PortVlanConfig:
    """VLAN configuration of one port.

    For ACCESS ports only ``pvid`` matters: ingress untagged frames are
    classified into it and egress frames are sent untagged.

    For TRUNK ports ``allowed_vlans`` lists the tagged VLANs carried;
    ``native_vlan`` (optional) is sent/received untagged.
    """

    mode: PortMode = PortMode.ACCESS
    pvid: int = DEFAULT_VLAN
    allowed_vlans: set[int] = field(default_factory=set)
    native_vlan: "int | None" = None
    enabled: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not 1 <= self.pvid <= MAX_VLAN:
            raise ValueError(f"PVID out of range: {self.pvid}")
        for vlan in self.allowed_vlans:
            if not 1 <= vlan <= MAX_VLAN:
                raise ValueError(f"allowed VLAN out of range: {vlan}")
        if self.native_vlan is not None and not 1 <= self.native_vlan <= MAX_VLAN:
            raise ValueError(f"native VLAN out of range: {self.native_vlan}")
        if self.mode is PortMode.ACCESS and self.allowed_vlans:
            raise ValueError("access ports cannot carry tagged VLANs")

    def carries(self, vlan: int) -> bool:
        """True if frames of *vlan* may ingress/egress this port."""
        if not self.enabled:
            return False
        if self.mode is PortMode.ACCESS:
            return vlan == self.pvid
        return vlan in self.allowed_vlans or vlan == self.native_vlan

    def copy(self) -> "PortVlanConfig":
        return PortVlanConfig(
            mode=self.mode,
            pvid=self.pvid,
            allowed_vlans=set(self.allowed_vlans),
            native_vlan=self.native_vlan,
            enabled=self.enabled,
            description=self.description,
        )


@dataclass
class VlanDecl:
    """A VLAN declared on the switch (id + administrative name)."""

    vlan_id: int
    name: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.vlan_id <= MAX_VLAN:
            raise ValueError(f"VLAN id out of range: {self.vlan_id}")
        if not self.name:
            self.name = f"VLAN{self.vlan_id:04d}"


@dataclass
class RunningConfig:
    """The complete modifiable state of a legacy switch."""

    hostname: str = "switch"
    vlans: dict[int, VlanDecl] = field(default_factory=lambda: {1: VlanDecl(1, "default")})
    ports: dict[int, PortVlanConfig] = field(default_factory=dict)
    fdb_aging_s: float = 300.0

    def declare_vlan(self, vlan_id: int, name: str = "") -> VlanDecl:
        """Create (or return the existing) VLAN declaration."""
        if vlan_id not in self.vlans:
            self.vlans[vlan_id] = VlanDecl(vlan_id, name)
        return self.vlans[vlan_id]

    def remove_vlan(self, vlan_id: int) -> None:
        if vlan_id == DEFAULT_VLAN:
            raise ValueError("cannot remove the default VLAN")
        for port_num, port in self.ports.items():
            if port.carries(vlan_id):
                raise ValueError(
                    f"VLAN {vlan_id} still configured on port {port_num}"
                )
        self.vlans.pop(vlan_id, None)

    def port(self, number: int) -> PortVlanConfig:
        """The config of port *number*, created on first touch."""
        if number not in self.ports:
            self.ports[number] = PortVlanConfig()
        return self.ports[number]

    def set_access(self, number: int, vlan_id: int) -> None:
        """Make *number* an access port in *vlan_id* (declaring it)."""
        self.declare_vlan(vlan_id)
        config = self.port(number)
        config.mode = PortMode.ACCESS
        config.pvid = vlan_id
        config.allowed_vlans = set()
        config.native_vlan = None
        config.validate()

    def set_trunk(
        self,
        number: int,
        allowed_vlans: "set[int] | list[int]",
        native_vlan: "int | None" = None,
    ) -> None:
        """Make *number* a trunk carrying *allowed_vlans* (declaring them)."""
        for vlan in allowed_vlans:
            self.declare_vlan(vlan)
        if native_vlan is not None:
            self.declare_vlan(native_vlan)
        config = self.port(number)
        config.mode = PortMode.TRUNK
        config.allowed_vlans = set(allowed_vlans)
        config.native_vlan = native_vlan
        config.validate()

    def ports_in_vlan(self, vlan_id: int) -> list[int]:
        """Sorted port numbers that carry *vlan_id*: the flood
        membership, :meth:`PortVlanConfig.carries` read by value inline
        (no method call per port)."""
        access = PortMode.ACCESS
        return sorted([
            number
            for number, config in self.ports.items()
            if config.enabled
            and (
                vlan_id == config.pvid
                if config.mode is access
                else vlan_id in config.allowed_vlans or vlan_id == config.native_vlan
            )
        ])

    def copy(self) -> "RunningConfig":
        duplicate = RunningConfig(
            hostname=self.hostname,
            vlans={vid: VlanDecl(decl.vlan_id, decl.name) for vid, decl in self.vlans.items()},
            ports={number: config.copy() for number, config in self.ports.items()},
            fdb_aging_s=self.fdb_aging_s,
        )
        return duplicate

    def diff(self, other: "RunningConfig") -> list[str]:
        """Human-readable differences from *self* to *other*."""
        changes: list[str] = []
        if self.hostname != other.hostname:
            changes.append(f"hostname: {self.hostname} -> {other.hostname}")
        for vlan_id in sorted(set(self.vlans) | set(other.vlans)):
            if vlan_id not in self.vlans:
                changes.append(f"+vlan {vlan_id} ({other.vlans[vlan_id].name})")
            elif vlan_id not in other.vlans:
                changes.append(f"-vlan {vlan_id}")
        for number in sorted(set(self.ports) | set(other.ports)):
            mine = self.ports.get(number)
            theirs = other.ports.get(number)
            if mine == theirs:
                continue
            if theirs is None:
                changes.append(f"-port {number}")
            else:
                changes.append(
                    f"~port {number}: mode={theirs.mode.value} pvid={theirs.pvid} "
                    f"allowed={sorted(theirs.allowed_vlans)} native={theirs.native_vlan}"
                )
        return changes
