"""The vendor-neutral driver API and its SNMP-backed core.

A driver executes three kinds of work, all over SNMP:

* *getters* — facts, interfaces, VLANs, MAC table (read community),
* *config ops* — a vendor-neutral op list (declare VLAN, access port,
  trunk port) applied via Q-BRIDGE SET operations (write community),
* *config sessions* — candidate text in the vendor's own syntax,
  parsed into ops, previewed, committed atomically, or rolled back.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.snmp.agent import SnmpAgent, SnmpError, SnmpErrorStatus
from repro.snmp.bridge_mib import (
    DOT1Q_PORT_VLAN_ENTRY,
    DOT1Q_TP_FDB_ENTRY,
    DOT1Q_VLAN_STATIC_ENTRY,
    IF_TABLE_ENTRY,
    ROW_CREATE_AND_GO,
    ROW_DESTROY,
    VLAN_EGRESS,
    VLAN_NAME,
    VLAN_ROW_STATUS,
    VLAN_UNTAGGED,
    portlist_from_bytes,
    portlist_to_bytes,
)
from repro.snmp.client import SnmpClient, SnmpTimeout
from repro.snmp.oid import IF_NUMBER, SYS_DESCR, SYS_NAME


class DriverError(Exception):
    """Connection or execution failure at the driver layer."""


class ConfigSessionError(DriverError):
    """Candidate/commit workflow misuse (no candidate, parse error...)."""


@dataclass
class DeviceConnection:
    """How to reach one device's management agent."""

    agent: SnmpAgent
    hostname: str = "switch"
    read_community: str = "public"
    write_community: str = "private"


@dataclass
class ConfigOp:
    """One vendor-neutral configuration operation."""

    kind: str  # "vlan" | "no-vlan" | "access" | "trunk"
    vlan_id: int = 0
    port: int = 0
    name: str = ""
    allowed_vlans: tuple[int, ...] = ()
    native_vlan: "int | None" = None

    def key(self) -> tuple:
        """Deduplication/ordering key: VLAN declarations first."""
        order = {"vlan": 0, "no-vlan": 1, "access": 2, "trunk": 2}
        return (order[self.kind], self.vlan_id, self.port)


@dataclass
class VlanView:
    """What get_vlans() reports for one VLAN."""

    name: str
    untagged: list[int] = field(default_factory=list)
    tagged: list[int] = field(default_factory=list)


class NetworkDriver(ABC):
    """Base driver; subclasses supply naming and config syntax."""

    vendor = "generic"

    def __init__(self, connection: DeviceConnection) -> None:
        self.connection = connection
        self._client: Optional[SnmpClient] = None
        self._candidate: "list[ConfigOp] | None" = None
        self._candidate_text: str = ""
        self._rollback_ops: "list[ConfigOp] | None" = None

    # -------------------------------------------------------- connection

    def open(self) -> None:
        """Establish the management session (verifies reachability)."""
        client = SnmpClient(
            self.connection.agent, community=self.connection.write_community
        )
        try:
            client.get(SYS_DESCR)
        except (SnmpTimeout, SnmpError) as exc:
            raise DriverError(f"cannot reach {self.connection.hostname}: {exc}") from exc
        self._client = client

    def close(self) -> None:
        self._client = None
        self._candidate = None

    def is_alive(self) -> bool:
        if self._client is None:
            return False
        try:
            self._client.get(SYS_DESCR)
            return True
        except (SnmpTimeout, SnmpError):
            return False

    @property
    def client(self) -> SnmpClient:
        if self._client is None:
            raise DriverError("driver is not open")
        return self._client

    def __enter__(self) -> "NetworkDriver":
        self.open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ----------------------------------------------------- vendor naming

    @abstractmethod
    def interface_name(self, port: int) -> str:
        """Vendor-specific name for switch port *port*."""

    @abstractmethod
    def parse_interface(self, name: str) -> int:
        """Inverse of :meth:`interface_name`."""

    # ------------------------------------------------------------ getters

    def get_facts(self) -> dict[str, Any]:
        """Device identity and interface inventory."""
        descr = self.client.get(SYS_DESCR)
        name = self.client.get(SYS_NAME)
        interfaces = self.get_interfaces()
        return {
            "hostname": name,
            "vendor": self.vendor,
            "model": descr,
            "interface_list": sorted(interfaces),
        }

    def get_interfaces(self) -> dict[str, dict[str, Any]]:
        """Per-interface admin/oper state and octet counters."""
        rows = self.client.table_rows(IF_TABLE_ENTRY)
        ports = sorted({suffix[1] for suffix in rows if suffix[0] == 1})
        result: dict[str, dict[str, Any]] = {}
        for port in ports:
            result[self.interface_name(port)] = {
                "port": port,
                "is_enabled": rows.get((7, port)) == 1,
                "is_up": rows.get((8, port)) == 1,
                "rx_octets": rows.get((10, port), 0),
                "tx_octets": rows.get((16, port), 0),
            }
        return result

    def get_vlans(self) -> dict[int, VlanView]:
        """VLANs with their tagged/untagged member ports."""
        rows = self.client.table_rows(DOT1Q_VLAN_STATIC_ENTRY)
        vlans: dict[int, VlanView] = {}
        for suffix, value in rows.items():
            column, vlan_id = suffix
            view = vlans.setdefault(vlan_id, VlanView(name=""))
            if column == VLAN_NAME:
                view.name = str(value)
            elif column == VLAN_EGRESS:
                egress = portlist_from_bytes(bytes(value))
                view.tagged = sorted(egress)
            elif column == VLAN_UNTAGGED:
                view.untagged = sorted(portlist_from_bytes(bytes(value)))
        for view in vlans.values():
            view.tagged = [port for port in view.tagged if port not in view.untagged]
        return vlans

    def get_mac_address_table(self) -> list[dict[str, Any]]:
        """The learned FDB as NAPALM reports it."""
        rows = self.client.table_rows(DOT1Q_TP_FDB_ENTRY)
        table = []
        for suffix, value in rows.items():
            if suffix[0] != 2:  # port column only
                continue
            vlan_id = suffix[1]
            mac_bytes = bytes(suffix[2:8])
            status = rows.get((3,) + suffix[1:], 3)
            table.append(
                {
                    "mac": ":".join(f"{byte:02x}" for byte in mac_bytes),
                    "vlan": vlan_id,
                    "interface": self.interface_name(int(value)),
                    "static": status == 5,
                }
            )
        return table

    def get_port_count(self) -> int:
        return int(self.client.get(IF_NUMBER))

    # --------------------------------------------------------- config ops

    def apply_ops(self, ops: "list[ConfigOp]") -> None:
        """Execute vendor-neutral ops over SNMP, VLAN declarations first."""
        width = self.get_port_count()
        for op in sorted(ops, key=ConfigOp.key):
            if op.kind == "vlan":
                self.client.set(
                    DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, op.vlan_id),
                    ROW_CREATE_AND_GO,
                )
                if op.name:
                    self.client.set(
                        DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_NAME, op.vlan_id), op.name
                    )
            elif op.kind == "no-vlan":
                self.client.set(
                    DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, op.vlan_id),
                    ROW_DESTROY,
                )
            elif op.kind == "access":
                self._apply_access(op, width)
            elif op.kind == "trunk":
                self._apply_trunk(op, width)
            else:
                raise DriverError(f"unknown config op kind {op.kind!r}")

    def _current_members(self, column: int, vlan_id: int) -> set[int]:
        """One PortList cell of dot1qVlanStaticTable (no row: no ports)."""
        try:
            raw = self.client.get(DOT1Q_VLAN_STATIC_ENTRY.child(column, vlan_id))
        except SnmpError as exc:
            if exc.status is not SnmpErrorStatus.NO_SUCH_NAME:
                raise
            raw = b""
        return portlist_from_bytes(bytes(raw))

    def _apply_access(self, op: ConfigOp, width: int) -> None:
        untagged = self._current_members(VLAN_UNTAGGED, op.vlan_id) | {op.port}
        self.client.set(
            DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_UNTAGGED, op.vlan_id),
            portlist_to_bytes(untagged, width),
        )

    def _apply_trunk(self, op: ConfigOp, width: int) -> None:
        for vlan_id in op.allowed_vlans:
            egress = self._current_members(VLAN_EGRESS, vlan_id) | {op.port}
            untagged = self._current_members(VLAN_UNTAGGED, vlan_id) - {op.port}
            self.client.set(
                DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_EGRESS, vlan_id),
                portlist_to_bytes(egress, width),
            )
            self.client.set(
                DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_UNTAGGED, vlan_id),
                portlist_to_bytes(untagged, width),
            )
        if op.native_vlan is not None:
            self._apply_access(
                ConfigOp(kind="access", vlan_id=op.native_vlan, port=op.port), width
            )

    # ------------------------------------------------------ config session

    @abstractmethod
    def render_config(self, ops: "list[ConfigOp]") -> str:
        """Render ops into this vendor's configuration syntax."""

    @abstractmethod
    def parse_config(self, text: str) -> "list[ConfigOp]":
        """Parse this vendor's configuration syntax into ops."""

    def load_merge_candidate(self, config: str) -> None:
        """Stage *config* (vendor syntax) for commit."""
        self._candidate = self.parse_config(config)
        self._candidate_text = config

    def compare_config(self) -> str:
        """Preview: the staged ops rendered back in vendor syntax."""
        if self._candidate is None:
            return ""
        return self.render_config(self._candidate)

    def commit_config(self) -> None:
        """Apply the candidate atomically; snapshots state for rollback.

        A commit that fails part-way restores the snapshot before
        re-raising (the candidate stays loaded), so the device never
        keeps half a configuration.
        """
        if self._candidate is None:
            raise ConfigSessionError("no candidate loaded")
        self._rollback_ops = self._snapshot_ops()
        try:
            self.apply_ops(self._candidate)
        except Exception:
            # Whatever failed — a refused SET, a timeout, a bug — the
            # device must not keep half a configuration; the caller
            # still sees the original exception, unwrapped.
            self.rollback()
            raise
        self._candidate = None

    def discard_config(self) -> None:
        self._candidate = None
        self._candidate_text = ""

    def rollback(self) -> None:
        """Return to the configuration captured by the last commit.

        Strategy: strip every non-default VLAN's membership (which
        drops the affected ports back into the default VLAN), destroy
        VLANs that did not exist at snapshot time, then replay the
        snapshot ops to rebuild the old layout.
        """
        if self._rollback_ops is None:
            raise ConfigSessionError("nothing to roll back to")
        snapshot_vlans = {
            op.vlan_id for op in self._rollback_ops if op.kind == "vlan"
        }
        width = self.get_port_count()
        current_vlans = set(self.get_vlans())
        for vlan_id in sorted(current_vlans - {1}):
            self.client.set(
                DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_EGRESS, vlan_id),
                portlist_to_bytes(set(), width),
            )
        for vlan_id in sorted(current_vlans - snapshot_vlans - {1}):
            self.apply_ops([ConfigOp(kind="no-vlan", vlan_id=vlan_id)])
        self.apply_ops(self._rollback_ops)
        self._rollback_ops = None

    def _snapshot_ops(self) -> "list[ConfigOp]":
        """Capture the current VLAN/port layout as a replayable op list."""
        ops: list[ConfigOp] = []
        trunk_membership: dict[int, set[int]] = {}
        for vlan_id, view in sorted(self.get_vlans().items()):
            ops.append(ConfigOp(kind="vlan", vlan_id=vlan_id, name=view.name))
            for port in view.untagged:
                ops.append(ConfigOp(kind="access", vlan_id=vlan_id, port=port))
            for port in view.tagged:
                trunk_membership.setdefault(port, set()).add(vlan_id)
        for port, vlans in sorted(trunk_membership.items()):
            ops.append(
                ConfigOp(kind="trunk", port=port, allowed_vlans=tuple(sorted(vlans)))
            )
        return ops
