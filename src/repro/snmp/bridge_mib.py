"""MIB-2 / BRIDGE-MIB / Q-BRIDGE-MIB adapter for the legacy switch.

Exposes (all under the standard OIDs):

* system: sysDescr, sysName (writable),
* ifNumber, and ifTable: ifIndex / ifDescr / ifAdminStatus (writable) /
  ifOperStatus / ifInOctets / ifOutOctets,
* dot1qTpFdbTable: the learned MAC table, indexed by (vlan, mac),
* dot1qPortVlanTable (PVID, writable),
* dot1qVlanStaticTable: name / egress PortList / untagged PortList /
  row status, all writable — this is the table the HARMLESS Manager
  drives to build the per-port VLAN scheme.

PortList values use the RFC 2674 bitmap encoding (port 1 = high bit of
the first octet), so walks return exactly what a real agent would.

Every writer checks the value's type and the row's index before it
changes anything, and refuses with ValueError (the agent answers
badValue).  A multi-varbind SET that fails part-way is undone through
the tree's ``checkpoint``.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.legacy.config import PortMode
from repro.legacy.switch import LegacySwitch
from repro.snmp.mib import MibTree
from repro.snmp.oid import OID

SYS_DESCR_OID = OID("1.3.6.1.2.1.1.1")
SYS_NAME_OID = OID("1.3.6.1.2.1.1.5")
IF_NUMBER_OID = OID("1.3.6.1.2.1.2.1")
IF_TABLE_ENTRY = OID("1.3.6.1.2.1.2.2.1")
DOT1Q_TP_FDB_ENTRY = OID("1.3.6.1.2.1.17.7.1.2.2.1")
DOT1Q_PORT_VLAN_ENTRY = OID("1.3.6.1.2.1.17.7.1.4.5.1")
DOT1Q_VLAN_STATIC_ENTRY = OID("1.3.6.1.2.1.17.7.1.4.3.1")

# ifTable columns.
IF_INDEX, IF_DESCR, IF_ADMIN, IF_OPER, IF_IN_OCTETS, IF_OUT_OCTETS = 1, 2, 7, 8, 10, 16
# dot1qVlanStatic columns.
VLAN_NAME, VLAN_EGRESS, VLAN_FORBIDDEN, VLAN_UNTAGGED, VLAN_ROW_STATUS = 1, 2, 3, 4, 5
# RowStatus values.
ROW_ACTIVE, ROW_CREATE_AND_GO, ROW_DESTROY = 1, 4, 6
# FDB entry status.
FDB_LEARNED, FDB_MGMT = 3, 5


def portlist_to_bytes(ports: Iterable[int], width_ports: int) -> bytes:
    """Encode a port set as an RFC 2674 PortList bitmap."""
    width_octets = (width_ports + 7) // 8
    bits = bytearray(width_octets)
    for port in ports:
        if not 1 <= port <= width_ports:
            raise ValueError(f"port {port} outside PortList width {width_ports}")
        octet, bit = divmod(port - 1, 8)
        bits[octet] |= 0x80 >> bit
    return bytes(bits)


_T = TypeVar("_T")


def _typed(value: object, kind: "type[_T]") -> _T:
    """*value* if it is a *kind* (the column's SNMP syntax), else ValueError."""
    if not isinstance(value, kind):
        raise ValueError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def portlist_from_bytes(raw: bytes) -> set[int]:
    """Decode an RFC 2674 PortList bitmap into a port-number set."""
    ports = set()
    for octet_index, octet in enumerate(raw):
        for bit in range(8):
            if octet & (0x80 >> bit):
                ports.add(octet_index * 8 + bit + 1)
    return ports


class BridgeMibAdapter:
    """Binds a :class:`LegacySwitch` into a :class:`MibTree`."""

    def __init__(self, switch: LegacySwitch, mib: MibTree) -> None:
        self.switch = switch
        self.mib = mib
        self._mount_system()
        self._mount_if_table()
        self._mount_fdb_table()
        self._mount_pvid_table()
        self._mount_vlan_static_table()
        mib.checkpoint = self._checkpoint

    def _checkpoint(self) -> Callable[[], None]:
        """Capture what a SET can change — the running config and each
        port's admin state — and return the function that restores it."""
        switch = self.switch
        config = switch.config.copy()
        up = {number: port.up for number, port in switch.ports.items()}

        def restore() -> None:
            for number, was_up in up.items():
                if switch.ports[number].up != was_up:
                    (switch.link_up if was_up else switch.link_down)(number)
            switch.apply_config(config)

        return restore

    def _port(self, number: int) -> int:
        """*number* if the switch has that port, else ValueError."""
        if number not in self.switch.ports:
            raise ValueError(f"switch has no port {number}")
        return number

    # ------------------------------------------------------------ system

    def _mount_system(self) -> None:
        switch = self.switch
        self.mib.scalar(
            SYS_DESCR_OID,
            read=lambda: f"repro legacy ethernet switch, {len(switch.ports)} ports",
        )

        def write_name(value: object) -> None:
            switch.config.hostname = _typed(value, str)

        self.mib.scalar(
            SYS_NAME_OID, read=lambda: switch.config.hostname, write=write_name
        )

    # ----------------------------------------------------------- ifTable

    def _mount_if_table(self) -> None:
        switch = self.switch
        self.mib.scalar(IF_NUMBER_OID, read=lambda: len(switch.ports))

        def rows() -> Iterable[tuple[tuple[int, ...], object]]:
            for number in sorted(switch.ports):
                port = switch.ports[number]
                config = switch.config.port(number)
                yield (IF_INDEX, number), number
                yield (IF_DESCR, number), f"Ethernet{number}"
                yield (IF_ADMIN, number), 1 if config.enabled else 2
                yield (IF_OPER, number), 1 if port.up and port.is_wired else 2

        def counter_rows() -> Iterable[tuple[tuple[int, ...], object]]:
            for number in sorted(switch.ports):
                port = switch.ports[number]
                yield (IF_IN_OCTETS, number), port.rx_bytes
                yield (IF_OUT_OCTETS, number), port.tx_bytes

        def all_rows() -> Iterable[tuple[tuple[int, ...], object]]:
            merged = list(rows()) + list(counter_rows())
            merged.sort(key=lambda item: item[0])
            return merged

        def write(suffix: tuple[int, ...], value: object) -> None:
            if len(suffix) != 2 or suffix[0] != IF_ADMIN:
                raise ValueError(f"ifTable column not writable: {suffix}")
            number = self._port(suffix[1])
            status = _typed(value, int)
            if status == 1:
                switch.link_up(number)
            elif status == 2:
                switch.link_down(number)
            else:
                raise ValueError(f"unsupported ifAdminStatus {status}")

        self.mib.table(IF_TABLE_ENTRY, rows=all_rows, write=write)

    # ---------------------------------------------------------- FDB table

    def _mount_fdb_table(self) -> None:
        switch = self.switch

        def rows() -> Iterable[tuple[tuple[int, ...], object]]:
            port_rows = []
            status_rows = []
            # Entries die when looked up, not when they age: a walk
            # reports what a lookup at this instant would still find.
            for entry in switch.fdb.entries(now=switch.sim.now):
                mac_parts = tuple(entry.mac.packed)
                port_rows.append(((2, entry.vlan_id) + mac_parts, entry.port))
                status_rows.append(
                    (
                        (3, entry.vlan_id) + mac_parts,
                        FDB_MGMT if entry.static else FDB_LEARNED,
                    )
                )
            return sorted(port_rows + status_rows)

        self.mib.table(DOT1Q_TP_FDB_ENTRY, rows=rows)

    # --------------------------------------------------------- PVID table

    def _mount_pvid_table(self) -> None:
        switch = self.switch

        def rows() -> Iterable[tuple[tuple[int, ...], object]]:
            for number in sorted(switch.ports):
                config = switch.config.port(number)
                if config.mode is PortMode.ACCESS:
                    pvid = config.pvid
                else:
                    pvid = config.native_vlan if config.native_vlan else 1
                yield (1, number), pvid

        def write(suffix: tuple[int, ...], value: object) -> None:
            if len(suffix) != 2 or suffix[0] != 1:
                raise ValueError(f"bad dot1qPvid index: {suffix}")
            number = self._port(suffix[1])
            vlan_id = _typed(value, int)
            new_config = switch.config.copy()
            port = new_config.port(number)
            if port.mode is PortMode.ACCESS:
                new_config.set_access(number, vlan_id)
            else:
                new_config.set_trunk(number, port.allowed_vlans, native_vlan=vlan_id)
            switch.apply_config(new_config)

        self.mib.table(DOT1Q_PORT_VLAN_ENTRY, rows=rows, write=write)

    # --------------------------------------------- dot1qVlanStaticTable

    def _egress_ports(self, vlan_id: int) -> set[int]:
        # Unlike config.ports_in_vlan (a dataplane question answered via
        # PortVlanConfig.carries, which is False on admin-down ports),
        # the static table wants configured membership: a downed port
        # must not lose its VLANs to a read-modify-write cycle.
        egress = set()
        for number, config in self.switch.config.ports.items():
            if config.mode is PortMode.ACCESS:
                if config.pvid == vlan_id:
                    egress.add(number)
            elif vlan_id in config.allowed_vlans or vlan_id == config.native_vlan:
                egress.add(number)
        return egress

    def _untagged_ports(self, vlan_id: int) -> set[int]:
        # Membership is *configuration*: admin-down ports keep their
        # VLANs (otherwise the read-modify-write in _write_membership
        # would silently strip a downed port back to the default VLAN
        # whenever any other port's membership changes).
        untagged = set()
        for number, config in self.switch.config.ports.items():
            if config.mode is PortMode.ACCESS and config.pvid == vlan_id:
                untagged.add(number)
            elif config.mode is PortMode.TRUNK and config.native_vlan == vlan_id:
                untagged.add(number)
        return untagged

    def _mount_vlan_static_table(self) -> None:
        switch = self.switch

        def width() -> int:
            return max(switch.ports, default=0)

        def rows() -> Iterable[tuple[tuple[int, ...], object]]:
            produced = []
            for vlan_id in sorted(switch.config.vlans):
                decl = switch.config.vlans[vlan_id]
                egress = self._egress_ports(vlan_id)
                untagged = self._untagged_ports(vlan_id) & egress
                produced.append(((VLAN_NAME, vlan_id), decl.name))
                produced.append(
                    ((VLAN_EGRESS, vlan_id), portlist_to_bytes(egress, width()))
                )
                produced.append(
                    ((VLAN_UNTAGGED, vlan_id), portlist_to_bytes(untagged, width()))
                )
                produced.append(((VLAN_ROW_STATUS, vlan_id), ROW_ACTIVE))
            return sorted(produced)

        def write(suffix: tuple[int, ...], value: object) -> None:
            if len(suffix) != 2:
                raise ValueError(f"bad dot1qVlanStatic index: {suffix}")
            column, vlan_id = suffix
            if column == VLAN_ROW_STATUS:
                self._write_row_status(vlan_id, _typed(value, int))
            elif column == VLAN_NAME:
                name = _typed(value, str)
                if vlan_id not in switch.config.vlans:
                    raise ValueError(f"VLAN {vlan_id} does not exist")
                switch.config.vlans[vlan_id].name = name
            elif column == VLAN_EGRESS:
                self._write_membership(
                    vlan_id, egress=portlist_from_bytes(_typed(value, bytes))
                )
            elif column == VLAN_UNTAGGED:
                self._write_membership(
                    vlan_id, untagged=portlist_from_bytes(_typed(value, bytes))
                )
            else:
                raise ValueError(f"column {column} not writable")

        self.mib.table(DOT1Q_VLAN_STATIC_ENTRY, rows=rows, write=write)

    def _write_row_status(self, vlan_id: int, status: int) -> None:
        config = self.switch.config.copy()
        if status in (ROW_CREATE_AND_GO, ROW_ACTIVE):
            config.declare_vlan(vlan_id)
        elif status == ROW_DESTROY:
            config.remove_vlan(vlan_id)
        else:
            raise ValueError(f"unsupported RowStatus {status}")
        self.switch.apply_config(config)

    def _write_membership(
        self,
        vlan_id: int,
        egress: "set[int] | None" = None,
        untagged: "set[int] | None" = None,
    ) -> None:
        """Read-modify-write one VLAN's membership, re-deriving port modes.

        Q-BRIDGE expresses configuration as per-VLAN port sets; our
        switch model thinks in per-port modes.  After updating the sets
        for *vlan_id*, each affected port's mode is recomputed from its
        memberships across all VLANs:

        * untagged member of exactly one VLAN, no tagged memberships ->
          ACCESS with that PVID;
        * any tagged membership -> TRUNK (untagged membership, if any,
          becomes the native VLAN).
        """
        current_egress = {
            vid: self._egress_ports(vid) for vid in self.switch.config.vlans
        }
        current_untagged = {
            vid: self._untagged_ports(vid) & current_egress[vid]
            for vid in self.switch.config.vlans
        }
        if vlan_id not in current_egress:
            raise ValueError(f"VLAN {vlan_id} does not exist")
        if egress is not None:
            current_egress[vlan_id] = set(egress)
            current_untagged[vlan_id] &= set(egress)
        if untagged is not None:
            # A port is untagged in exactly one VLAN; granting untagged
            # membership here *moves* it (the "switchport access vlan"
            # semantics every vendor implements).
            for other_vid in current_untagged:
                if other_vid == vlan_id:
                    continue
                moved = current_untagged[other_vid] & set(untagged)
                current_untagged[other_vid] -= moved
                current_egress[other_vid] -= moved
            current_untagged[vlan_id] = set(untagged)
            current_egress[vlan_id] |= set(untagged)

        config = self.switch.config.copy()
        affected = set()
        for vid in current_egress:
            affected |= current_egress[vid] | current_untagged[vid]
        affected |= set(config.ports)

        for number in sorted(affected):
            if number not in self.switch.ports:
                raise ValueError(f"switch has no port {number}")
            tagged_memberships = {
                vid
                for vid in current_egress
                if number in current_egress[vid] and number not in current_untagged[vid]
            }
            untagged_memberships = {
                vid for vid in current_untagged if number in current_untagged[vid]
            }
            if len(untagged_memberships) > 1:
                raise ValueError(
                    f"port {number} untagged in multiple VLANs: "
                    f"{sorted(untagged_memberships)}"
                )
            if tagged_memberships:
                native = next(iter(untagged_memberships), None)
                config.set_trunk(number, tagged_memberships, native_vlan=native)
            elif untagged_memberships:
                config.set_access(number, next(iter(untagged_memberships)))
            else:
                # Removed from every VLAN: fall back to the default VLAN,
                # which is what clearing switchport config does.
                config.set_access(number, 1)
        self.switch.apply_config(config)


def attach_bridge_mib(switch: LegacySwitch) -> "tuple[MibTree, BridgeMibAdapter]":
    """Build a MIB tree for *switch* and return (tree, adapter)."""
    mib = MibTree()
    adapter = BridgeMibAdapter(switch, mib)
    return mib, adapter
