"""Tests for the BRIDGE/Q-BRIDGE MIB adapter over the legacy switch."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.legacy import LegacySwitch, PortMode
from repro.net import IPv4Address, MACAddress
from repro.netsim import Host, Link, Simulator
from repro.snmp import (
    OID,
    MibTable,
    PduType,
    SnmpAgent,
    SnmpClient,
    SnmpError,
    SnmpErrorStatus,
    SnmpPdu,
    attach_bridge_mib,
)
from repro.snmp.bridge_mib import (
    DOT1Q_PORT_VLAN_ENTRY,
    DOT1Q_VLAN_STATIC_ENTRY,
    IF_ADMIN,
    IF_TABLE_ENTRY,
    ROW_CREATE_AND_GO,
    ROW_DESTROY,
    SYS_NAME_OID,
    VLAN_EGRESS,
    VLAN_NAME,
    VLAN_ROW_STATUS,
    VLAN_UNTAGGED,
    portlist_from_bytes,
    portlist_to_bytes,
)
from repro.snmp.oid import SYS_NAME


def build(num_ports=8):
    sim = Simulator()
    switch = LegacySwitch(sim, "sw1", num_ports=num_ports, processing_delay_s=0.0)
    mib, adapter = attach_bridge_mib(switch)
    agent = SnmpAgent(mib, read_community="public", write_community="private")
    client = SnmpClient(agent, community="private")
    return sim, switch, client


class TestPortList:
    def test_port1_is_high_bit(self):
        assert portlist_to_bytes({1}, 8) == b"\x80"

    def test_port8_is_low_bit(self):
        assert portlist_to_bytes({8}, 8) == b"\x01"

    def test_port9_starts_second_octet(self):
        assert portlist_to_bytes({9}, 16) == b"\x00\x80"

    def test_round_trip(self):
        ports = {1, 3, 8, 9, 24}
        assert portlist_from_bytes(portlist_to_bytes(ports, 24)) == ports

    def test_out_of_width_rejected(self):
        with pytest.raises(ValueError):
            portlist_to_bytes({9}, 8)

    def test_empty(self):
        assert portlist_from_bytes(portlist_to_bytes(set(), 8)) == set()


class TestSystemGroup:
    def test_sysname_read_write(self):
        _, switch, client = build()
        assert client.get("1.3.6.1.2.1.1.5.0") == "sw1"
        client.set("1.3.6.1.2.1.1.5.0", "renamed")
        assert switch.config.hostname == "renamed"

    def test_sysdescr_mentions_ports(self):
        _, _, client = build(num_ports=12)
        assert "12 ports" in client.get("1.3.6.1.2.1.1.1.0")


class TestIfTable:
    def test_walk_lists_every_port(self):
        _, _, client = build(num_ports=4)
        rows = client.table_rows(IF_TABLE_ENTRY)
        if_indices = [suffix[1] for suffix in rows if suffix[0] == 1]
        assert if_indices == [1, 2, 3, 4]

    def test_oper_status_reflects_wiring(self):
        sim, switch, client = build(num_ports=2)
        host = Host(sim, "h", MACAddress(0x02AA), IPv4Address("10.0.0.1"))
        Link(host.port0, switch.port(1))
        rows = client.table_rows(IF_TABLE_ENTRY)
        assert rows[(8, 1)] == 1  # wired -> up
        assert rows[(8, 2)] == 2  # dangling -> down

    def test_admin_down_via_set(self):
        _, switch, client = build()
        client.set(IF_TABLE_ENTRY.child(7, 3), 2)
        assert not switch.config.port(3).enabled
        client.set(IF_TABLE_ENTRY.child(7, 3), 1)
        assert switch.config.port(3).enabled

    def test_octet_counters_grow(self):
        sim, switch, client = build(num_ports=2)
        h1 = Host(sim, "h1", MACAddress(0x02AA), IPv4Address("10.0.0.1"))
        h2 = Host(sim, "h2", MACAddress(0x02BB), IPv4Address("10.0.0.2"))
        Link(h1.port0, switch.port(1))
        Link(h2.port0, switch.port(2))
        h1.ping(h2.ip)
        sim.run(until=0.5)
        rows = client.table_rows(IF_TABLE_ENTRY)
        assert rows[(10, 1)] > 0  # ifInOctets port 1
        assert rows[(16, 2)] > 0  # ifOutOctets port 2


class TestFdbTable:
    def test_learned_entries_visible(self):
        sim, switch, client = build(num_ports=2)
        h1 = Host(sim, "h1", MACAddress(0x02AA), IPv4Address("10.0.0.1"))
        h2 = Host(sim, "h2", MACAddress(0x02BB), IPv4Address("10.0.0.2"))
        Link(h1.port0, switch.port(1))
        Link(h2.port0, switch.port(2))
        h1.ping(h2.ip)
        sim.run(until=0.5)
        rows = client.table_rows("1.3.6.1.2.1.17.7.1.2.2.1")
        port_rows = {
            suffix: value for suffix, value in rows.items() if suffix[0] == 2
        }
        learned_macs = {bytes(suffix[2:8]) for suffix in port_rows}
        assert h1.mac.packed in learned_macs
        assert h2.mac.packed in learned_macs

    def test_a_station_that_aged_out_between_two_walks_is_gone(self):
        """Nothing sweeps the FDB — entries die when looked up — so the
        walk itself leaves aged-out stations out, without touching them."""
        sim, switch, client = build(num_ports=2)
        quiet, chatty, pinned = MACAddress(0x02AA), MACAddress(0x02BB), MACAddress(0x02CC)
        switch.fdb.learn(1, quiet, 1, now=0.0)
        switch.fdb.learn(1, chatty, 2, now=0.0)
        switch.fdb.add_static(1, pinned, 2)

        def walked():
            rows = client.table_rows("1.3.6.1.2.1.17.7.1.2.2.1")
            return {bytes(suffix[2:8]): value for suffix, value in rows.items() if suffix[0] == 2}

        sim.run(until=switch.fdb.aging_s)  # age == aging_s is still alive
        assert walked() == {quiet.packed: 1, chatty.packed: 2, pinned.packed: 2}
        switch.fdb.learn(1, chatty, 2, now=sim.now)  # heard from again
        sim.run(until=switch.fdb.aging_s + 1.0)
        before = [(e.mac, e.learned_at) for e in switch.fdb.entries()], switch.fdb.generation
        assert walked() == {chatty.packed: 2, pinned.packed: 2}
        # Read-only: the dead entry is still simulation state.
        assert ([(e.mac, e.learned_at) for e in switch.fdb.entries()], switch.fdb.generation) == before
        assert len(switch.fdb) == 3


class TestVlanConfigViaSnmp:
    def test_create_vlan(self):
        _, switch, client = build()
        client.set(DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, 101), ROW_CREATE_AND_GO)
        assert 101 in switch.config.vlans

    def test_destroy_vlan(self):
        _, switch, client = build()
        client.set(DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, 101), ROW_CREATE_AND_GO)
        client.set(DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, 101), ROW_DESTROY)
        assert 101 not in switch.config.vlans

    def test_make_access_port_via_membership(self):
        """Setting egress+untagged for a port makes it an access port."""
        _, switch, client = build(num_ports=8)
        client.set(DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, 101), ROW_CREATE_AND_GO)
        client.set(
            DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_UNTAGGED, 101),
            portlist_to_bytes({3}, 8),
        )
        port = switch.config.port(3)
        assert port.mode is PortMode.ACCESS
        assert port.pvid == 101

    def test_make_trunk_port_via_membership(self):
        """Tagged (egress-not-untagged) membership makes a trunk."""
        _, switch, client = build(num_ports=8)
        for vlan in (101, 102):
            client.set(
                DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, vlan), ROW_CREATE_AND_GO
            )
            client.set(
                DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_EGRESS, vlan),
                portlist_to_bytes({8}, 8),
            )
        port = switch.config.port(8)
        assert port.mode is PortMode.TRUNK
        assert port.allowed_vlans == {101, 102}

    def test_pvid_read(self):
        _, switch, client = build()
        config = switch.config.copy()
        config.set_access(2, 77)
        switch.apply_config(config)
        rows = client.table_rows(DOT1Q_PORT_VLAN_ENTRY)
        assert rows[(1, 2)] == 77

    def test_pvid_write(self):
        _, switch, client = build()
        client.set(DOT1Q_PORT_VLAN_ENTRY.child(1, 4), 55)
        assert switch.config.port(4).pvid == 55
        assert 55 in switch.config.vlans

    def test_untagged_membership_moves_port(self):
        """Untagged membership in a new VLAN moves the port (access semantics)."""
        _, switch, client = build(num_ports=8)
        client.set(DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, 101), ROW_CREATE_AND_GO)
        client.set(
            DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_UNTAGGED, 101),
            portlist_to_bytes({3}, 8),
        )
        client.set(DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, 102), ROW_CREATE_AND_GO)
        client.set(
            DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_UNTAGGED, 102),
            portlist_to_bytes({3}, 8),
        )
        port = switch.config.port(3)
        assert port.mode is PortMode.ACCESS
        assert port.pvid == 102
        assert 3 not in switch.config.ports_in_vlan(101)

    def test_traffic_respects_snmp_pushed_vlans(self):
        """End to end: configure isolation via SNMP, verify in data plane."""
        sim, switch, client = build(num_ports=8)
        h1 = Host(sim, "h1", MACAddress(0x02AA), IPv4Address("10.0.0.1"))
        h2 = Host(sim, "h2", MACAddress(0x02BB), IPv4Address("10.0.0.2"))
        Link(h1.port0, switch.port(1))
        Link(h2.port0, switch.port(2))
        client.set(DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, 101), ROW_CREATE_AND_GO)
        client.set(DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, 102), ROW_CREATE_AND_GO)
        client.set(
            DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_UNTAGGED, 101),
            portlist_to_bytes({1}, 8),
        )
        client.set(
            DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_UNTAGGED, 102),
            portlist_to_bytes({2}, 8),
        )
        h1.ping(h2.ip)
        sim.run(until=2.0)
        assert h1.ping_loss_rate == 1.0  # isolated by SNMP-pushed VLANs


def mounted_tables(switch):
    """(mib, its tables in mount order) for *switch*."""
    mib, _ = attach_bridge_mib(switch)
    return mib, [node for node in mib._nodes if isinstance(node, MibTable)]


class TestRowsContract:
    """``rows()`` yields strictly increasing suffixes — what lets
    ``MibTable.get``/``successor`` stop at the first hit."""

    @given(
        num_ports=st.integers(1, 12),
        vlans=st.lists(st.integers(2, 4094), unique=True, max_size=5),
        data=st.data(),
    )
    def test_every_table_is_strictly_increasing(self, num_ports, vlans, data):
        switch = LegacySwitch(Simulator(), "sw1", num_ports=num_ports)
        config = switch.config.copy()
        for vlan in vlans:
            config.declare_vlan(vlan, name=f"v{vlan}")
        known = st.sampled_from([1] + vlans)
        for port in range(1, num_ports + 1):
            if data.draw(st.booleans()):
                config.set_access(port, data.draw(known))
            else:
                config.set_trunk(
                    port,
                    data.draw(st.sets(known)),
                    native_vlan=data.draw(st.none() | known),
                )
            config.port(port).enabled = data.draw(st.booleans())
        switch.apply_config(config)
        stations = data.draw(
            st.lists(
                st.tuples(known, st.integers(1, 2**48 - 1), st.integers(1, num_ports)),
                max_size=12,
            )
        )
        for index, (vlan, mac, port) in enumerate(stations):
            if index % 3:
                switch.fdb.learn(vlan, MACAddress(mac), port, now=0.0)
            else:
                switch.fdb.add_static(vlan, MACAddress(mac), port)
        for table in mounted_tables(switch)[1]:
            suffixes = [suffix for suffix, _ in table._rows()]
            assert all(a < b for a, b in zip(suffixes, suffixes[1:])), table.base


class TestWalkEnumerationBudget:
    """The CI gate that needs no clock: a walk's cost, counted as table
    enumerations.  One GETNEXT enumerates the one table its cursor is
    in (and the next one once, to step off the end) — never the whole
    MIB, which is what made a rollout quadratic."""

    def test_walk_enumerates_only_the_walked_table(self):
        switch = LegacySwitch(Simulator(), "sw1", num_ports=6)
        switch.fdb.add_static(1, MACAddress(0x02AA), 3)  # no table is empty
        mib, tables = mounted_tables(switch)
        calls = Counter()
        for table in tables:
            def counted(rows=table._rows, base=table.base):
                calls[base] += 1
                return rows()
            table._rows = counted
        client = SnmpClient(SnmpAgent(mib))
        for table, following in zip(tables, tables[1:] + [None]):
            calls.clear()
            cells = len(client.walk(table.base))
            assert cells >= 2
            assert calls.pop(table.base) <= cells + 1
            if following is not None:
                # Stepping off the end lands on the next table's first row.
                assert calls.pop(following.base) == 1
            assert not calls, f"walk of {table.base} also enumerated {calls}"


# Every writable column: a missing index, the index of a row that exists
# (8 ports; VLAN 10 holds port 3 untagged), a value of the column's
# syntax, and one of the wrong syntax — a string that parses as a number
# for an INTEGER column, an int for a string or a PortList.
PORTS_4 = portlist_to_bytes({4}, 8)
WRITABLE = {
    "sysName": (SYS_NAME_OID.child(1), SYS_NAME, "x", 7),
    "ifAdminStatus": (
        IF_TABLE_ENTRY.child(IF_ADMIN, 99), IF_TABLE_ENTRY.child(IF_ADMIN, 2), 2, "2"
    ),
    "dot1qPvid": (
        DOT1Q_PORT_VLAN_ENTRY.child(1, 99), DOT1Q_PORT_VLAN_ENTRY.child(1, 2), 5, "5"
    ),
    "dot1qVlanStaticName": (
        DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_NAME, 99),
        DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_NAME, 10),
        "n",
        7,
    ),
    "dot1qVlanStaticEgressPorts": (
        DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_EGRESS, 99),
        DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_EGRESS, 10),
        PORTS_4,
        1,
    ),
    "dot1qVlanStaticUntaggedPorts": (
        DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_UNTAGGED, 99),
        DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_UNTAGGED, 10),
        PORTS_4,
        1,
    ),
    "dot1qVlanStaticRowStatus": (
        DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, 5000),
        DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, 20),
        ROW_CREATE_AND_GO,
        str(ROW_CREATE_AND_GO),
    ),
}

BAD_SETS = [
    pytest.param(oid, value, id=f"{column}-{case}")
    for column, (missing, existing, good, wrong) in WRITABLE.items()
    for case, oid, value in (
        ("missing-index", missing, good),
        ("none", existing, None),
        ("wrong-type", existing, wrong),
    )
]


def build_with_vlan():
    sim, switch, client = build(num_ports=8)
    client.set(DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_ROW_STATUS, 10), ROW_CREATE_AND_GO)
    client.set(DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_UNTAGGED, 10), portlist_to_bytes({3}, 8))
    return sim, switch, client


def device_state(switch):
    return switch.config.copy(), {n: port.up for n, port in switch.ports.items()}


class TestSetNeverRaises:
    """A SET the device cannot honour is answered, never raised, and
    leaves the running config as it was."""

    def test_table_covers_every_writable_node(self):
        _, _, client = build_with_vlan()
        mib = client.agent.mib
        writable, cursor = set(), OID("1.3")
        while (step := mib.successor(cursor)) is not None:
            cursor = step[0]
            node = mib.locate(cursor)
            if node is not None and node.writable:
                writable.add(node.base)
        assert writable == {mib.locate(row[1]).base for row in WRITABLE.values()}

    @pytest.mark.parametrize("oid, value", BAD_SETS)
    def test_bad_set_is_refused_without_effect(self, oid, value):
        _, switch, client = build_with_vlan()
        before = device_state(switch)
        request = SnmpPdu(pdu_type=PduType.SET, request_id=1, community="private")
        response = client.agent.handle(request.bind(oid, value))
        # A scalar has one instance: any other index is no such name.
        expected = (
            SnmpErrorStatus.NO_SUCH_NAME if oid == SYS_NAME_OID.child(1)
            else SnmpErrorStatus.BAD_VALUE
        )
        assert (response.error_status, response.error_index) == (expected, 1)
        assert device_state(switch) == before

    def test_pvid_of_a_missing_port_adds_no_port(self):
        _, switch, client = build_with_vlan()
        with pytest.raises(SnmpError) as excinfo:
            client.set(DOT1Q_PORT_VLAN_ENTRY.child(1, 99), 5)
        assert excinfo.value.status is SnmpErrorStatus.BAD_VALUE
        assert 99 not in switch.config.ports


class TestMultiVarbindSetIsAtomic:
    def test_a_refused_binding_undoes_the_applied_ones(self):
        _, switch, client = build_with_vlan()
        before = device_state(switch)
        with pytest.raises(SnmpError) as excinfo:
            client.set_many([
                (SYS_NAME, "renamed"),
                (IF_TABLE_ENTRY.child(IF_ADMIN, 2), 2),
                (DOT1Q_VLAN_STATIC_ENTRY.child(VLAN_UNTAGGED, 10), PORTS_4),
                (DOT1Q_PORT_VLAN_ENTRY.child(1, 2), 5000),
            ])
        assert (excinfo.value.status, excinfo.value.index) == (SnmpErrorStatus.BAD_VALUE, 4)
        assert device_state(switch) == before
        assert client.get_many([SYS_NAME, DOT1Q_PORT_VLAN_ENTRY.child(1, 3)]) == ["sw1", 10]

    def test_an_accepted_pdu_applies_every_binding(self):
        _, switch, client = build_with_vlan()
        client.set_many([(SYS_NAME, "renamed"), (DOT1Q_PORT_VLAN_ENTRY.child(1, 2), 10)])
        assert client.get_many([SYS_NAME, DOT1Q_PORT_VLAN_ENTRY.child(1, 2)]) == ["renamed", 10]
        assert switch.config.port(2).pvid == 10
