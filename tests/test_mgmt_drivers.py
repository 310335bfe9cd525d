"""Tests for the NAPALM-like driver layer over simulated SNMP."""

import pytest

from repro.legacy import LegacySwitch, PortMode
from repro.mgmt import (
    ConfigSessionError,
    DeviceConnection,
    DriverError,
    SimEOSDriver,
    SimIOSDriver,
    SimProCurveDriver,
    get_network_driver,
)
from repro.mgmt.base import ConfigOp
from repro.net import IPv4Address, MACAddress
from repro.netsim import Host, Link, Simulator
from repro.snmp import SnmpAgent, attach_bridge_mib


def build(vendor="sim-ios", num_ports=8):
    sim = Simulator()
    switch = LegacySwitch(sim, "edge1", num_ports=num_ports, processing_delay_s=0.0)
    mib, _ = attach_bridge_mib(switch)
    agent = SnmpAgent(mib)
    connection = DeviceConnection(agent=agent, hostname="edge1")
    driver = get_network_driver(vendor)(connection)
    driver.open()
    return sim, switch, driver


class TestDriverRegistry:
    def test_lookup(self):
        assert get_network_driver("sim-ios") is SimIOSDriver
        assert get_network_driver("sim-eos") is SimEOSDriver
        assert get_network_driver("sim-procurve") is SimProCurveDriver

    def test_unknown_vendor(self):
        with pytest.raises(ValueError, match="unknown vendor"):
            get_network_driver("junos")


class TestConnection:
    def test_open_checks_reachability(self):
        sim, switch, driver = build()
        assert driver.is_alive()

    def test_wrong_community_fails_open(self):
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=4)
        mib, _ = attach_bridge_mib(switch)
        agent = SnmpAgent(mib, read_community="rd", write_community="wr")
        connection = DeviceConnection(agent=agent, write_community="wrong")
        driver = SimIOSDriver(connection)
        with pytest.raises(DriverError):
            driver.open()

    def test_context_manager(self):
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=4)
        mib, _ = attach_bridge_mib(switch)
        connection = DeviceConnection(agent=SnmpAgent(mib))
        with SimIOSDriver(connection) as driver:
            assert driver.is_alive()
        assert not driver.is_alive()

    def test_unopened_driver_raises(self):
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=4)
        mib, _ = attach_bridge_mib(switch)
        driver = SimIOSDriver(DeviceConnection(agent=SnmpAgent(mib)))
        with pytest.raises(DriverError):
            driver.get_facts()


class TestGetters:
    def test_get_facts(self):
        _, _, driver = build()
        facts = driver.get_facts()
        assert facts["hostname"] == "edge1"
        assert facts["vendor"] == "sim-ios"
        assert len(facts["interface_list"]) == 8

    def test_interface_names_per_vendor(self):
        _, _, ios = build("sim-ios")
        assert "GigabitEthernet0/1" in ios.get_interfaces()
        _, _, eos = build("sim-eos")
        assert "Ethernet1" in eos.get_interfaces()
        _, _, hp = build("sim-procurve")
        assert "1" in hp.get_interfaces()

    def test_parse_interface_round_trip(self):
        for vendor in ("sim-ios", "sim-eos", "sim-procurve"):
            _, _, driver = build(vendor)
            for port in (1, 5, 8):
                assert driver.parse_interface(driver.interface_name(port)) == port

    def test_parse_interface_rejects_garbage(self):
        _, _, driver = build("sim-ios")
        with pytest.raises(ConfigSessionError):
            driver.parse_interface("Vlan1")

    def test_get_vlans_reflects_switch(self):
        _, switch, driver = build()
        config = switch.config.copy()
        config.set_access(1, 101)
        config.set_access(2, 101)
        config.set_trunk(8, {101})
        switch.apply_config(config)
        vlans = driver.get_vlans()
        assert vlans[101].untagged == [1, 2]
        assert vlans[101].tagged == [8]

    def test_get_mac_address_table(self):
        sim, switch, driver = build()
        h1 = Host(sim, "h1", MACAddress(0x02AA), IPv4Address("10.0.0.1"))
        h2 = Host(sim, "h2", MACAddress(0x02BB), IPv4Address("10.0.0.2"))
        Link(h1.port0, switch.port(1))
        Link(h2.port0, switch.port(2))
        h1.ping(h2.ip)
        sim.run(until=0.5)
        table = driver.get_mac_address_table()
        macs = {entry["mac"] for entry in table}
        assert str(h1.mac) in macs
        interfaces = {
            entry["interface"] for entry in table if entry["mac"] == str(h1.mac)
        }
        assert interfaces == {"GigabitEthernet0/1"}
        sim.run(until=0.5 + switch.fdb.aging_s + 1.0)  # nobody spoke since
        assert driver.get_mac_address_table() == []


class TestApplyOps:
    def test_access_op(self):
        _, switch, driver = build()
        driver.apply_ops(
            [
                ConfigOp(kind="vlan", vlan_id=101, name="harmless-p1"),
                ConfigOp(kind="access", vlan_id=101, port=1),
            ]
        )
        assert switch.config.port(1).pvid == 101
        assert switch.config.vlans[101].name == "harmless-p1"

    def test_trunk_op(self):
        _, switch, driver = build()
        driver.apply_ops(
            [
                ConfigOp(kind="vlan", vlan_id=101),
                ConfigOp(kind="vlan", vlan_id=102),
                ConfigOp(kind="trunk", port=8, allowed_vlans=(101, 102)),
            ]
        )
        port = switch.config.port(8)
        assert port.mode is PortMode.TRUNK
        assert port.allowed_vlans == {101, 102}

    def test_vlan_removal_op(self):
        _, switch, driver = build()
        driver.apply_ops([ConfigOp(kind="vlan", vlan_id=300)])
        driver.apply_ops([ConfigOp(kind="no-vlan", vlan_id=300)])
        assert 300 not in switch.config.vlans


IOS_CONFIG = """\
vlan 101
 name port1
vlan 102
interface GigabitEthernet0/1
 switchport mode access
 switchport access vlan 101
interface GigabitEthernet0/2
 switchport mode access
 switchport access vlan 102
interface GigabitEthernet0/8
 switchport mode trunk
 switchport trunk allowed vlan 101,102
"""

PROCURVE_CONFIG = """\
vlan 101
   name "port1"
   untagged 1
   tagged 8
   exit
vlan 102
   untagged 2
   tagged 8
   exit
"""


class TestConfigSession:
    def test_ios_candidate_commit(self):
        _, switch, driver = build("sim-ios")
        driver.load_merge_candidate(IOS_CONFIG)
        preview = driver.compare_config()
        assert "switchport access vlan 101" in preview
        driver.commit_config()
        assert switch.config.port(1).pvid == 101
        assert switch.config.port(2).pvid == 102
        assert switch.config.port(8).mode is PortMode.TRUNK
        assert switch.config.port(8).allowed_vlans == {101, 102}

    def test_procurve_candidate_commit(self):
        _, switch, driver = build("sim-procurve")
        driver.load_merge_candidate(PROCURVE_CONFIG)
        driver.commit_config()
        assert switch.config.port(1).pvid == 101
        assert switch.config.port(8).allowed_vlans == {101, 102}
        assert switch.config.vlans[101].name == "port1"

    def test_eos_round_trip_render_parse(self):
        _, _, driver = build("sim-eos")
        ops = [
            ConfigOp(kind="vlan", vlan_id=101, name="x"),
            ConfigOp(kind="access", vlan_id=101, port=3),
            ConfigOp(kind="trunk", port=8, allowed_vlans=(101,), native_vlan=1),
        ]
        text = driver.render_config(ops)
        parsed = driver.parse_config(text)
        kinds = sorted(op.kind for op in parsed)
        assert kinds == ["access", "trunk", "vlan"]
        trunk = next(op for op in parsed if op.kind == "trunk")
        assert trunk.allowed_vlans == (101,)
        assert trunk.native_vlan == 1

    def test_procurve_round_trip_render_parse(self):
        _, _, driver = build("sim-procurve")
        ops = [
            ConfigOp(kind="vlan", vlan_id=101, name="x"),
            ConfigOp(kind="access", vlan_id=101, port=3),
            ConfigOp(kind="trunk", port=8, allowed_vlans=(101,)),
        ]
        parsed = driver.parse_config(driver.render_config(ops))
        assert any(op.kind == "trunk" and op.port == 8 for op in parsed)
        assert any(
            op.kind == "access" and op.port == 3 and op.vlan_id == 101
            for op in parsed
        )

    def test_procurve_port_ranges(self):
        _, switch, driver = build("sim-procurve")
        driver.load_merge_candidate("vlan 200\n   untagged 1-3\n   exit\n")
        driver.commit_config()
        for port in (1, 2, 3):
            assert switch.config.port(port).pvid == 200

    def test_commit_without_candidate_raises(self):
        _, _, driver = build()
        with pytest.raises(ConfigSessionError):
            driver.commit_config()

    def test_discard(self):
        _, switch, driver = build()
        driver.load_merge_candidate(IOS_CONFIG)
        driver.discard_config()
        with pytest.raises(ConfigSessionError):
            driver.commit_config()
        assert switch.config.port(1).pvid == 1  # nothing applied

    def test_parse_error_is_informative(self):
        _, _, driver = build()
        with pytest.raises(ConfigSessionError, match="cannot parse"):
            driver.load_merge_candidate("frobnicate the flux capacitor\n")

    def test_rollback_restores_previous_state(self):
        _, switch, driver = build()
        driver.load_merge_candidate(IOS_CONFIG)
        driver.commit_config()
        assert switch.config.port(1).pvid == 101
        driver.rollback()
        assert switch.config.port(1).pvid == 1
        assert switch.config.port(8).mode is PortMode.ACCESS
        assert 101 not in switch.config.vlans

    def test_rollback_without_commit_raises(self):
        _, _, driver = build()
        with pytest.raises(ConfigSessionError):
            driver.rollback()
