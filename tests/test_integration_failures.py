"""Failure injection and cross-module integration tests.

These exercise the unhappy paths a production deployment hits: trunk
link failure mid-traffic, translator recovery, FDB pressure on the
legacy switch under the HARMLESS VLAN scheme, and management-plane
faults surfacing as clean errors rather than silent misconfiguration.
"""

import pytest

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.core import HarmlessError, HarmlessManager, PortVlanMap
from repro.core.s4 import HarmlessS4
from repro.core.verify import make_hosts
from repro.legacy import LegacySwitch
from repro.mgmt import DeviceConnection, DriverError, get_network_driver
from repro.net import IPv4Address, MACAddress
from repro.netsim import Host, Link, Simulator
from repro.snmp import SnmpAgent, attach_bridge_mib
from repro.softswitch import DatapathCostModel

ZERO_COST = DatapathCostModel.zero()


def build_site(num_hosts=3, vendor="sim-ios"):
    sim = Simulator()
    legacy = LegacySwitch(sim, "edge", num_ports=num_hosts + 1, processing_delay_s=0.0)
    hosts = make_hosts(sim, num_hosts)
    for index, host in enumerate(hosts):
        Link(host.port0, legacy.port(index + 1))
    mib, _ = attach_bridge_mib(legacy)
    driver = get_network_driver(vendor)(
        DeviceConnection(agent=SnmpAgent(mib), hostname="edge")
    )
    driver.open()
    controller = Controller(sim)
    controller.add_app(LearningSwitchApp())
    manager = HarmlessManager(sim, controller=controller, cost_model=ZERO_COST)
    return sim, legacy, hosts, driver, manager


class TestTrunkFailure:
    def test_trunk_down_stops_everything(self):
        """With HARMLESS, the trunk is the artery: cut it, island dies."""
        sim, legacy, (h1, h2, _), driver, manager = build_site()
        manager.migrate(legacy, driver, trunk_port=4)
        sim.run(until=0.05)
        h1.ping(h2.ip)
        sim.run(until=1.0)
        assert len(h1.rtts()) == 1
        legacy.port(4).up = False  # trunk link failure
        h1.ping(h2.ip)
        sim.run(until=3.0)
        assert len(h1.rtts()) == 1  # second ping lost

    def test_trunk_recovery_restores_service(self):
        sim, legacy, (h1, h2, _), driver, manager = build_site()
        manager.migrate(legacy, driver, trunk_port=4)
        sim.run(until=0.05)
        legacy.port(4).up = False
        h1.ping(h2.ip)
        sim.run(until=2.0)
        legacy.port(4).up = True
        h1.ping(h2.ip)
        sim.run(until=4.0)
        assert len(h1.rtts()) == 1

    def test_teardown_returns_island_to_legacy_operation(self):
        """After teardown hosts talk again *without* the S4 (plain L2)."""
        sim, legacy, (h1, h2, _), driver, manager = build_site()
        deployment = manager.migrate(legacy, driver, trunk_port=4)
        sim.run(until=0.05)
        deployment.teardown()
        h1.ping(h2.ip)
        sim.run(until=1.0)
        assert len(h1.rtts()) == 1  # direct legacy switching, no OF


class TestAccessPortFailure:
    def test_single_port_down_isolates_one_host_only(self):
        sim, legacy, (h1, h2, h3), driver, manager = build_site()
        manager.migrate(legacy, driver, trunk_port=4)
        sim.run(until=0.05)
        legacy.link_down(2)
        h1.ping(h2.ip)  # victim unreachable
        h1.ping(h3.ip)  # bystander fine
        sim.run(until=3.0)
        assert len(h1.rtts()) == 1
        assert h1.ping_results[0].lost
        assert not h1.ping_results[1].lost


class TestManagementFaults:
    def test_wrong_community_fails_cleanly(self):
        sim = Simulator()
        legacy = LegacySwitch(sim, "edge", num_ports=4)
        mib, _ = attach_bridge_mib(legacy)
        agent = SnmpAgent(mib, read_community="r", write_community="w")
        driver = get_network_driver("sim-ios")(
            DeviceConnection(agent=agent, write_community="guess")
        )
        with pytest.raises(DriverError):
            driver.open()

    def test_failed_migration_rolls_back_device(self):
        """If S4 setup fails the legacy switch config must be restored."""
        sim, legacy, hosts, driver, manager = build_site()
        # Sabotage: pre-wire the trunk port so Link() creation fails.
        blocker = Host(sim, "blocker", MACAddress(0x02FF), IPv4Address("10.9.9.9"))
        Link(blocker.port0, legacy.port(4))
        with pytest.raises(HarmlessError, match="rolled back"):
            manager.migrate(legacy, driver, trunk_port=4)
        # Device configuration is back to defaults.
        assert legacy.config.port(1).pvid == 1
        assert all(vlan < 100 for vlan in legacy.config.vlans)

    def test_migrating_port_map_mismatch_rejected(self):
        sim = Simulator()
        s4 = HarmlessS4(sim, "s4", access_ports=[1, 2], datapath_id=5)
        with pytest.raises(ValueError, match="S4 manages"):
            s4.install_translator(PortVlanMap({1: 101, 3: 103}))


class TestFdbPressure:
    def test_legacy_fdb_overflow_floods_but_harmless_still_works(self):
        """Tiny FDB: evictions cause floods, but delivery still succeeds."""
        sim = Simulator()
        legacy = LegacySwitch(sim, "edge", num_ports=4, fdb_capacity=2,
                              processing_delay_s=0.0)
        hosts = []
        for index in range(3):
            host = Host(
                sim,
                f"h{index + 1}",
                MACAddress(0x02AA00000001 + index),
                IPv4Address(f"10.0.0.{index + 1}"),
            )
            Link(host.port0, legacy.port(index + 1))
            hosts.append(host)
        mib, _ = attach_bridge_mib(legacy)
        driver = get_network_driver("sim-ios")(
            DeviceConnection(agent=SnmpAgent(mib), hostname="edge")
        )
        driver.open()
        controller = Controller(sim)
        controller.add_app(LearningSwitchApp())
        manager = HarmlessManager(sim, controller=controller, cost_model=ZERO_COST)
        manager.migrate(legacy, driver, trunk_port=4)
        sim.run(until=0.05)
        hosts[0].ping(hosts[1].ip)
        hosts[2].ping(hosts[0].ip)
        sim.run(until=2.0)
        assert len(hosts[0].rtts()) == 1
        assert len(hosts[2].rtts()) == 1
        # The tiny CAM really was under pressure.
        assert legacy.fdb.evictions > 0


class TestControllerChurn:
    def test_flows_survive_after_app_installs_and_host_restarts(self):
        sim, legacy, (h1, h2, _), driver, manager = build_site()
        manager.migrate(legacy, driver, trunk_port=4)
        sim.run(until=0.05)
        h1.ping(h2.ip)
        sim.run(until=1.0)
        # "Restart" h2's networking: its ARP cache clears, flows remain.
        h2.arp_table.clear()
        h2.ping(h1.ip)
        sim.run(until=2.5)
        assert len(h2.rtts()) == 1

    def test_snmp_counters_visible_during_harmless_operation(self):
        """Operators keep their SNMP monitoring after migration."""
        sim, legacy, (h1, h2, _), driver, manager = build_site()
        manager.migrate(legacy, driver, trunk_port=4)
        sim.run(until=0.05)
        h1.ping(h2.ip)
        sim.run(until=1.0)
        interfaces = driver.get_interfaces()
        trunk_name = driver.interface_name(4)
        assert interfaces[trunk_name]["tx_octets"] > 0
        assert interfaces[trunk_name]["rx_octets"] > 0
        table = driver.get_mac_address_table()
        assert len(table) >= 2  # both hosts learned, visible over SNMP
