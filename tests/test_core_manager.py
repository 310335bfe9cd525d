"""End-to-end tests of the HARMLESS Manager: the paper's workflow."""

from collections import Counter

import pytest

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.core import HarmlessError, HarmlessManager, HarmlessS4
from repro.core.verify import ZERO_COST
from repro.fabric import leaf_spine_fabric
from repro.legacy import LegacySwitch, PortMode
from repro.mgmt import DeviceConnection, get_network_driver
from repro.net import IPv4Address, MACAddress
from repro.netsim import Capture, Host, Link, Simulator
from repro.snmp import PduType, SnmpAgent, attach_bridge_mib
from repro.snmp.bridge_mib import IF_TABLE_ENTRY


def build_site(vendor="sim-ios", num_ports=8, num_hosts=3):
    """A legacy switch with hosts on ports 1..N and a free trunk port."""
    sim = Simulator()
    legacy = LegacySwitch(sim, "edge1", num_ports=num_ports, processing_delay_s=0.0)
    hosts = []
    for index in range(num_hosts):
        host = Host(
            sim,
            f"h{index + 1}",
            MACAddress(0x020000000001 + index),
            IPv4Address(f"10.0.0.{index + 1}"),
        )
        Link(host.port0, legacy.port(index + 1))
        hosts.append(host)
    mib, _ = attach_bridge_mib(legacy)
    driver = get_network_driver(vendor)(
        DeviceConnection(agent=SnmpAgent(mib), hostname="edge1")
    )
    driver.open()
    controller = Controller(sim)
    controller.add_app(LearningSwitchApp())
    manager = HarmlessManager(sim, controller=controller, cost_model=ZERO_COST)
    return sim, legacy, hosts, driver, controller, manager


class TestMigrationWorkflow:
    def test_migrate_configures_legacy_switch(self):
        sim, legacy, hosts, driver, _, manager = build_site()
        deployment = manager.migrate(legacy, driver, trunk_port=8)
        # Access ports tagged per the map.
        for port, vlan in deployment.port_map:
            config = legacy.config.port(port)
            assert config.mode is PortMode.ACCESS
            assert config.pvid == vlan
        # Trunk carries all the mapped VLANs.
        trunk = legacy.config.port(8)
        assert trunk.mode is PortMode.TRUNK
        assert trunk.allowed_vlans == set(deployment.port_map.vlans)

    def test_migrate_defaults_to_wired_ports(self):
        sim, legacy, hosts, driver, _, manager = build_site(num_hosts=3)
        deployment = manager.migrate(legacy, driver, trunk_port=8)
        assert deployment.port_map.ports == [1, 2, 3]

    def test_verify_deployment_clean(self):
        sim, legacy, _, driver, _, manager = build_site()
        deployment = manager.migrate(legacy, driver, trunk_port=8)
        assert manager.verify_deployment(deployment) == []

    def test_end_to_end_ping_through_harmless(self):
        """The headline demo: hosts talk through legacy+S4 under OF control."""
        sim, legacy, (h1, h2, h3), driver, _, manager = build_site()
        manager.migrate(legacy, driver, trunk_port=8)
        sim.run(until=0.05)  # handshake
        h1.ping(h2.ip)
        sim.run(until=1.0)
        assert len(h1.rtts()) == 1

    def test_traffic_is_tagged_on_trunk(self):
        sim, legacy, (h1, h2, _), driver, _, manager = build_site()
        deployment = manager.migrate(legacy, driver, trunk_port=8)
        capture = Capture("trunk").attach(legacy.port(8))
        sim.run(until=0.05)
        h1.ping(h2.ip)
        sim.run(until=1.0)
        tagged = [e for e in capture if e.frame.vlan is not None]
        assert tagged, "no tagged frames on the trunk"
        vlans_seen = {e.frame.vlan_id for e in tagged}
        assert vlans_seen <= set(deployment.port_map.vlans)

    def test_hosts_never_see_tags(self):
        sim, legacy, (h1, h2, _), driver, _, manager = build_site()
        manager.migrate(legacy, driver, trunk_port=8)
        capture = Capture("h2side").attach(h2.port0)
        sim.run(until=0.05)
        h1.ping(h2.ip)
        sim.run(until=1.0)
        assert all(entry.frame.vlan is None for entry in capture)

    def test_vlan_allocation_avoids_existing(self):
        sim, legacy, _, driver, _, manager = build_site()
        config = legacy.config.copy()
        config.declare_vlan(101)
        config.declare_vlan(102)
        legacy.apply_config(config)
        deployment = manager.migrate(legacy, driver, trunk_port=8)
        assert 101 not in deployment.port_map.vlans
        assert 102 not in deployment.port_map.vlans

    def test_teardown_restores_config(self):
        sim, legacy, _, driver, _, manager = build_site()
        deployment = manager.migrate(legacy, driver, trunk_port=8)
        deployment.teardown()
        assert legacy.config.port(1).pvid == 1
        assert legacy.config.port(8).mode is PortMode.ACCESS
        assert not deployment.active

    def test_describe_and_log(self):
        sim, legacy, _, driver, _, manager = build_site()
        deployment = manager.migrate(legacy, driver, trunk_port=8)
        assert "edge1" in deployment.describe()
        assert any("S4 instantiated" in line for line in deployment.log)
        assert "switchport mode trunk" in deployment.vendor_config


class TestMigrationErrors:
    def test_bad_trunk_port(self):
        sim, legacy, _, driver, _, manager = build_site()
        with pytest.raises(HarmlessError, match="trunk port 99"):
            manager.migrate(legacy, driver, trunk_port=99)

    def test_trunk_in_access_list(self):
        sim, legacy, _, driver, _, manager = build_site()
        with pytest.raises(HarmlessError, match="cannot also be"):
            manager.migrate(legacy, driver, trunk_port=8, access_ports=[1, 8])

    def test_no_access_ports(self):
        sim, legacy, _, driver, _, manager = build_site(num_hosts=0)
        with pytest.raises(HarmlessError, match="no access ports"):
            manager.migrate(legacy, driver, trunk_port=8)


class TestBringUpFailures:
    """Every failed bring-up rolls the legacy switch back; only the
    failures it expects (SNMP, config session, wiring) are reported as
    a HarmlessError, a bug surfaces as itself."""

    def test_bug_in_install_translator_surfaces_after_rollback(self, monkeypatch):
        sim, legacy, (h1, h2, _), driver, _, manager = build_site()
        before = legacy.config.copy()

        def buggy(self, port_map):
            raise TypeError("translator bug")

        with monkeypatch.context() as patch:
            patch.setattr(HarmlessS4, "install_translator", buggy)
            with pytest.raises(TypeError, match="translator bug"):
                manager.migrate(legacy, driver, trunk_port=8)
        assert legacy.config == before
        assert legacy.port(8).link is None  # the trunk was unwired too
        assert manager.deployments == []
        manager.migrate(legacy, driver, trunk_port=8)  # the retry goes through
        sim.run(until=0.05)
        h1.ping(h2.ip)
        sim.run(until=1.0)
        assert len(h1.rtts()) == 1


class TestMultiVendor:
    @pytest.mark.parametrize("vendor", ["sim-ios", "sim-eos", "sim-procurve"])
    def test_migration_works_on_every_vendor(self, vendor):
        sim, legacy, (h1, h2, _), driver, _, manager = build_site(vendor=vendor)
        manager.migrate(legacy, driver, trunk_port=8)
        sim.run(until=0.05)
        h1.ping(h2.ip)
        sim.run(until=1.0)
        assert len(h1.rtts()) == 1


class TestMultiSwitch:
    def test_two_legacy_switches_one_manager(self):
        sim = Simulator()
        controller = Controller(sim)
        controller.add_app(LearningSwitchApp())
        manager = HarmlessManager(sim, controller=controller, cost_model=ZERO_COST)
        pairs = []
        for site in range(2):
            legacy = LegacySwitch(
                sim, f"edge{site}", num_ports=4, processing_delay_s=0.0
            )
            a = Host(
                sim,
                f"a{site}",
                MACAddress(0x02AA000000 + site),
                IPv4Address(f"10.{site}.0.1"),
            )
            b = Host(
                sim,
                f"b{site}",
                MACAddress(0x02BB000000 + site),
                IPv4Address(f"10.{site}.0.2"),
            )
            Link(a.port0, legacy.port(1))
            Link(b.port0, legacy.port(2))
            mib, _ = attach_bridge_mib(legacy)
            driver = get_network_driver("sim-ios")(
                DeviceConnection(agent=SnmpAgent(mib), hostname=f"edge{site}")
            )
            driver.open()
            manager.migrate(legacy, driver, trunk_port=4, access_ports=[1, 2])
            pairs.append((a, b))
        sim.run(until=0.05)
        for a, b in pairs:
            a.ping(b.ip)
        sim.run(until=1.0)
        for a, _ in pairs:
            assert len(a.rtts()) == 1
        assert len(manager.deployments) == 2
        dpids = {d.s4.ss2.datapath_id for d in manager.deployments}
        assert len(dpids) == 2


class TestManagementPlaneBudget:
    """What one ``migrate`` sends the legacy switch, pinned: the SET
    PDUs (their order fixes the order of the switch's FDB flushes) and
    the PDU count (a rollout must not go back to walking every table
    for every cell it needs)."""

    @staticmethod
    def migrate_recorded(legacy, driver, trunk_port, access_ports):
        """Migrate, returning the request PDUs the agent was sent."""
        agent = driver.connection.agent
        requests = []

        def recording(request, handle=agent.handle):
            requests.append(request)
            return handle(request)

        agent.handle = recording
        served = agent.requests_served
        HarmlessManager(legacy.sim).migrate(
            legacy, driver, trunk_port=trunk_port, access_ports=access_ports
        )
        assert agent.requests_served - served == len(requests)
        return requests

    @staticmethod
    def if_table_walks(requests, num_ports):
        """Whole-table ifTable walks among *requests* (and nothing else
        may have read inside ifTable)."""
        inside = [
            request.varbinds[0].oid
            for request in requests
            if IF_TABLE_ENTRY.is_prefix_of(request.varbinds[0].oid)
        ]
        assert len(inside) == inside.count(IF_TABLE_ENTRY) * (6 * num_ports + 1)
        return inside.count(IF_TABLE_ENTRY)

    def test_fig1_site_set_sequence_and_pdu_count(self):
        # The paper's Fig. 1 site: two hosts, trunk on port 5.
        sim, legacy, _, driver, _, _ = build_site(num_ports=5, num_hosts=2)
        requests = self.migrate_recorded(legacy, driver, 5, [1, 2])
        row = "1.3.6.1.2.1.17.7.1.4.3.1"  # dot1qVlanStaticEntry
        sets = [
            [(str(bind.oid), bind.value) for bind in request.varbinds]
            for request in requests
            if request.pdu_type is PduType.SET
        ]
        assert sets == [
            [(f"{row}.5.101", 4)],  # RowStatus createAndGo
            [(f"{row}.1.101", "harmless-p1")],
            [(f"{row}.5.102", 4)],
            [(f"{row}.1.102", "harmless-p2")],
            [(f"{row}.2.101", b"\x08")],  # trunk: egress, then untagged
            [(f"{row}.4.101", b"\x00")],
            [(f"{row}.2.102", b"\x08")],
            [(f"{row}.4.102", b"\x00")],
            [(f"{row}.4.101", b"\x80")],  # access ports
            [(f"{row}.4.102", b"\x40")],
        ]
        kinds = Counter(request.pdu_type for request in requests)
        # One ifTable walk (31) and two dot1qVlanStaticTable walks of
        # the one default VLAN (5 each); ifNumber and a cell per SET
        # that merges into a PortList.
        assert kinds == {PduType.GETNEXT: 41, PduType.GET: 7, PduType.SET: 10}
        assert self.if_table_walks(requests, num_ports=5) == 1

    def test_spine_of_the_migration_wave_fabric_pdu_count(self):
        fabric = leaf_spine_fabric(edges=8, spines=1, hosts_per_edge=2)
        spine = fabric.site("spine1")
        assert len(spine.access_ports) == 8
        requests = self.migrate_recorded(
            spine.switch, spine.driver, spine.trunk_port, spine.access_ports
        )
        kinds = Counter(request.pdu_type for request in requests)
        assert kinds == {PduType.GETNEXT: 65, PduType.GET: 25, PduType.SET: 40}
        assert self.if_table_walks(requests, num_ports=9) == 1
