"""Data-plane tests for the legacy switch: learning, flooding, 802.1Q."""

import pytest

from repro.legacy import LegacySwitch, PortMode, RunningConfig
from repro.net import EthernetFrame, IPv4Address, MACAddress
from repro.net.addresses import BROADCAST_MAC as BROADCAST
from repro.net.ethernet import Dot1QTag
from repro.netsim import Host, Link, Simulator
from repro.netsim.node import Node


def build_network(num_hosts=3, num_ports=8, processing_delay_s=0.0):
    """Hosts h1..hN on ports 1..N of one legacy switch."""
    sim = Simulator()
    switch = LegacySwitch(
        sim, "legacy1", num_ports=num_ports, processing_delay_s=processing_delay_s
    )
    hosts = []
    for index in range(num_hosts):
        host = Host(
            sim,
            f"h{index + 1}",
            MACAddress(0x020000000010 + index),
            IPv4Address(f"10.0.0.{index + 1}"),
        )
        Link(host.port0, switch.port(index + 1))
        hosts.append(host)
    return sim, switch, hosts


class TestBasicSwitching:
    def test_ping_through_switch(self):
        sim, switch, (h1, h2, h3) = build_network()
        h1.ping(h2.ip)
        sim.run(until=0.5)
        assert len(h1.rtts()) == 1

    def test_learning_prevents_flooding(self):
        sim, switch, (h1, h2, h3) = build_network()
        h1.ping(h2.ip)
        sim.run(until=0.5)
        h3_rx_after_learning = h3.port0.rx_frames
        h1.ping(h2.ip)
        sim.run(until=1.0)
        # The second ping is fully unicast: h3 sees nothing new.
        assert h3.port0.rx_frames == h3_rx_after_learning

    def test_arp_broadcast_floods_to_all(self):
        sim, switch, (h1, h2, h3) = build_network()
        h1.ping(h2.ip)  # triggers ARP broadcast
        sim.run(until=0.5)
        assert h3.port0.rx_frames >= 1  # saw the ARP request

    def test_fdb_learns_both_hosts(self):
        sim, switch, (h1, h2, _) = build_network()
        h1.ping(h2.ip)
        sim.run(until=0.5)
        assert switch.fdb.lookup(1, h1.mac, sim.now) == 1
        assert switch.fdb.lookup(1, h2.mac, sim.now) == 2

    def test_no_reflection_to_ingress_port(self):
        sim, switch, (h1, h2, h3) = build_network()
        h1.ping(IPv4Address("10.0.0.200"))  # ARP for absent host floods
        sim.run(until=0.5)
        # h1 never gets its own ARP request back.
        assert h1.port0.rx_frames == 0

    def test_processing_delay_applied(self):
        sim, switch, (h1, h2, _) = build_network(processing_delay_s=50e-6)
        h1.ping(h2.ip)
        sim.run(until=0.5)
        # ARP req + reply + echo req + reply = 4 switch transits >= 200us.
        assert h1.rtts()[0] >= 200e-6


class TestVlanIsolation:
    def test_hosts_in_different_vlans_cannot_talk(self):
        sim, switch, (h1, h2, _) = build_network()
        config = switch.config.copy()
        config.set_access(1, 101)
        config.set_access(2, 102)
        switch.apply_config(config)
        h1.ping(h2.ip)
        sim.run(until=2.0)
        assert h1.ping_loss_rate == 1.0
        assert h2.port0.rx_frames == 0

    def test_same_vlan_still_works(self):
        sim, switch, (h1, h2, h3) = build_network()
        config = switch.config.copy()
        config.set_access(1, 101)
        config.set_access(2, 101)
        config.set_access(3, 102)
        switch.apply_config(config)
        h1.ping(h2.ip)
        sim.run(until=0.5)
        assert len(h1.rtts()) == 1
        assert h3.port0.rx_frames == 0  # flood stayed inside VLAN 101

    def test_tagged_frame_dropped_on_access_port(self):
        sim, switch, (h1, h2, _) = build_network()
        tagged = EthernetFrame(
            dst=h2.mac, src=h1.mac, ethertype=0x0800, payload=b"x" * 50
        ).push_vlan(55)
        h1.port0.send(tagged)
        sim.run(until=0.1)
        assert h2.port0.rx_frames == 0
        assert switch.counters.filtered_ingress == 1


class TestTrunking:
    def test_access_to_trunk_gets_tagged(self):
        """The HARMLESS primitive: per-port VLAN appears as a tag on the trunk."""
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=4, processing_delay_s=0.0)
        h1 = Host(sim, "h1", MACAddress(0x02AA), IPv4Address("10.0.0.1"))
        collector = Host(sim, "coll", MACAddress(0x02BB), IPv4Address("10.0.0.99"))
        Link(h1.port0, switch.port(1))
        Link(collector.port0, switch.port(4))

        config = switch.config.copy()
        config.set_access(1, 101)
        config.set_trunk(4, {101})
        switch.apply_config(config)

        h1.ping(IPv4Address("10.0.0.2"))  # ARP will flood to the trunk
        sim.run(until=0.5)
        # The collector host ignores tagged frames, but the port saw them.
        assert collector.port0.rx_frames >= 1

    def test_trunk_to_access_untags(self):
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=4, processing_delay_s=0.0)
        sender = Host(sim, "trunk-side", MACAddress(0x02AA), IPv4Address("10.0.0.1"))
        receiver = Host(sim, "h2", MACAddress(0x02BB), IPv4Address("10.0.0.2"))
        Link(sender.port0, switch.port(4))
        Link(receiver.port0, switch.port(2))

        config = switch.config.copy()
        config.set_access(2, 102)
        config.set_trunk(4, {102})
        switch.apply_config(config)

        frame = EthernetFrame(
            dst=receiver.mac, src=sender.mac, ethertype=0x0800, payload=b"x" * 50
        ).push_vlan(102)
        sender.port0.send(frame)
        sim.run(until=0.1)
        assert receiver.port0.rx_frames == 1
        # Receiver's host stack only counts untagged frames as handled.
        assert receiver.rx_unhandled in (0, 1)  # frame is IP junk but untagged

    def test_trunk_drops_unallowed_vlan(self):
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=4, processing_delay_s=0.0)
        sender = Host(sim, "t", MACAddress(0x02AA), IPv4Address("10.0.0.1"))
        Link(sender.port0, switch.port(4))
        config = switch.config.copy()
        config.set_trunk(4, {101})
        switch.apply_config(config)

        frame = EthernetFrame(
            dst=MACAddress(0x02BB), src=sender.mac, ethertype=0x0800, payload=b"y" * 50
        ).push_vlan(999)
        sender.port0.send(frame)
        sim.run(until=0.1)
        assert switch.counters.filtered_ingress == 1

    def test_native_vlan_untagged_on_trunk(self):
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=4, processing_delay_s=0.0)
        h1 = Host(sim, "h1", MACAddress(0x02AA), IPv4Address("10.0.0.1"))
        h2 = Host(sim, "h2", MACAddress(0x02BB), IPv4Address("10.0.0.2"))
        Link(h1.port0, switch.port(1))
        Link(h2.port0, switch.port(4))
        config = switch.config.copy()
        config.set_access(1, 50)
        config.set_trunk(4, set(), native_vlan=50)
        switch.apply_config(config)
        h1.ping(h2.ip)
        sim.run(until=0.5)
        # Native VLAN frames are untagged, so the plain host stack replies.
        assert len(h1.rtts()) == 1


class TestOperational:
    def test_link_down_flushes_fdb(self):
        sim, switch, (h1, h2, _) = build_network()
        h1.ping(h2.ip)
        sim.run(until=0.5)
        assert switch.fdb.lookup(1, h2.mac, sim.now) == 2
        switch.link_down(2)
        assert switch.fdb.lookup(1, h2.mac, sim.now) is None

    def test_link_down_blocks_traffic_then_up_restores(self):
        sim, switch, (h1, h2, _) = build_network()
        switch.link_down(2)
        h1.ping(h2.ip)
        sim.run(until=2.0)
        assert h1.ping_loss_rate == 1.0
        switch.link_up(2)
        h1.ping(h2.ip)
        sim.run(until=4.0)
        assert len(h1.rtts()) == 1

    def test_apply_config_flushes_changed_ports_only(self):
        sim, switch, (h1, h2, _) = build_network()
        h1.ping(h2.ip)
        sim.run(until=0.5)
        config = switch.config.copy()
        config.set_access(1, 101)
        switch.apply_config(config)
        assert switch.fdb.lookup(1, h1.mac, sim.now) is None
        assert switch.fdb.lookup(1, h2.mac, sim.now) == 2

    def test_counters_accumulate(self):
        sim, switch, (h1, h2, _) = build_network()
        h1.ping(h2.ip)
        sim.run(until=0.5)
        assert switch.counters.rx_frames >= 4
        assert switch.counters.tx_frames >= 4
        assert switch.counters.per_port_rx[1] >= 2


# ------------------------------------------------- drop reasons, cache


class Tap(Node):
    """Counts what its single port receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.add_port(1)
        self.received = []

    def receive(self, port, frame):
        self.received.append(frame)


A, B, C = (MACAddress(0x02_00_00_00_00_0A + n) for n in range(3))


def frame(src, dst, *vlans):
    return EthernetFrame(
        dst=dst, src=src, ethertype=0x0800, payload=b"x" * 46,
        tags=[Dot1QTag(vlan_id) for vlan_id in vlans],
    )


def build_taps(processing_delay_s=0.0):
    """Ports 1, 2 access VLAN 10, port 3 access VLAN 20, port 4 trunk
    10/20; A lives on 1, B on 2 — learned, so A <-> B is known unicast."""
    sim = Simulator()
    switch = LegacySwitch(sim, "sw", num_ports=4, processing_delay_s=processing_delay_s)
    switch.config.set_access(1, 10)
    switch.config.set_access(2, 10)
    switch.config.set_access(3, 20)
    switch.config.set_trunk(4, {10, 20})
    taps = []
    for number in range(1, 5):
        tap = Tap(sim, f"tap{number}")
        Link(tap.port(1), switch.port(number), bandwidth_bps=None, propagation_delay_s=0.0)
        taps.append(tap)
    taps[0].port(1).send(frame(A, B))
    taps[1].port(1).send(frame(B, A))
    sim.run()
    for tap in taps:
        tap.received.clear()
    return sim, switch, taps


class TestDropReasons:
    """Every way a frame can die in the legacy hop, walked with a
    crafted frame: each bumps exactly its reason."""

    def walk(self, switch, sim, act, reason, count=1):
        before = dict(switch.drops)
        act()
        sim.run()
        moved = {
            name: switch.drops[name] - before.get(name, 0)
            for name in switch.drops
            if switch.drops[name] != before.get(name, 0)
        }
        assert moved == {reason: count}

    def test_every_drop_site_counts_its_reason(self):
        sim, switch, taps = build_taps()
        send = lambda tap, f: lambda: taps[tap - 1].port(1).send(f)  # noqa: E731
        # Tagged on an access port; a VLAN the trunk does not carry.
        self.walk(switch, sim, send(1, frame(A, B, 10)), "ingress-filtered:vlan")
        self.walk(switch, sim, send(4, frame(C, A, 30)), "ingress-filtered:vlan")
        self.walk(switch, sim, send(1, frame(B, A)), "hairpin")  # B moves to 1: A is there too
        taps[1].port(1).send(frame(B, A))  # ... and back
        sim.run()
        switch.config.port(3).enabled = False
        self.walk(switch, sim, send(3, frame(C, A)), "ingress-filtered:disabled")
        switch.config.port(3).enabled = True
        switch.config.set_access(2, 20)  # B's entry still says VLAN 10 -> port 2
        self.walk(switch, sim, send(1, frame(A, B)), "egress-filtered")
        switch.config.set_access(2, 10)
        for number in (1, 2, 4):
            switch.config.port(number).enabled = False
        switch.config.port(1).enabled = True  # alone in VLAN 10
        self.walk(switch, sim, send(1, frame(A, C)), "no-ports")
        for number in (2, 4):
            switch.config.port(number).enabled = True
        switch.power_off()
        self.walk(switch, sim, send(1, frame(A, B)), "powered-off")
        burst = lambda: taps[0].port(1).send_burst([frame(A, B)] * 3)  # noqa: E731
        self.walk(switch, sim, burst, "powered-off", count=3)
        counters = switch.counters
        assert counters.filtered_ingress == sum(
            count for name, count in switch.drops.items() if name.startswith("ingress-filtered:")
        )
        assert counters.dropped_no_ports == switch.drops["no-ports"]

    def test_power_off_catches_the_frame_in_the_lookup_pipeline(self):
        sim, switch, taps = build_taps(processing_delay_s=4e-6)
        taps[0].port(1).send(frame(A, B))  # known unicast
        taps[0].port(1).send(frame(A, C))  # a flood
        sim.run(until=sim.now + 1e-6)  # both are in the pipeline
        switch.power_off()
        sim.run(until=sim.now + 1e-3)
        assert switch.drops == {"powered-off": 2}
        assert not any(tap.received for tap in taps)


class TestForwardingCache:
    """The cache of known-unicast decisions, pulled from under one at a
    time: what a hit was derived from changes, the next frame sees it."""

    def general_path_entries(self, switch):
        entries = []
        general = switch._general_path
        switch._general_path = lambda number, f: (entries.append(f), general(number, f))
        return entries

    def test_known_unicast_skips_the_general_path_frame_or_burst(self):
        sim, switch, taps = build_taps()
        entries = self.general_path_entries(switch)
        taps[0].port(1).send(frame(A, B))
        taps[0].port(1).send_burst([frame(A, B) for _ in range(4)])
        taps[3].port(1).send_burst([frame(C, A, 10)] * 2)  # C is new: learnt, then cached
        sim.run()
        assert len(taps[1].received) == 5 and len(taps[0].received) == 2
        assert len(entries) == 1 and entries[0].src == C
        # build_taps: A's first frame flooded to 2 and 4, B's went to 1.
        assert switch.counters.rx_frames == 2 + 7 and switch.counters.tx_frames == 3 + 7
        assert switch.counters.per_port_tx == {2: 1 + 5, 4: 1, 1: 1 + 2}
        assert not switch.drops

    def test_a_hit_refreshes_the_source_exactly_as_learning_does(self):
        sim, switch, taps = build_taps()
        sim.run(until=1.5)
        taps[0].port(1).send(frame(A, B))
        sim.run(until=2.0)
        assert switch.fdb.peek(10, A).learned_at == 1.5
        assert switch.fdb.peek(10, B).learned_at == 0.0
        assert switch.fdb.stats()["inserts"] == 2 and switch.fdb.stats()["moves"] == 0

    def test_target_ageing_is_checked_at_every_hit(self):
        sim, switch, taps = build_taps()
        floods = switch.counters.flooded  # A's very first frame
        taps[0].port(1).send(frame(A, B))
        sim.run(until=300.0)  # B was learned at 0.0: age == aging_s is alive
        taps[0].port(1).send(frame(A, B))
        sim.run(until=300.0)
        assert len(taps[1].received) == 2 and switch.counters.flooded == floods
        sim.run(until=300.5)
        taps[0].port(1).send(frame(A, B))
        sim.run(until=301.0)
        assert switch.counters.flooded == floods + 1 and switch.fdb.peek(10, B) is None
        switch.fdb.add_static(10, B, 2)
        sim.run(until=2000.0)
        taps[0].port(1).send_burst([frame(A, B)] * 2)
        sim.run(until=2001.0)
        assert switch.counters.flooded == floods + 1  # a static target does not age

    @pytest.mark.parametrize(
        "edit, outcome",
        [
            (lambda sw: setattr(sw.config.port(1), "enabled", False), "ingress-filtered:disabled"),
            (lambda sw: setattr(sw.config.port(2), "enabled", False), "egress-filtered"),
            (lambda sw: sw.config.set_access(2, 20), "egress-filtered"),
            (lambda sw: sw.config.set_access(1, 20), "flooded"),
            (lambda sw: sw.config.set_trunk(2, {10}), "tagged"),
            (lambda sw: setattr(sw.config.port(1), "mode", PortMode.TRUNK), "ingress-filtered:vlan"),
            (lambda sw: setattr(sw.config.port(2), "mode", PortMode.TRUNK), "egress-filtered"),
            (lambda sw: setattr(sw.config.port(1), "pvid", 20), "flooded"),
            (lambda sw: setattr(sw.config.port(2), "pvid", 20), "egress-filtered"),
            (lambda sw: sw.config.port(2).allowed_vlans.add(10)
                or setattr(sw.config.port(2), "mode", PortMode.TRUNK), "tagged"),
            (lambda sw: sw.link_down(2), "flooded"),
            (lambda sw: (sw.link_down(2), sw.link_up(2)), "flooded"),
            (lambda sw: sw.fdb.add_static(10, B, 4), "tagged on 4"),
            (lambda sw: sw.fdb.add_static(10, B, 1), "hairpin"),
            # A static entry onto an access port of another VLAN.
            (lambda sw: sw.fdb.add_static(10, B, 3), "egress-filtered"),
            (lambda sw: sw.fdb.flush_vlan(10), "flooded"),
            (lambda sw: sw.fdb.expire(1e9), "flooded"),
            (lambda sw: setattr(sw.fdb, "aging_s", -1.0), "flooded"),
            (lambda sw: sw.power_off(), "powered-off"),
            (lambda sw: (sw.power_off(), sw.power_on()), "flooded"),
            # A config without ports: they are made on first touch, alone in VLAN 1.
            (lambda sw: sw.apply_config(RunningConfig()), "no-ports"),
            (lambda sw: (sw.apply_config(sw.config.copy()),
                         setattr(sw.config.port(1), "enabled", False)),
             "ingress-filtered:disabled"),
        ],
    )
    @pytest.mark.parametrize("burst", [False, True])
    def test_whatever_a_decision_was_derived_from_changes(self, edit, outcome, burst):
        sim, switch, taps = build_taps()
        taps[0].port(1).send(frame(A, B))  # cached
        sim.run(until=0.001)
        assert len(taps[1].received) == 1 and list(switch._hops) == [(1, None, A, B)]
        floods = switch.counters.flooded
        edit(switch)
        if burst:
            taps[0].port(1).send_burst([frame(A, B)] * 2)
        else:
            taps[0].port(1).send(frame(A, B))
        sim.run(until=0.002)
        new_on_2 = taps[1].received[1:]
        if outcome == "flooded":
            assert switch.counters.flooded == floods + (2 if burst else 1)
        elif outcome == "tagged":
            assert new_on_2 and all(f.vlan_id == 10 for f in new_on_2)
        elif outcome == "tagged on 4":
            assert not new_on_2 and all(f.vlan_id == 10 for f in taps[3].received)
            assert len([f for f in taps[3].received if f.src == A]) == (2 if burst else 1)
        else:
            assert not new_on_2
            assert switch.drops[outcome] == (2 if burst else 1)

    def test_the_trunk_side_of_the_config_is_watched_too(self):
        """Native VLAN and tagged membership, on ingress and on egress —
        edited the rudest way, a field poke or a set mutated in place."""
        sim, switch, taps = build_taps()
        trunk = switch.config.port(4)
        to_a = lambda: len([f for f in taps[0].received if f.src == C])  # noqa: E731
        from_a = lambda: [f for f in taps[3].received if f.src == A]  # noqa: E731

        def play(sent, via):
            taps[via - 1].port(1).send(sent)
            sim.run(until=sim.now + 0.001)

        play(frame(C, A, 10), via=4)  # C learnt behind the trunk
        play(frame(C, A, 10), via=4)  # C -> A cached
        play(frame(A, C), via=1)  # A -> C cached
        assert (4, 10, C, A) in switch._hops and (1, None, A, C) in switch._hops
        assert to_a() == 2 and [f.vlan_id for f in from_a()] == [10]

        trunk.native_vlan = 10  # egress: VLAN 10 now leaves untagged
        play(frame(A, C), via=1)
        assert [f.vlan_id for f in from_a()] == [10, None]
        play(frame(C, A), via=4)  # ingress: untagged is VLAN 10 now ...
        play(frame(C, A), via=4)  # ... and cached as such
        assert to_a() == 4 and (4, None, C, A) in switch._hops
        trunk.native_vlan = None
        play(frame(C, A), via=4)
        assert to_a() == 4 and switch.drops["ingress-filtered:vlan"] == 1

        play(frame(A, C), via=1)  # cached again, tagged again
        assert [f.vlan_id for f in from_a()] == [10, None, 10]
        trunk.allowed_vlans.discard(10)  # in place: no assignment to see
        play(frame(C, A, 10), via=4)
        assert to_a() == 4 and switch.drops["ingress-filtered:vlan"] == 2
        play(frame(A, C), via=1)
        assert len(from_a()) == 3 and switch.drops["egress-filtered"] == 1

    def test_an_aged_out_target_stays_gone_when_ageing_is_relaxed(self):
        sim, switch, taps = build_taps()
        taps[3].port(1).send(frame(C, B, 10))  # C is learnt on the trunk ...
        taps[3].port(1).send(frame(C, B, 10))  # ... and C -> B cached
        sim.run(until=0.0)
        assert (4, 10, C, B) in switch._hops
        floods = switch.counters.flooded
        switch.fdb.aging_s = 0.5
        sim.run(until=1.0)
        taps[0].port(1).send(frame(A, B))  # B aged out at the lookup: flooded
        sim.run(until=1.0)
        switch.fdb.aging_s = 300.0  # B's old entry would look young again
        taps[3].port(1).send(frame(C, B, 10))
        sim.run(until=1.0)
        assert switch.counters.flooded == floods + 2

    def test_cache_is_emptied_not_grown_by_mac_churn(self):
        sim, switch, taps = build_taps()
        sizes = []
        for n in range(50):
            visitor = MACAddress(0x02_00_00_00_AA_00 + n)
            taps[2].port(1).send(frame(visitor, BROADCAST))  # a new station: generation moves
            taps[0].port(1).send(frame(A, B))
            taps[1].port(1).send(frame(B, A))
            sim.run(until=sim.now + 0.001)
            sizes.append(len(switch._hops))
        assert max(sizes) == 2
