"""Fault-injection primitives: link loss, power cycles, channel loss.

These are the building blocks ``tests/test_resilience.py`` and the
``XPAR-MIDWAVE`` claim compose: every primitive must lose
exactly what a real failure loses (queued and in-flight frames, dynamic
learned state, in-transit control messages) and nothing else, and must
recover to a clean slate.
"""

import random

import pytest

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.legacy import LegacySwitch
from repro.net import EthernetFrame, IPv4Address, MACAddress
from repro.netsim import FaultInjector, Host, Link, Node, Simulator
from repro.netsim.link import wire
from repro.softswitch import SoftSwitch

from differential import SCALE


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.count = 0

    def receive(self, port, frame):
        self.count += 1

    def receive_burst(self, port, arrivals):
        self.count += len(arrivals)


class CallCounter(Sink):
    """Also counts delivery *calls*: one per simulator event that landed."""

    calls = 0

    def receive(self, port, frame):
        self.calls += 1
        self.count += 1

    def receive_burst(self, port, arrivals):
        self.calls += 1
        self.count += len(arrivals)




def make_frame(tag=0):
    # 86B payload -> 100B on the wire.
    return EthernetFrame(
        dst=MACAddress(2), src=MACAddress(10 + tag), ethertype=0x0800,
        payload=b"z" * 86,
    )


def slow_pair(queue_frames=10):
    """8 Mbit/s link: a 100-byte frame serialises in 100 us."""
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(
        a, b,
        bandwidth_bps=8_000_000,
        propagation_delay_s=50e-6,
        queue_frames=queue_frames,
    )
    return sim, a, b, link


class TestLinkSetDown:
    def test_in_flight_and_queued_frames_are_lost(self):
        sim, a, b, link = slow_pair()
        for tag in range(5):  # one serialising + four queued
            assert a.port(1).send(make_frame(tag)) is True
        sim.run(until=160e-6)  # first frame has landed (100us + 50us prop)
        assert b.count == 1
        link.set_down()
        sim.run(until=0.1)
        assert b.count == 1  # nothing else ever lands
        stats = link.stats(a.port(1))
        assert stats.frames == 5  # all five made it onto the wire...
        assert stats.drops == 4  # ...but the failure ate the rest

    def test_down_link_refuses_new_frames(self):
        sim, a, b, link = slow_pair()
        link.set_down()
        assert a.port(1).send(make_frame()) is False
        assert a.port(1).send_burst([make_frame(1), make_frame(2)]) == 0
        sim.run(until=0.1)
        assert b.count == 0
        assert link.stats(a.port(1)).drops == 3

    def test_burst_in_flight_lost_on_set_down(self):
        sim, a, b, link = slow_pair(queue_frames=100)
        a.port(1).send_burst([make_frame(t) for t in range(8)])
        sim.run(until=100e-6)  # burst still serialising
        link.set_down()
        sim.run(until=0.1)
        assert b.count == 0
        assert link.stats(a.port(1)).drops == 8

    def test_restore_carries_traffic_again(self):
        sim, a, b, link = slow_pair()
        link.set_down()
        assert a.port(1).send(make_frame()) is False
        link.set_up()
        assert a.port(1).send(make_frame()) is True
        sim.run(until=0.1)
        assert b.count == 1

    def test_queue_state_sane_across_flap_cycles(self):
        """Repeated flaps never corrupt the queue accounting: occupancy
        resets to empty on every failure, so a full window fits again
        after each restore and the high-water mark never exceeds the
        configured queue."""
        sim, a, b, link = slow_pair(queue_frames=4)
        for _ in range(5):
            sent = [a.port(1).send(make_frame(t)) for t in range(6)]
            assert sent.count(False) == 2  # tail-drop past the window
            link.set_down()
            link.set_up()
        sent = [a.port(1).send(make_frame(t)) for t in range(4)]
        assert all(sent)
        sim.run(until=1.0)
        assert b.count == 4  # only the post-restore window delivers
        assert link.stats(a.port(1)).queue_hwm <= 4

    def test_set_down_idempotent(self):
        sim, a, b, link = slow_pair()
        a.port(1).send(make_frame())
        link.set_down()
        drops = link.stats(a.port(1)).drops
        link.set_down()
        assert link.stats(a.port(1)).drops == drops


class TestSetDownFindsWhatIsOnTheWire:
    """Nothing is registered per frame: a failing link finds its pending
    deliveries in the simulator's heap.  What it finds must be exactly
    the frames on the wire, in either direction, single or coalesced —
    cancelled for real, so none counts as an event."""

    def test_singles_and_bursts_in_both_directions(self):
        sim, a, b, link = slow_pair(queue_frames=100)
        port_a, port_b = a.port(1), b.port(1)
        for tag in range(3):
            port_a.send(make_frame(tag))  # land at 150, 250, 350 us
        port_a.send_burst([make_frame(t) for t in range(4)])  # drains at 750 us
        port_b.send_burst([make_frame(t) for t in range(2)])  # drains at 250 us
        port_b.send(make_frame())  # lands at 350 us
        sim.run(until=160e-6)
        assert (b.count, a.count) == (1, 0)
        assert (link.direction(port_a).queued, link.direction(port_b).queued) == (6, 3)
        events = sim.events_processed

        link.set_down()
        assert (link.direction(port_a).queued, link.direction(port_b).queued) == (0, 0)
        assert link.direction(port_a).drops == {"link-down": 6}
        assert link.direction(port_b).drops == {"link-down": 3}
        assert sim.pending_events == 0
        link.set_down()  # already down: counts nothing twice
        assert (link.stats(port_a).drops, link.stats(port_b).drops) == (6, 3)
        sim.run(until=0.01)
        assert sim.events_processed == events  # five cancelled deliveries, none ran
        assert (b.count, a.count) == (1, 0)

        link.set_up()
        assert port_a.send(make_frame()) and port_b.send_burst([make_frame()] * 2) == 2
        sim.run(until=0.02)
        assert (b.count, a.count) == (2, 2)
        assert (link.direction(port_a).queued, link.direction(port_b).queued) == (0, 0)

    def test_injector_flap_cancels_what_is_on_the_wire(self):
        """The injector fails and restores the link itself: the same
        singles and bursts die as with a direct ``set_down``."""
        sim, a, b, link = slow_pair(queue_frames=100)
        port_a, port_b = a.port(1), b.port(1)
        injector = FaultInjector(sim)
        injector.link_flap(link, at_s=160e-6, hold_s=1e-3)
        for tag in range(3):
            port_a.send(make_frame(tag))
        port_a.send_burst([make_frame(t) for t in range(4)])
        port_b.send_burst([make_frame(t) for t in range(2)])
        port_b.send(make_frame())
        sim.run(until=500e-6)
        assert not link.up and sim.pending_events == 1  # the restore
        assert link.direction(port_a).drops == {"link-down": 6}
        assert link.direction(port_b).drops == {"link-down": 3}
        assert (b.count, a.count) == (1, 0)
        sim.run(until=2e-3)
        assert link.up and [text for _, text in injector.log] == [
            f"link down: {link.name}", f"link up: {link.name}",
        ]
        assert port_a.send(make_frame()) and port_b.send_burst([make_frame()] * 2) == 2
        sim.run(until=0.02)
        assert (b.count, a.count) == (2, 2)

    def test_in_flight_discovery_assumes_no_arrival_order(self):
        # Nothing forbids re-tuning a live link: a later frame may then
        # land first, so what is on the wire is no FIFO suffix of what
        # was sent.
        class Recorder(Sink):
            def receive(self, port, frame):
                self.tags = getattr(self, "tags", []) + [int(frame.src) - 10]

        sim = Simulator()
        a, b = Sink(sim, "a"), Recorder(sim, "b")
        link = wire(a, b, bandwidth_bps=None, propagation_delay_s=1e-3)
        a.port(1).send(make_frame(0))
        link.propagation_delay_s = 1e-6
        a.port(1).send(make_frame(1))
        a.port(1).send(make_frame(2))
        link.propagation_delay_s = 1e-3
        a.port(1).send(make_frame(3))
        sim.run(until=10e-6)
        assert b.tags == [1, 2] and link.direction(a.port(1)).queued == 2
        link.set_down()
        sim.run(until=0.01)
        assert b.tags == [1, 2]
        assert link.stats(a.port(1)).drops == 2 and link.direction(a.port(1)).queued == 0
        assert sim.pending_events == 0

    @pytest.mark.parametrize("seed", range(20 * SCALE))
    def test_random_faults_conserve_frames_and_events(self, seed):
        """Whatever was offered was delivered or is a counted drop, and
        every processed event is one the test scheduled or a delivery
        that reached the far node."""
        rng = random.Random(0x23_000 + seed)
        sim = Simulator()
        ends = [CallCounter(sim, "a"), CallCounter(sim, "b")]
        link = wire(
            *ends, bandwidth_bps=rng.choice([None, 8_000_000, 1e9]),
            propagation_delay_s=rng.choice([1e-6, 50e-6, 400e-6]),
            queue_frames=rng.choice([4, 16, 128]),
        )

        def send(end, size):
            port = ends[end].port(1)
            if size == 1:
                port.send(make_frame())
            else:
                port.send_burst([make_frame(t) for t in range(size)])

        def retune(delay):
            link.propagation_delay_s = delay

        scheduled = 0
        for _ in range(rng.randrange(20, 60)):
            at = rng.uniform(0.0, 4e-3)
            roll = rng.random()
            if roll < 0.80:
                sim.schedule_at(at, send, rng.randrange(2), rng.choice([1, 1, 2, 5, 9]))
            elif roll < 0.88:
                sim.schedule_at(at, retune, rng.choice([1e-6, 50e-6, 400e-6]))
            elif roll < 0.95:
                sim.schedule_at(at, link.set_down)
            else:
                sim.schedule_at(at, link.set_up)
            scheduled += 1
        sim.run()
        for near, far in (ends, ends[::-1]):
            port = near.port(1)
            direction = link.direction(port)
            assert far.port(1).rx_frames == port.tx_frames - direction.stats.drops
            assert direction.stats.drops == sum(direction.drops.values())
            assert direction.queued == 0
        assert sim.events_processed == scheduled + sum(end.calls for end in ends)
        assert sim.pending_events == 0 and not sim._queue


class TestSwitchPowerCycle:
    def build(self):
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=4, processing_delay_s=0.0)
        hosts = []
        for index in range(2):
            host = Host(
                sim,
                f"h{index + 1}",
                MACAddress(0x02_00_00_00_00_21 + index),
                IPv4Address(f"10.9.0.{index + 1}"),
            )
            Link(host.port0, switch.port(index + 1))
            hosts.append(host)
        return sim, switch, hosts

    def test_crashed_switch_black_holes(self):
        sim, switch, (h1, h2) = self.build()
        h1.ping(h2.ip)
        sim.run(until=0.5)
        assert len(h1.rtts()) == 1
        switch.power_off()
        h1.ping(h2.ip)
        sim.run(until=2.0)
        assert len(h1.rtts()) == 1  # second ping died in the switch

    def test_restart_clears_dynamic_fdb_keeps_static(self):
        sim, switch, (h1, h2) = self.build()
        switch.fdb.add_static(1, MACAddress(0xBEEF), 3)
        h1.ping(h2.ip)
        sim.run(until=0.5)
        assert switch.fdb.lookup(1, h1.mac, sim.now) == 1
        switch.power_off()
        switch.power_on()
        assert switch.fdb.lookup(1, h1.mac, sim.now) is None
        assert switch.fdb.lookup(1, MACAddress(0xBEEF), sim.now) == 3

    def test_traffic_flows_after_restart(self):
        sim, switch, (h1, h2) = self.build()
        h1.ping(h2.ip)
        sim.run(until=0.5)
        switch.power_off()
        sim.run(until=1.0)
        switch.power_on()
        h1.ping(h2.ip)
        sim.run(until=4.0)  # allow an ARP retry round
        assert len(h1.rtts()) >= 2

    def test_injector_schedules_crash_and_restore(self):
        sim, switch, _ = self.build()
        injector = FaultInjector(sim)
        injector.switch_crash(switch, at_s=0.1, hold_s=0.2)
        sim.run(until=0.15)
        assert not switch.running
        sim.run(until=0.35)
        assert switch.running
        assert [entry[1] for entry in injector.log] == [
            "switch crash: sw", "switch restart: sw",
        ]


class TestControllerChannelLoss:
    def build(self):
        sim = Simulator()
        switch = SoftSwitch(sim, "ss", datapath_id=0x77)
        hosts = []
        for index in range(2):
            host = Host(
                sim,
                f"h{index + 1}",
                MACAddress(0x02_00_00_00_00_31 + index),
                IPv4Address(f"10.8.0.{index + 1}"),
            )
            Link(host.port0, switch.add_port(index + 1))
            hosts.append(host)
        controller = Controller(sim)
        app = controller.add_app(LearningSwitchApp())
        datapath = controller.connect(switch)
        sim.run(until=0.05)  # handshake + table-miss install
        return sim, hosts, app, datapath

    def test_packet_ins_black_holed_while_down(self):
        sim, (h1, h2), app, datapath = self.build()
        datapath.channel.set_down()
        handled_before = app.packet_ins_handled
        h1.ping(h2.ip)
        sim.run(until=2.0)
        assert app.packet_ins_handled == handled_before
        assert datapath.channel.dropped_to_controller > 0
        assert len(h1.rtts()) == 0

    def test_in_flight_messages_lost_at_failure_instant(self):
        sim, (h1, h2), app, datapath = self.build()
        handled_before = app.packet_ins_handled
        h1.ping(h2.ip)
        # The ARP packet-in is inside the channel latency when the
        # failure hits; it must die in transit, not be delivered.
        sim.schedule(datapath.channel.latency_s / 2, datapath.channel.set_down)
        sim.run(until=2.0)
        assert app.packet_ins_handled == handled_before
        assert datapath.channel.dropped_to_controller > 0

    def test_recovers_cleanly_after_restore(self):
        sim, (h1, h2), app, datapath = self.build()
        datapath.channel.set_down()
        h1.ping(h2.ip)
        sim.run(until=2.5)
        assert len(h1.rtts()) == 0
        datapath.channel.set_up()
        h1.ping(h2.ip)
        sim.run(until=5.0)
        assert len(h1.rtts()) == 1
        assert app.packet_ins_handled > 0


class TestStormInjection:
    def build(self):
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=4, processing_delay_s=0.0)
        hosts, links = [], []
        for index in range(2):
            host = Host(
                sim,
                f"h{index + 1}",
                MACAddress(0x02_00_00_00_00_61 + index),
                IPv4Address(f"10.5.0.{index + 1}"),
            )
            links.append(Link(host.port0, switch.port(index + 1)))
            hosts.append(host)
        return sim, switch, hosts, links

    def test_storm_melts_an_unprotected_switch(self):
        sim, switch, (h1, h2), _ = self.build()
        injector = FaultInjector(sim)
        total = injector.storm(
            h1.port0, at_s=0.01, duration_s=0.02, rate_fps=2000, burst=8
        )
        sim.run(until=0.1)
        assert total == 40
        assert injector.storm_frames_sent == 40
        assert injector.storm_frames_lost == 0
        # Every storm frame flooded: nothing meters it.
        assert switch.counters.flooded == 40
        descriptions = [entry[1] for entry in injector.log]
        assert descriptions[0].startswith("storm start: h1:0")
        assert descriptions[-1] == "storm end: h1:0 (40 frames)"

    def test_down_port_counts_losses_at_the_source(self):
        sim, switch, (h1, h2), (l1, _) = self.build()
        l1.set_down()
        injector = FaultInjector(sim)
        total = injector.storm(
            h1.port0, at_s=0.01, duration_s=0.02, rate_fps=2000, burst=8
        )
        sim.run(until=0.1)
        assert injector.storm_frames_sent == 0
        assert injector.storm_frames_lost == total
        assert switch.counters.flooded == 0

    def test_storm_requires_positive_duration(self):
        sim = Simulator()
        injector = FaultInjector(sim)
        with pytest.raises(ValueError):
            injector.storm(object(), at_s=0.0, duration_s=0.0, rate_fps=100)


class TestInjectorLinkFaults:
    def build_two_switches(self):
        sim = Simulator()
        left = LegacySwitch(sim, "left", num_ports=4, processing_delay_s=0.0)
        right = LegacySwitch(sim, "right", num_ports=4, processing_delay_s=0.0)
        trunk = Link(left.port(3), right.port(3), name="trunk")
        h1 = Host(sim, "h1", MACAddress(0x41), IPv4Address("10.7.0.1"))
        h2 = Host(sim, "h2", MACAddress(0x42), IPv4Address("10.7.0.2"))
        Link(h1.port0, left.port(1))
        Link(h2.port0, right.port(1))
        return sim, left, right, trunk, h1, h2

    def test_flap_notifies_switches_and_flushes_fdb(self):
        sim, left, right, trunk, h1, h2 = self.build_two_switches()
        h1.ping(h2.ip)
        sim.run(until=0.5)
        assert left.fdb.lookup(1, h2.mac, sim.now) == 3
        injector = FaultInjector(sim)
        injector.link_flap(trunk, at_s=0.6, hold_s=0.1)
        sim.run(until=0.65)
        assert not left.port(3).up and not right.port(3).up
        assert left.fdb.lookup(1, h2.mac, sim.now) is None
        sim.run(until=0.8)
        assert left.port(3).up and right.port(3).up
        h1.ping(h2.ip)
        sim.run(until=4.0)
        assert len(h1.rtts()) >= 2

    def test_admin_blocked_port_not_resurrected_by_restore(self):
        sim, left, right, trunk, h1, h2 = self.build_two_switches()
        left.link_down(3)  # administratively blocked before the fault
        injector = FaultInjector(sim)
        injector.link_flap(trunk, at_s=0.01, hold_s=0.1)
        sim.run(until=0.5)
        assert not left.port(3).up  # admin block survives the restore
        assert right.port(3).up

    def test_flap_requires_positive_hold(self):
        sim = Simulator()
        injector = FaultInjector(sim)
        with pytest.raises(ValueError):
            injector.link_flap(object(), at_s=0.0, hold_s=0.0)
