"""Storm containment on both dataplanes, plus control-plane overload.

Three layers of defence, each tested in isolation and wired in:

* :class:`repro.legacy.StormControl` — the per-port flood meter
  (token bucket in simulated time, suppress + timed recovery) and its
  ingress wiring in :class:`repro.legacy.LegacySwitch`;
* the same meter as ``flood_guard`` on a migrated
  :class:`repro.softswitch.SoftSwitch` (consulted before expanding
  ``OFPP_FLOOD``/``OFPP_ALL``), plus table-miss *suppression* (a
  negative cache keyed on the miss signature);
* the per-datapath packet-in token bucket on
  :class:`repro.controller.ControllerChannel`, which bounds controller
  work without starving echoes or barriers.

Everything is off by default; the differential suite
(``test_storm_differential.py``) proves the off/permissive paths are
bit-identical to a fabric without the feature.
"""

import pytest

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.legacy import LegacySwitch, StormControl
from repro.net import IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.netsim import Host, Link, Simulator
from repro.netsim.link import wire
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.openflow import consts as c
from repro.softswitch import SoftSwitch
from repro.traffic.generators import BurstSource, storm_frames


class TestMeter:
    """The token bucket itself, driven with an explicit clock."""

    def test_conforming_traffic_never_notices(self):
        meter = StormControl(rate_fps=100, burst=4)
        clock = 0.0
        for _ in range(50):  # well under 100 fps
            assert meter.allow(1, clock) is True
            clock += 0.05
        assert meter.storms_detected == 0
        assert meter.frames_suppressed == 0

    def test_burst_depth_then_trip(self):
        meter = StormControl(rate_fps=10, burst=3, recovery_s=0.5)
        assert [meter.allow(1, 0.0) for _ in range(5)] == [
            True, True, True, False, False,
        ]
        assert meter.storms_detected == 1
        assert meter.frames_suppressed == 2
        assert meter.suppressed(1, 0.4)
        assert not meter.suppressed(1, 0.6)

    def test_timed_recovery_refills_the_bucket(self):
        meter = StormControl(rate_fps=10, burst=2, recovery_s=0.1)
        for _ in range(3):
            meter.allow(1, 0.0)  # two admitted, third trips
        # Inside the hold: suppressed regardless of elapsed refill.
        assert meter.allow(1, 0.05) is False
        # Past the hold: recovery, full bucket again.
        assert meter.allow(1, 0.2) is True
        assert meter.allow(1, 0.2) is True
        assert meter.allow(1, 0.2) is False  # still storming: trips again
        assert meter.recoveries == 1
        assert meter.storms_detected == 2

    def test_partial_refill_between_frames(self):
        meter = StormControl(rate_fps=10, burst=4, recovery_s=1.0)
        for _ in range(4):
            assert meter.allow(1, 0.0) is True
        # 0.1 s at 10 fps buys exactly one token.
        assert meter.allow(1, 0.1) is True
        assert meter.allow(1, 0.1) is False

    def test_refill_caps_at_burst_depth(self):
        meter = StormControl(rate_fps=1000, burst=2)
        meter.allow(1, 0.0)
        # A long idle gap must not bank more than `burst` tokens.
        results = [meter.allow(1, 100.0) for _ in range(3)]
        assert results == [True, True, False]

    def test_ports_are_metered_independently(self):
        meter = StormControl(rate_fps=10, burst=1, recovery_s=1.0)
        assert meter.allow(1, 0.0) is True
        assert meter.allow(1, 0.0) is False  # port 1 tripped
        assert meter.allow(2, 0.0) is True  # port 2 untouched
        assert meter.triggered_ports() == [1]

    def test_stats_shape(self):
        meter = StormControl(rate_fps=10, burst=1, recovery_s=0.25)
        meter.allow(3, 0.0)
        meter.allow(3, 0.0)
        stats = meter.stats()
        assert stats["rate_fps"] == 10.0
        assert stats["burst"] == 1
        assert stats["recovery_s"] == 0.25
        assert stats["storms_detected"] == 1
        assert stats["frames_suppressed"] == 1
        assert stats["ports"][3]["storms_detected"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            StormControl(rate_fps=0)
        with pytest.raises(ValueError):
            StormControl(rate_fps=10, burst=0)
        with pytest.raises(ValueError):
            StormControl(rate_fps=10, recovery_s=0.0)


class TestLegacySwitchStormControl:
    """The meter wired into the legacy flood decision."""

    def build(self, storm_control=None):
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=4, processing_delay_s=0.0)
        switch.storm_control = storm_control
        gen = BurstSource(sim, "gen")
        sinks = [BurstSource(sim, f"sink{i}") for i in range(2)]
        Link(gen.port0, switch.port(1))
        for index, sink in enumerate(sinks):
            Link(sink.port0, switch.port(index + 2))
        return sim, switch, gen, sinks

    def blast(self, gen, frames_per_burst=8, bursts=5):
        """A dense broadcast train: 40 frames inside half a millisecond."""
        gen.start([
            (0.001 + index * 1e-4, storm_frames(frames_per_burst))
            for index in range(bursts)
        ])
        return frames_per_burst * bursts

    def test_storm_suppressed_at_ingress(self):
        meter = StormControl(rate_fps=100, burst=4, recovery_s=0.05)
        sim, switch, gen, sinks = self.build(meter)
        total = self.blast(gen)
        sim.run(until=0.1)
        admitted = switch.counters.flooded
        assert admitted < 10  # burst depth plus a trickle of refill
        assert switch.counters.storm_suppressed == total - admitted
        for sink in sinks:
            assert sink.rx_count == admitted
        assert meter.triggered_ports() == [1]

    def test_no_meter_means_full_meltdown(self):
        sim, switch, gen, sinks = self.build(storm_control=None)
        total = self.blast(gen)
        sim.run(until=0.1)
        assert switch.counters.flooded == total
        assert switch.counters.storm_suppressed == 0
        for sink in sinks:
            assert sink.rx_count == total

    def test_known_unicast_rides_through_a_suppressed_port(self):
        meter = StormControl(rate_fps=100, burst=2, recovery_s=10.0)
        sim, switch, gen, sinks = self.build(meter)
        target = MACAddress(0x02_00_00_00_0A_01)
        switch.fdb.add_static(1, target, 2)
        self.blast(gen)  # trips port 1 into a long suppression hold
        unicast = udp_frame(
            MACAddress(0x02_00_00_00_0B_01), target,
            IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
            1000, 2000, b"x",
        )
        sim.schedule_at(0.01, lambda: gen.port0.send(unicast))
        sim.run(until=0.1)
        assert meter.suppressed(1, sim.now)  # hold still active...
        assert sinks[0].rx_count >= 3  # ...but the known unicast landed

    def test_unknown_unicast_counts_flood_fallback(self):
        sim, switch, gen, sinks = self.build()
        stranger = udp_frame(
            MACAddress(0x02_00_00_00_0B_02), MACAddress(0x02_00_00_00_0C_03),
            IPv4Address("10.0.0.3"), IPv4Address("10.0.0.4"),
            1000, 2000, b"x",
        )
        gen.port0.send(stranger)
        sim.run(until=0.01)
        assert switch.fdb.flood_fallbacks == 1
        assert switch.counters.flooded == 1


def build_softswitch(num_ports=3, specialize=False):
    sim = Simulator()
    switch = SoftSwitch(
        sim, "ss", datapath_id=1, enable_specialization=specialize
    )
    sinks = []
    for index in range(num_ports):
        sink = BurstSource(sim, f"sink{index}")
        wire(
            switch, sink,
            bandwidth_bps=None, propagation_delay_s=0.0,
            queue_frames=100_000,
        )
        sinks.append(sink)
    return sim, switch, sinks


def install_flood(switch):
    switch.handle_message(FlowMod(
        match=Match(), priority=0,
        instructions=[ApplyActions(actions=(OutputAction(port=c.OFPP_FLOOD),))],
    ).to_bytes())


def install_miss_to_controller(switch):
    switch.handle_message(FlowMod(
        match=Match(), priority=0,
        instructions=[
            ApplyActions(actions=(OutputAction(port=c.OFPP_CONTROLLER),))
        ],
    ).to_bytes())


class TestDatapathFloodGuard:
    """The same meter guarding OFPP_FLOOD expansion on a migrated hop."""

    def test_guard_suppresses_flood_expansion(self):
        sim, switch, sinks = build_softswitch()
        install_flood(switch)
        switch.flood_guard = StormControl(rate_fps=100, burst=4, recovery_s=0.05)
        switch.process_batch(1, storm_frames(16))
        sim.run()
        assert switch.floods_suppressed == 12
        assert switch.stats()["floods_suppressed"] == 12
        # Four admitted frames flooded to the two non-ingress ports.
        assert sinks[1].rx_count == 4 and sinks[2].rx_count == 4
        assert sinks[0].rx_count == 0  # flood never reflects to ingress

    def test_no_guard_floods_everything(self):
        sim, switch, sinks = build_softswitch()
        install_flood(switch)
        switch.process_batch(1, storm_frames(16))
        sim.run()
        assert switch.floods_suppressed == 0
        assert sinks[1].rx_count == 16 and sinks[2].rx_count == 16

    def test_guard_meters_the_openflow_ingress_port(self):
        sim, switch, sinks = build_softswitch()
        install_flood(switch)
        guard = StormControl(rate_fps=100, burst=2, recovery_s=10.0)
        switch.flood_guard = guard
        switch.process_batch(1, storm_frames(8))  # trips port 1
        switch.inject(storm_frames(1)[0], 2)  # port 2 conforms
        sim.run()
        assert guard.triggered_ports() == [1]
        assert sinks[0].rx_count == 1  # port 2's flood reached port 1's sink


class TestMissSuppression:
    """The packet-in negative cache on the datapath."""

    def miss_frame(self, tag=0):
        return udp_frame(
            MACAddress(0x02_00_00_00_0D_01), MACAddress(0x02_00_00_00_0E_01 + tag),
            IPv4Address("10.0.1.1"), IPv4Address("10.0.1.2"),
            1000, 2000, b"x",
        )

    def build(self, window):
        sim, switch, _ = build_softswitch()
        install_miss_to_controller(switch)
        switch.miss_suppression_s = window
        pins = []
        switch.to_controller = pins.append
        return sim, switch, pins

    def test_repeat_misses_inside_window_cost_one_packet_in(self):
        sim, switch, pins = self.build(window=0.01)
        for _ in range(5):
            switch.inject(self.miss_frame(), 1)
        sim.run()
        assert len(pins) == 1
        assert switch.packet_ins_suppressed == 4
        assert switch.packets_to_controller == 1
        assert switch.stats()["packet_ins_suppressed"] == 4

    def test_window_expiry_readmits_the_signature(self):
        sim, switch, pins = self.build(window=0.01)
        switch.inject(self.miss_frame(), 1)
        sim.run(until=0.02)
        switch.inject(self.miss_frame(), 1)
        sim.run()
        assert len(pins) == 2
        assert switch.packet_ins_suppressed == 0

    def test_distinct_signatures_all_reach_the_controller(self):
        sim, switch, pins = self.build(window=0.01)
        for tag in range(4):
            switch.inject(self.miss_frame(tag), 1)
        switch.inject(self.miss_frame(0), 2)  # same flow, other port
        sim.run()
        assert len(pins) == 5
        assert switch.packet_ins_suppressed == 0

    def test_disabled_by_default(self):
        sim, switch, pins = self.build(window=0.0)
        for _ in range(5):
            switch.inject(self.miss_frame(), 1)
        sim.run()
        assert len(pins) == 5
        assert switch.packet_ins_suppressed == 0

    def test_pipeline_reset_clears_the_cache(self):
        sim, switch, pins = self.build(window=1e9)
        switch.inject(self.miss_frame(), 1)
        switch.reset_pipeline()
        install_miss_to_controller(switch)
        switch.inject(self.miss_frame(), 1)
        sim.run()
        assert len(pins) == 2  # fresh dynamic state after the crash


class TestPacketInLimiter:
    """The per-datapath packet-in token bucket on the control channel."""

    def build(self):
        sim = Simulator()
        switch = SoftSwitch(sim, "ss", datapath_id=0x88)
        hosts = []
        for index in range(2):
            host = Host(
                sim,
                f"h{index + 1}",
                MACAddress(0x02_00_00_00_00_51 + index),
                IPv4Address(f"10.6.0.{index + 1}"),
            )
            Link(host.port0, switch.add_port(index + 1))
            hosts.append(host)
        controller = Controller(sim)
        app = controller.add_app(LearningSwitchApp())
        datapath = controller.connect(switch)
        sim.run(until=0.05)  # handshake + table-miss install
        return sim, hosts, app, datapath

    def miss_train(self, host, count):
        """Frames to *count* distinct unknown MACs: every one a miss."""
        for tag in range(count):
            host.port0.send(udp_frame(
                host.mac, MACAddress(0x02_00_00_00_6000 + tag),
                host.ip, IPv4Address("10.6.0.200"),
                1000, 2000, b"x",
            ))

    def test_miss_storm_costs_bounded_controller_work(self):
        sim, (h1, _), app, datapath = self.build()
        channel = datapath.channel
        channel.configure_packetin_limit(rate_pps=50, burst=2)
        handled_before = app.packet_ins_handled
        self.miss_train(h1, 20)
        sim.run(until=0.2)
        assert channel.packet_ins_limited >= 15
        assert app.packet_ins_handled - handled_before <= 5

    def test_non_packet_in_messages_ride_past_an_empty_bucket(self):
        sim, (h1, _), app, datapath = self.build()
        channel = datapath.channel
        channel.configure_packetin_limit(rate_pps=1, burst=1)
        self.miss_train(h1, 10)
        sim.run(until=0.1)
        assert channel.packet_ins_limited > 0  # bucket is exhausted...
        before = channel.messages_to_controller
        echo = bytes([4, c.OFPT_ECHO_REPLY, 0, 8, 0, 0, 0, 0])
        channel._from_switch_async(echo)  # ...but an echo still passes
        assert channel.messages_to_controller == before + 1

    def test_generous_limit_leaves_steady_state_untouched(self):
        sim, (h1, h2), app, datapath = self.build()
        datapath.channel.configure_packetin_limit(rate_pps=10_000, burst=64)
        h1.ping(h2.ip)
        sim.run(until=2.0)
        assert len(h1.rtts()) == 1
        assert datapath.channel.packet_ins_limited == 0

    def test_disarm_restores_unlimited_delivery(self):
        sim, (h1, _), app, datapath = self.build()
        channel = datapath.channel
        channel.configure_packetin_limit(rate_pps=1, burst=1)
        channel.configure_packetin_limit(None)
        handled_before = app.packet_ins_handled
        self.miss_train(h1, 10)
        sim.run(until=0.2)
        assert channel.packet_ins_limited == 0
        assert app.packet_ins_handled - handled_before == 10

    def test_validation(self):
        sim, _, _, datapath = self.build()
        with pytest.raises(ValueError):
            datapath.channel.configure_packetin_limit(rate_pps=0)
        with pytest.raises(ValueError):
            datapath.channel.configure_packetin_limit(rate_pps=10, burst=0)
