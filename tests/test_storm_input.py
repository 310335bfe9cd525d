"""A broadcast storm as an input to unprotected dataplanes.

Nothing in the simulator meters a storm: a legacy switch floods every
copy, a migrated :class:`~repro.softswitch.SoftSwitch` expands every
``OFPP_FLOOD`` and raises a packet-in for every table miss, and the
control channel forwards every packet-in it is handed.  These tests pin
that unprotected behaviour at the switch, channel and tier level:

* a legacy switch floods every storm frame, still forwards known
  unicast during the storm, and floods unknown unicast as a counted
  FDB fallback;
* a softswitch floods every storm frame to every port but its ingress,
  counting no drop, on every execution tier;
* every table miss reaches the controller, repeated or not, and a
  miss storm costs the app one packet-in per frame;
* under seeded storm/unicast mixes, a burst through ``process_batch``
  equals the same frames one at a time, and the specialized tier
  equals the interpreted one frame for frame.

The fabric-level storm (a babbling station in a ring, replayed to
identical digests) lives in ``test_fabric.py``; the
:class:`~repro.netsim.FaultInjector` storm in ``test_faults.py``.
"""

import random

import pytest

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.legacy import LegacySwitch
from repro.net import IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.netsim import Host, Link, Simulator
from repro.openflow import FlowMod, Match
from repro.openflow import consts as c
from repro.softswitch import ESWITCH_COST_MODEL, SoftSwitch
from repro.traffic.generators import (
    STORM_SRC_MAC,
    BurstSource,
    cross_pod_flows,
    storm_frames,
    synth_frame,
)

from differential import SCALE, HookedCostModel, assert_identical, build_rig, output

#: Execution tiers of the softswitch, as ``SoftSwitch`` keyword arguments.
TIERS = {
    "linear": {"enable_specialization": False, "cost_model": ESWITCH_COST_MODEL},
    # Specialization on, the pipeline rejected: the interpreter serves
    # every frame on its fallback route.
    "fallback": {"cost_model": HookedCostModel()},
    "compiled": {"cost_model": ESWITCH_COST_MODEL},
}


class TestStormFrames:
    def test_one_broadcast_template_repeated(self):
        frames = storm_frames(5)
        assert len(frames) == 5
        assert all(frame is frames[0] for frame in frames)
        assert frames[0].dst.is_broadcast
        assert frames[0].src == STORM_SRC_MAC

    def test_source_and_vlan_are_chosen_by_the_caller(self):
        source = MACAddress(0x02_00_00_00_0F_01)
        (frame,) = storm_frames(1, src_mac=source, vlan_id=30)
        assert frame.src == source
        assert frame.vlan_id == 30

    def test_a_storm_needs_a_frame(self):
        with pytest.raises(ValueError):
            storm_frames(0)


class TestLegacySwitchUnderStorm:
    """A legacy switch floods a storm whole: nothing meters it."""

    def build(self):
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=4, processing_delay_s=0.0)
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

    def test_no_meter_means_full_meltdown(self):
        sim, switch, gen, sinks = self.build()
        total = self.blast(gen)
        sim.run(until=0.1)
        assert switch.counters.flooded == total
        for sink in sinks:
            assert sink.rx_count == total

    def test_storm_source_is_learned_on_its_ingress_port(self):
        sim, switch, gen, _ = self.build()
        self.blast(gen)
        sim.run(until=0.1)
        learned = {
            (str(entry.mac), entry.port)
            for entry in switch.fdb._entries.values()
        }
        assert learned == {(str(STORM_SRC_MAC), 1)}

    def test_known_unicast_rides_through_a_storm(self):
        sim, switch, gen, sinks = self.build()
        target = MACAddress(0x02_00_00_00_0A_01)
        switch.fdb.add_static(1, target, 2)
        total = self.blast(gen)
        unicast = udp_frame(
            MACAddress(0x02_00_00_00_0B_01), target,
            IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
            1000, 2000, b"x",
        )
        sim.schedule_at(0.0012, lambda: gen.port0.send(unicast))
        sim.run(until=0.1)
        assert sinks[0].rx_count == total + 1  # the storm, and the unicast
        assert sinks[1].rx_count == total  # only the storm

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


#: Unicast to port 2 and a flood fallback: the storm pipeline.
UNICAST = FlowMod(match=Match(eth_dst=0x02_00_00_00_00_02), priority=10, instructions=output(2))
FLOOD = FlowMod(match=Match(), instructions=output(c.OFPP_FLOOD))
TO_CONTROLLER = FlowMod(match=Match(), instructions=output(c.OFPP_CONTROLLER))


class TestSoftSwitchUnderStorm:
    """``OFPP_FLOOD`` expands every storm frame: nothing guards it."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_no_guard_floods_everything(self, tier):
        sim, switch, sinks, _ = build_rig((UNICAST, FLOOD), controller=True, **TIERS[tier])
        switch.process_batch(1, storm_frames(16))
        sim.run()
        assert [len(sink.received) for sink in sinks] == [0, 16, 16]  # never to ingress
        assert switch.packets_dropped == 0
        assert dict(switch.drops) == {}

    @pytest.mark.parametrize("in_port", [1, 2, 3])
    def test_flood_reaches_every_port_but_the_ingress(self, in_port):
        sim, switch, sinks, _ = build_rig((UNICAST, FLOOD), controller=True, **TIERS["compiled"])
        for frame in storm_frames(4):
            switch.inject(frame, in_port)
        sim.run()
        counts = [len(sink.received) for sink in sinks]
        assert counts == [0 if port == in_port else 4 for port in (1, 2, 3)]


def miss_frame(tag=0):
    return udp_frame(
        MACAddress(0x02_00_00_00_0D_01), MACAddress(0x02_00_00_00_0E_01 + tag),
        IPv4Address("10.0.1.1"), IPv4Address("10.0.1.2"),
        1000, 2000, b"x",
    )


class TestEveryMissReachesTheController:
    """No negative cache: each table miss is one packet-in."""

    def build(self, tier):
        sim, switch, _, pins = build_rig((TO_CONTROLLER,), controller=True, **TIERS[tier])
        return sim, switch, pins

    @pytest.mark.parametrize("tier", TIERS)
    def test_repeat_misses_each_cost_one_packet_in(self, tier):
        sim, switch, pins = self.build(tier)
        for _ in range(5):
            switch.inject(miss_frame(), 1)
        sim.run()
        assert len(pins) == 5
        assert switch.packets_to_controller == 5
        assert switch.packets_dropped == 0

    def test_distinct_signatures_all_reach_the_controller(self):
        sim, switch, pins = self.build("compiled")
        for tag in range(4):
            switch.inject(miss_frame(tag), 1)
        switch.inject(miss_frame(0), 2)  # same flow, other port
        sim.run()
        assert len(pins) == 5

    def test_misses_flow_again_after_a_pipeline_reset(self):
        sim, switch, pins = self.build("compiled")
        switch.inject(miss_frame(), 1)
        switch.reset_pipeline()
        assert switch.handle_message(TO_CONTROLLER.to_bytes()) == []
        switch.inject(miss_frame(), 1)
        sim.run()
        assert len(pins) == 2
        assert pins[0][8:] == pins[1][8:]  # the same packet-in, bar its xid

    def test_stats_carry_no_suppression_counters(self):
        sim, switch, _ = self.build("compiled")
        for _ in range(3):
            switch.inject(miss_frame(), 1)
        stats = switch.stats()
        assert set(stats) == {
            "packets_forwarded", "packets_dropped",
            "packets_to_controller", "specialization",
        }
        assert stats["packets_to_controller"] == 3


class TestChannelUnderMissStorm:
    """The channel forwards every packet-in it is handed."""

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

    def test_miss_storm_reaches_the_app_in_full(self):
        sim, (h1, _), app, datapath = self.build()
        handled_before = app.packet_ins_handled
        self.miss_train(h1, 20)
        sim.run(until=0.2)
        assert app.packet_ins_handled - handled_before == 20
        assert dict(datapath.channel.drops) == {}

    def test_echo_rides_alongside_a_miss_storm(self):
        sim, (h1, _), _, datapath = self.build()
        channel = datapath.channel
        self.miss_train(h1, 10)
        sim.run(until=0.1)
        before = channel.messages_to_controller
        echo = bytes([4, c.OFPT_ECHO_REPLY, 0, 8, 0, 0, 0, 0])
        channel._from_switch_async(echo)
        assert channel.messages_to_controller == before + 1

    def test_ping_lands_after_a_miss_storm(self):
        sim, (h1, h2), _, _ = self.build()
        self.miss_train(h1, 20)
        sim.run(until=0.1)
        h1.ping(h2.ip)
        sim.run(until=2.0)
        assert len(h1.rtts()) == 1

    def test_a_down_channel_loses_the_storm_and_says_why(self):
        sim, (h1, _), app, datapath = self.build()
        channel = datapath.channel
        handled_before = app.packet_ins_handled
        channel.set_down()
        self.miss_train(h1, 10)
        sim.run(until=0.1)
        assert app.packet_ins_handled == handled_before
        assert channel.drops["to-controller:channel-down"] == 10
        assert channel.switch.packets_dropped == 0  # lost in the channel, not the switch


def seeded_mix(seed, rounds=40):
    """(in_port, frames, use_batch) triples mixing floods and unicasts."""
    rng = random.Random(seed)
    flows = cross_pod_flows(3, per_pair=1, seed=seed)
    unicast_pool = [synth_frame(flow.spec) for flow in flows]
    steps = []
    for _ in range(rounds):
        if rng.random() < 0.4:
            frames = storm_frames(rng.randint(1, 12))
        else:
            frames = [
                unicast_pool[rng.randrange(len(unicast_pool))]
                for _ in range(rng.randint(1, 6))
            ]
        steps.append((rng.randint(1, 3), frames, rng.random() < 0.5))
    return steps


def drive(rig, steps, gap_s=0.001):
    sim, switch, _, _ = rig
    clock = 0.0
    for in_port, frames, use_batch in steps:
        clock += gap_s
        sim.run(until=clock)
        if use_batch and len(frames) > 1:
            switch.process_batch(in_port, list(frames))
        else:
            for frame in frames:
                switch.inject(frame, in_port)
    sim.run()


#: Three seeds, times ``DIFFERENTIAL_SCALE``.
STORM_SEEDS = [0x510 + index for index in range(3 * SCALE)]


class TestStormMixDifferentials:
    @pytest.mark.parametrize("seed", STORM_SEEDS)
    @pytest.mark.parametrize("tier", TIERS)
    def test_batch_equals_sequential(self, tier, seed):
        steps = seeded_mix(seed)
        batch_rig, seq_rig = (
            build_rig((UNICAST, FLOOD), controller=True, **TIERS[tier]) for _ in range(2)
        )
        drive(batch_rig, steps)
        drive(seq_rig, [(port, frames, False) for port, frames, _ in steps])
        assert_identical(batch_rig, seq_rig)
        assert sum(len(sink.received) for sink in batch_rig.sinks) > 0
        if tier == "fallback":
            assert batch_rig.switch.specialized_frames == 0
            assert batch_rig.switch.fallback_frames == seq_rig.switch.fallback_frames > 0

    @pytest.mark.parametrize("seed", STORM_SEEDS)
    def test_compiled_tier_equals_interpreted_tier(self, seed):
        steps = seeded_mix(seed)
        interpreted = build_rig((UNICAST, FLOOD), controller=True, **TIERS["linear"])
        compiled = build_rig((UNICAST, FLOOD), controller=True, **TIERS["compiled"])
        drive(interpreted, steps)
        drive(compiled, steps)
        assert_identical(interpreted, compiled)
        assert compiled.switch.specialized_frames > 0
        assert interpreted.switch.specialized_frames == 0

    def test_flood_free_pipeline_specializes(self):
        """Unicast-only bursts on a flood-free pipeline run compiled,
        frame for frame what the interpreter emits."""
        steps = [
            (1, [synth_frame(flow.spec) for flow in cross_pod_flows(3, seed=7)]
             * 4, True)
            for _ in range(10)
        ]
        interpreted = build_rig((UNICAST,), controller=True, **TIERS["linear"])
        compiled = build_rig((UNICAST,), controller=True, **TIERS["compiled"])
        drive(interpreted, steps)
        drive(compiled, steps)
        assert_identical(interpreted, compiled)
        assert compiled.switch.specialized_frames > 0
