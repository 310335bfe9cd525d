"""Faults crossed with the datapath tiers and the rollout.

Fault primitives are only safe if every acceleration layer agrees about
them: a crashed datapath must behave exactly like a factory-fresh one
(the compiled program discarded), a fault landing mid-rollout must
leave the HARMLESS fleet verifiably clean once it clears, and a trunk
flap under cross-pod traffic must replay bit-identically and heal.
"""

from collections import Counter

import pytest

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.core import HarmlessFleet
from repro.fabric import leaf_spine_fabric
from repro.net import IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.netsim import FaultInjector, Node, Simulator
from repro.netsim.link import wire
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.softswitch import DatapathCostModel, SoftSwitch
from test_fabric import MixRun

ZERO_COST = DatapathCostModel.zero()


# --------------------------------------------------------------------------
# Crash/restart vs the fast-path tiers: reset mid-burst == factory fresh
# --------------------------------------------------------------------------


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, port, frame):
        self.received.append((self.sim.now, frame.to_bytes()))


def tier_rig(enable_specialization):
    sim = Simulator()
    switch = SoftSwitch(
        sim,
        "ss",
        datapath_id=1,
        cost_model=ZERO_COST,
        enable_specialization=enable_specialization,
    )
    sinks = []
    for index in range(2):
        sink = Sink(sim, f"sink{index + 1}")
        wire(switch, sink, bandwidth_bps=None, propagation_delay_s=0.0)
        sinks.append(sink)
    return sim, switch, sinks


def provision(switch):
    for in_port, out_port in ((1, 2), (2, 1)):
        message = FlowMod(
            match=Match(in_port=in_port),
            priority=10,
            instructions=[ApplyActions(actions=(OutputAction(port=out_port),))],
        )
        assert switch.handle_message(message.to_bytes()) == []


def burst(count, dport=2000):
    return [
        udp_frame(
            MACAddress(0x11), MACAddress(0x22),
            IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
            1000, dport, b"x" * 32,
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("specialized", [True, False])
def test_reset_mid_burst_behaves_like_factory_fresh(specialized):
    """reset_pipeline() halfway through a burst: the remaining frames
    must be handled exactly like a never-provisioned switch handles
    them — no compiled program or other state derived from the old
    tables may serve a single packet of the tail."""
    sim, crashed, sinks = tier_rig(enable_specialization=specialized)
    sim_ref, fresh, sinks_ref = tier_rig(enable_specialization=specialized)
    provision(crashed)

    head, tail = burst(6), burst(6)
    for frame in head:
        crashed.inject(frame.copy(), 1)
    sim.run()
    assert len(sinks[1].received) == 6  # warm: the pipeline forwards
    if specialized:
        assert crashed.program is not None
        assert crashed.specialized_frames > 0

    invalidations_before = crashed.program_invalidations
    crashed.reset_pipeline()  # the crash, mid-burst
    assert crashed.program is None
    if specialized:
        assert crashed.program_invalidations == invalidations_before + 1
    assert all(len(table) == 0 for table in crashed.tables)

    # The tail hits the wiped switch and, differentially, a fresh one.
    for frame in tail:
        crashed.inject(frame.copy(), 1)
        fresh.inject(frame.copy(), 1)
    sim.run()
    sim_ref.run()
    assert crashed.packets_dropped == fresh.packets_dropped == 6
    assert len(sinks[1].received) == 6  # nothing forwarded post-crash
    assert sinks_ref[1].received == []

    # Recovery: identical re-provisioning yields identical behaviour.
    provision(crashed)
    provision(fresh)
    for frame in burst(4):
        crashed.inject(frame.copy(), 1)
        fresh.inject(frame.copy(), 1)
    sim.run()
    sim_ref.run()
    assert [raw for _, raw in sinks[1].received[6:]] == [
        raw for _, raw in sinks_ref[1].received
    ]
    assert crashed.dump_pipeline() == fresh.dump_pipeline()


# --------------------------------------------------------------------------
# Mid-wave fault: the rollout keeps landing and verifies clean after
# --------------------------------------------------------------------------


def test_midwave_flap_leaves_fleet_strictly_clean():
    """The acceptance scenario: a trunk flaps while HARMLESS waves are
    still migrating; the remaining waves land under the fault and the
    fleet reconverges to strict clean sweeps after the restore."""
    fabric = leaf_spine_fabric(edges=3, spines=1, hosts_per_edge=1)
    controller = Controller(fabric.sim)
    controller.add_app(LearningSwitchApp())
    fleet = HarmlessFleet(fabric, controller=controller, wave_size=2)
    fleet.migrate_next_wave(verify=True)

    sim = fabric.sim
    injector = FaultInjector(sim)
    at = sim.now + 0.01
    injector.link_flap(fabric.trunk_links[0], at, hold_s=0.5)
    sim.run(until=at + 0.005)
    while not fleet.complete:  # waves keep landing while the fault is live
        fleet.migrate_next_wave(verify=False)
    sim.run(until=at + 0.5)

    report = fleet.await_reconvergence(window_s=0.25, deadline_s=10.0)
    assert report.converged, injector.log
    final = fleet.verify_reachability()
    assert final.ok, final.describe()


# --------------------------------------------------------------------------
# Trunk flap under cross-pod traffic: visible, reproducible, healed
# --------------------------------------------------------------------------

#: A trunk each migrated fabric's mixes actually cross.
FLAPPED_TRUNK = {
    "leaf_spine": "edge2:2<->spine2:1",
    "ring": "ring2:3<->ring3:2",
    "campus": "dist1:3<->core:1",
}


def flapped_mix_run(topology):
    """A migrated fabric whose second mix window carries a trunk flap."""
    run = MixRun(topology)
    (trunk,) = [
        link for link in run.fabric.trunk_links
        if link.name == FLAPPED_TRUNK[topology]
    ]
    injector = FaultInjector(run.sim)
    injector.link_flap(trunk, at_s=run.sim.now + 0.014, hold_s=0.001)
    return run.play(range(3)), trunk, injector


@pytest.mark.parametrize("topology", sorted(FLAPPED_TRUNK))
def test_trunk_flap_loses_frames_then_heals(topology):
    run, trunk, injector = flapped_mix_run(topology)
    assert trunk.up and [text for _, text in injector.log] == [
        f"link down: {trunk.name}", f"link up: {trunk.name}",
    ]
    lost = sum(
        sum((expected - station.addressed).values())
        for expected, station in zip(run.expected, run.stations)
    )
    duplicated = sum(
        sum((station.addressed - expected).values())
        for expected, station in zip(run.expected, run.stations)
    )
    assert lost > 0 and duplicated == 0

    # The same fault plan replays to the same digests.
    again, _, _ = flapped_mix_run(topology)
    assert again.digests() == run.digests()

    # Once the flap clears the fleet is clean and mixes land exactly.
    assert run.fleet.verify_reachability().ok
    for station in run.stations:
        station.addressed.clear()
    run.expected = [Counter() for _ in run.stations]
    run.play(range(3, 6))
    for pod, station in enumerate(run.stations):
        assert station.addressed == run.expected[pod], f"pod {pod}"
