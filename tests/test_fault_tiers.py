"""Faults crossed with the datapath tiers and the sharded engine.

Fault primitives are only safe if every acceleration layer agrees about
them: a crashed datapath must behave exactly like a factory-fresh one
(the compiled program discarded), a boundary-link
flap on a sharded run must be bit-identical to the unsharded run, and a
fault landing mid-rollout must leave the HARMLESS fleet verifiably
clean once it clears.
"""

import random

import pytest

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.core import HarmlessFleet
from repro.fabric import ShardedFabric, leaf_spine_fabric, ring_fabric
from repro.fabric.partition import partition_fabric
from repro.net import IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.netsim import FaultInjector, Node, Simulator
from repro.netsim.link import wire
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.softswitch import DatapathCostModel, SoftSwitch
from repro.traffic.generators import cross_pod_flows, synth_frame

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
# Boundary-link flap under sharding: digest == the unsharded run
# --------------------------------------------------------------------------

TRUNK_PROP_S = 50e-6
#: Well after the 6-site rollout completes (~4.1 s simulated).
FLAP_AT = 5.0
#: Hold must be >= the sync lookahead (50 us here) so the restore lands
#: in a window after the last stale cross-shard record.
FLAP_HOLD_S = 0.004
RING_PODS = 6


def build_ring6(sim):
    fabric = ring_fabric(
        switches=RING_PODS, hosts_per_switch=1, gen_ports_per_switch=1, sim=sim
    )
    for link in fabric.trunk_links:
        link.propagation_delay_s = TRUNK_PROP_S
    return fabric


#: A trunk that the 2-shard partition actually severs, by build index —
#: the builders are deterministic, so this picks the same link in every
#: replica.
BOUNDARY_INDEX = partition_fabric(build_ring6(Simulator()), 2).cuts[0].index


def build_ring6_with_flap(sim):
    """SPMD fault plan: every replica schedules the identical flap."""
    fabric = build_ring6(sim)
    injector = FaultInjector(sim)
    injector.link_flap(
        fabric.trunk_links[BOUNDARY_INDEX], at_s=FLAP_AT, hold_s=FLAP_HOLD_S
    )
    return fabric


def flap_mix():
    """Deterministic cross-pod bursts straddling the flap window."""
    rng = random.Random(0xF1A9)
    flows = cross_pod_flows(RING_PODS, per_pair=1, seed=7)
    per_pod = {pod: [] for pod in range(RING_PODS)}
    for flow in rng.sample(flows, k=12):
        frame = synth_frame(flow.spec, payload_len=128)
        start = FLAP_AT + rng.uniform(-0.002, FLAP_HOLD_S + 0.004)
        per_pod[flow.src_pod].append((start, [frame] * rng.randint(2, 6)))
    for bursts in per_pod.values():
        bursts.sort(key=lambda item: item[0])
    return per_pod


def run_sharded(build, shards):
    with ShardedFabric(build, shards=shards, backend="thread") as sharded:
        fleet = sharded.fleet(wave_size=3)
        reports = fleet.migrate_all(verify=True, strict=True)
        assert sharded.stats()["now"] < FLAP_AT - 0.1, "flap time too early"
        edge_names = [site.name for site in sharded.reference.edge_sites()]
        for pod, name in enumerate(edge_names):
            sharded.attach_station(name, f"gen-{pod}")
        mix = flap_mix()
        for pod, name in enumerate(edge_names):
            if mix[pod]:
                sharded.start_station(name, 0, mix[pod])
        sharded.run(until=FLAP_AT + FLAP_HOLD_S + 0.05)
        digest = sharded.digest()
        delivered = sharded.delivered()
        stats = sharded.stats()
    waves = [
        (report["index"], report["migrated"], report["reachability"])
        for report in reports
    ]
    return {
        "waves": waves,
        "digest": digest,
        "delivered": delivered,
        "shadow_drops": stats["shadow_drops"],
        "boundary_drops": stats["boundary_drops"],
        "boundary_drops_by_id": stats["boundary_drops_by_id"],
    }


def test_boundary_link_flap_is_shard_invariant():
    reference = run_sharded(build_ring6_with_flap, shards=1)
    candidate = run_sharded(build_ring6_with_flap, shards=2)
    assert candidate["shadow_drops"] == 0
    assert candidate["waves"] == reference["waves"]
    assert candidate["digest"]["sites"] == reference["digest"]["sites"]
    assert (
        candidate["digest"]["packet_ins"] == reference["digest"]["packet_ins"]
    )
    assert candidate["delivered"] == reference["delivered"]
    # Boundary drops are attributed per cut id: every drop belongs to
    # the flapped trunk, none to the healthy boundary, and the per-id
    # rows sum back to the aggregate counter.
    drops_by_id = candidate["boundary_drops_by_id"]
    assert set(drops_by_id) <= {BOUNDARY_INDEX}
    assert sum(drops_by_id.values()) == candidate["boundary_drops"]
    # The flap was actually visible: without it the run ends elsewhere.
    clean = run_sharded(build_ring6, shards=1)
    assert clean["digest"]["sites"] != reference["digest"]["sites"]


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

    report = fleet.await_reconvergence(
        event="midwave-flap", window_s=0.25, deadline_s=10.0
    )
    assert report.converged, injector.log
    final = fleet.verify_reachability()
    assert final.ok, final.describe()
