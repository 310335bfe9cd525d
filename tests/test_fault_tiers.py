"""Faults crossed with the datapath tiers and the rollout.

Fault primitives are only safe if every acceleration layer agrees about
them: a crashed datapath must behave exactly like a factory-fresh one
(the compiled program discarded), and a fault landing mid-rollout
must leave the HARMLESS fleet verifiably clean once it clears.  (A trunk
flap under cross-pod traffic lives with its mixes in ``test_fabric.py``.)
"""

import pytest

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.core import HarmlessFleet
from repro.fabric import leaf_spine_fabric
from repro.net import IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.netsim import FaultInjector
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction

from differential import build_rig, provision


# --------------------------------------------------------------------------
# Crash/restart vs the fast-path tiers: reset mid-burst == factory fresh
# --------------------------------------------------------------------------

#: Port 1 to port 2 and back.
PIPELINE = tuple(
    FlowMod(
        match=Match(in_port=in_port),
        priority=10,
        instructions=[ApplyActions(actions=(OutputAction(port=out_port),))],
    )
    for in_port, out_port in ((1, 2), (2, 1))
)


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
    (sim, crashed, sinks, _), (sim_ref, fresh, sinks_ref, _) = (
        build_rig(sinks=2, enable_specialization=specialized) for _ in range(2)
    )
    provision(crashed, PIPELINE)

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
    provision(crashed, PIPELINE)
    provision(fresh, PIPELINE)
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
