"""Fabric-scale scenarios: topology builders + fleet-wide rollout.

Covers the three builder families, reachability before/during/after
every migration wave, the legacy-vs-migrated differential (a 2-switch
fabric must deliver bit-identical frames either way), cross-pod burst
traffic across chains of migrated SoftSwitches, and the legacy
switch's burst-path equivalence to sequential receive().
"""

import itertools
import os
import random
from dataclasses import asdict

import pytest

from repro.core import HarmlessError, HarmlessFleet
from repro.fabric import campus_fabric, leaf_spine_fabric, ring_fabric
from repro.net.addresses import BROADCAST_MAC, IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.net.ethernet import ETHERTYPE_IPV4, Dot1QTag, EthernetFrame
from repro.netsim import Capture, Simulator
from repro.netsim.node import Node
from repro.snmp import PduType, SnmpErrorStatus
from repro.softswitch import DatapathCostModel
from repro.traffic import (
    BurstSource,
    announcement_frame,
    burst_schedule,
    cross_pod_flows,
    interleave_bursts,
    station_mac,
    zipf_weights,
)

ZERO = DatapathCostModel.zero()


# ---------------------------------------------------------------- builders


def test_leaf_spine_shape():
    fabric = leaf_spine_fabric(edges=4, spines=1, hosts_per_edge=2)
    assert len(fabric.sites) == 5
    assert len(fabric.hosts) == 8
    assert [site.name for site in fabric.edge_sites()] == [
        "edge1", "edge2", "edge3", "edge4",
    ]
    spine = fabric.site("spine1")
    for name in ("edge1", "edge2", "edge3", "edge4"):
        edge = fabric.site(name)
        # Exactly one uplink, wired to the spine.
        (uplink,) = edge.uplink_ports
        peer = edge.switch.port(uplink).peer
        assert peer is not None and peer.node is spine.switch
        # The HARMLESS trunk port is reserved and unwired.
        assert edge.switch.port(edge.trunk_port).link is None
        assert edge.trunk_port not in edge.access_ports
        # Hosts are wired to their access ports.
        for host, port in zip(edge.hosts, edge.host_ports):
            assert host.port0.peer is edge.switch.port(port)


def test_leaf_spine_multi_spine_is_loop_free():
    fabric = leaf_spine_fabric(edges=4, spines=2, hosts_per_edge=1)
    # A tree over N switches has N-1 links: 4 edge uplinks + 1 chain.
    assert len(fabric.trunk_links) == len(fabric.sites) - 1
    # Broadcast terminates (a loop would run the event cap out).
    fabric.hosts[0].ping(fabric.hosts[3].ip)
    fabric.sim.run_until_idle(max_events=50_000)


def test_ring_closing_link_is_blocked():
    fabric = ring_fabric(switches=4, hosts_per_switch=1)
    assert len(fabric.trunk_links) == 4
    assert len(fabric.blocked_links) == 1
    blocked = fabric.blocked_links[0]
    assert not blocked.port_a.up and not blocked.port_b.up
    # Flooding terminates despite the physical ring.
    fabric.hosts[0].ping(fabric.hosts[2].ip)
    fabric.sim.run_until_idle(max_events=50_000)
    assert fabric.hosts[0].rtts()


def test_campus_tree_shape():
    fabric = campus_fabric(
        distribution=2, access_per_distribution=2, hosts_per_access=2
    )
    assert len(fabric.sites) == 7  # 4 access + 2 distribution + 1 core
    assert len(fabric.trunk_links) == len(fabric.sites) - 1
    roles = [site.role for site in fabric.sites.values()]
    assert roles.count("access") == 4
    assert roles.count("distribution") == 2
    assert roles.count("core") == 1
    # Pod order puts the host-bearing access tier first.
    assert [site.pod for site in fabric.edge_sites()] == [0, 1, 2, 3]


def test_builders_validate_arguments():
    with pytest.raises(ValueError):
        leaf_spine_fabric(edges=0)
    with pytest.raises(ValueError):
        ring_fabric(switches=1)
    with pytest.raises(ValueError):
        campus_fabric(distribution=0)


# ------------------------------------------------- wave-by-wave migration


def test_fleet_reachability_before_during_after_each_wave():
    fabric = leaf_spine_fabric(edges=4, spines=1, hosts_per_edge=1)
    fleet = HarmlessFleet(fabric, wave_size=2)

    # Before: the pure-legacy fabric is fully connected.
    assert fleet.verify_reachability().ok

    # During: after each wave the hybrid fabric still is.
    expected_waves = fleet.plan.num_waves
    assert expected_waves == 3  # edge pairs, then the spine
    seen_sites = []
    while not fleet.complete:
        report = fleet.migrate_next_wave(verify=True)
        assert report.reachability is not None and report.reachability.ok
        seen_sites.extend(report.sites)
        # The not-yet-migrated switches are still plain legacy bridges.
        for name, site in fabric.sites.items():
            if name not in seen_sites:
                assert name not in fleet.deployments
                assert site.switch.port(site.trunk_port).link is None

    # After: every site migrated exactly once, read-back is clean.
    assert sorted(seen_sites) == sorted(fabric.sites)
    assert fleet.verify_reachability().ok
    assert fleet.verify_deployments() == {}
    with pytest.raises(HarmlessError):
        fleet.migrate_next_wave()


def test_fleet_plan_mirrors_fabric():
    fabric = campus_fabric(
        distribution=2, access_per_distribution=1, hosts_per_access=1
    )
    fleet = HarmlessFleet(fabric, wave_size=2)
    planned = [site.name for wave in fleet.plan.waves for site in wave.sites]
    assert planned == list(fabric.sites)
    assert fleet.plan.total_capex > 0
    # Access tier migrates before distribution and core.
    assert planned[:2] == ["acc1-1", "acc2-1"]
    assert planned[-1] == "core"


def test_fleet_failed_wave_rolls_back_and_is_retryable():
    fabric = leaf_spine_fabric(edges=2, spines=1, hosts_per_edge=1)
    fleet = HarmlessFleet(fabric, wave_size=2)
    # Sabotage the second site of wave 1: its config commit fails after
    # the first site has already fully migrated.
    saboteur = fabric.site("edge2").driver
    original_commit = saboteur.commit_config
    saboteur.commit_config = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
    with pytest.raises(HarmlessError, match="rolled back"):
        fleet.migrate_next_wave()
    # The partial progress was unwound: no deployments recorded, the
    # wave is still pending, and edge1's trunk port is free again.
    assert fleet.deployments == {}
    assert fleet.manager.deployments == []
    assert len(fleet.pending_waves) == fleet.plan.num_waves
    edge1 = fabric.site("edge1")
    assert edge1.switch.port(edge1.trunk_port).link is None
    # The legacy config was restored (still connected, pure legacy).
    assert fleet.verify_reachability().ok
    # Fixing the fault lets the same wave run to completion.
    saboteur.commit_config = original_commit
    fleet.migrate_all(verify=True, strict=True)
    assert sorted(fleet.deployments) == sorted(fabric.sites)


#: SETs in one edge1 commit: 3 managed ports x (RowStatus, name,
#: untagged, trunk egress, trunk untagged).
EDGE_COMMIT_SETS = 15


@pytest.mark.parametrize("refused", range(1, EDGE_COMMIT_SETS + 1))
def test_commit_refused_at_any_set_leaves_the_switch_as_it_was(refused):
    """A commit is atomic: whichever SET the device refuses, the legacy
    switch keeps bridging exactly as before and the wave can be retried."""
    fabric = leaf_spine_fabric(edges=2, spines=1, hosts_per_edge=2)
    fleet = HarmlessFleet(fabric, wave_size=1, verify_window_s=0.2)
    edge1 = fabric.site("edge1")
    agent = edge1.driver.connection.agent
    before = edge1.switch.config.copy()
    sets_seen = itertools.count(1)

    def refuse_one_set(request, handle=agent.handle):
        if request.pdu_type is PduType.SET and next(sets_seen) == refused:
            return agent._error(request, SnmpErrorStatus.GEN_ERR, 1)
        return handle(request)

    agent.handle = refuse_one_set
    with pytest.raises(HarmlessError, match="rejected config"):
        fleet.migrate_next_wave()
    assert edge1.switch.config == before
    assert set(edge1.driver.get_vlans()) == set(before.vlans)
    assert edge1.driver.compare_config()  # candidate still loaded
    report = fleet.verify_reachability()
    assert report.ok and report.pairs == 12, report.describe()
    # The fault was transient: the same wave now goes through.
    assert fleet.migrate_next_wave().reachability.ok


def test_fleet_strict_raises_when_fabric_breaks():
    fabric = leaf_spine_fabric(edges=2, spines=1, hosts_per_edge=1)
    fleet = HarmlessFleet(fabric, wave_size=2)
    # Sabotage: cut edge2's uplink after planning, before migrating.
    uplink = fabric.site("edge2").uplink_ports[0]
    fabric.site("edge2").switch.link_down(uplink)
    with pytest.raises(HarmlessError):
        fleet.migrate_all(verify=True, strict=True)


# ---------------------------------------------- legacy/migrated differential


def _run_two_switch_scenario(migrate: bool) -> "list[bytes]":
    """Identical traffic through a 2-switch fabric; returns the exact
    bytes of every IPv4 frame the destination host received."""
    fabric = ring_fabric(switches=2, hosts_per_switch=1, break_loop=True)
    src, dst = fabric.hosts
    if migrate:
        fleet = HarmlessFleet(fabric, wave_size=2, cost_model=ZERO)
        fleet.migrate_all(verify=False)
    capture = Capture(
        "dst-rx",
        filter_fn=lambda frame: frame.ethertype == ETHERTYPE_IPV4
        and frame.dst == dst.mac,
    ).attach(dst.port0)

    sim = fabric.sim
    src.ping(dst.ip)  # resolves ARP, seeds learning everywhere
    sim.run(until=sim.now + 1.0)
    for index in range(5):
        src.send_udp(dst.ip, 4000 + index, bytes([index]) * 16)
    sim.run(until=sim.now + 1.0)
    return [entry.frame.to_bytes() for entry in capture if entry.direction == "rx"]


def test_two_switch_fabric_forwards_bit_identically():
    """Hops legacy or migrated: the delivered frames are byte-equal."""
    legacy_frames = _run_two_switch_scenario(migrate=False)
    migrated_frames = _run_two_switch_scenario(migrate=True)
    assert len(legacy_frames) == 6  # 1 echo request + 5 UDP datagrams
    assert legacy_frames == migrated_frames


# ------------------------------------------- multi-hop burst-mode traffic


def _migrated_burst_fabric(edges: int):
    fabric = leaf_spine_fabric(
        edges=edges, spines=1, hosts_per_edge=1, gen_ports_per_edge=1,
        processing_delay_s=0.0, queue_frames=100_000,
    )
    fleet = HarmlessFleet(
        fabric, wave_size=2, cost_model=ZERO, queue_frames=100_000
    )
    fleet.migrate_all(verify=True, strict=True)
    stations = []
    for index, site in enumerate(fabric.edge_sites()):
        station = BurstSource(fabric.sim, f"gen{index}")
        fabric.attach_station(site.name, station, bandwidth_bps=None)
        stations.append(station)
    return fabric, fleet, stations


def test_cross_pod_bursts_cross_migrated_chains():
    fabric, fleet, stations = _migrated_burst_fabric(edges=2)
    sim = fabric.sim
    flows = cross_pod_flows(pods=2, per_pair=3, seed=7)
    for flow in flows:
        stations[flow.dst_pod].port0.send(announcement_frame(flow.spec))
    sim.run(until=sim.now + 0.5)

    injected = 0
    for pod, station in enumerate(stations):
        specs = [flow.spec for flow in flows if flow.src_pod == pod]
        schedule = burst_schedule(
            rate_pps=1e6, duration_s=0.002, burst_size=32, start_s=sim.now + 1e-3
        )
        bursts = interleave_bursts(
            specs, schedule, seed=pod, weights=zipf_weights(len(specs))
        )
        station.start(bursts)
        injected += sum(len(frames) for _, frames in bursts)
    before = sum(station.rx_count for station in stations)
    sim.run(until=sim.now + 1.0)
    delivered = sum(station.rx_count for station in stations) - before
    assert delivered == injected

    # Every hop's S4 actually ran compiled: the SS_1 translator and the
    # SS_2 learning pipeline are both specialization-eligible.
    for deployment in fleet.deployments.values():
        for switch in (deployment.s4.ss1, deployment.s4.ss2):
            assert switch.stats()["specialization"]["specialized_frames"] > 0


def test_cross_pod_flow_population():
    flows = cross_pod_flows(pods=3, per_pair=2, seed=0)
    assert len(flows) == 3 * 2 * 2  # ordered pairs x per_pair
    tuples = {
        (f.spec.src_ip, f.spec.dst_ip, f.spec.src_port, f.spec.dst_port)
        for f in flows
    }
    assert len(tuples) == len(flows)  # every 5-tuple distinct
    for flow in flows:
        assert flow.src_pod != flow.dst_pod
        assert flow.spec.src_mac == station_mac(flow.src_pod)
        assert flow.spec.dst_mac == station_mac(flow.dst_pod)
    announcement = announcement_frame(flows[0].spec)
    assert announcement.src == flows[0].spec.dst_mac
    assert announcement.dst == BROADCAST_MAC
    with pytest.raises(ValueError):
        cross_pod_flows(pods=1)


# ------------------------------------------ legacy burst-path equivalence
#
# LegacySwitch.receive_burst replays a per-burst forwarding plan for
# plain known-unicast frames instead of re-running receive(); it must
# be indistinguishable from sequential receive() calls.  Seeded
# generative differential: each round draws a switch (VLAN layout, CAM
# size, aging, static entries, STP, storm meter, a dead port) and plays
# the same bursts into two copies of it — one fed Port.send_burst, one
# fed Port.send frame by frame over the same ideal links.


class _Recorder(Node):
    """Captures whatever its single port receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.add_port(1)
        self.frames = []

    def receive(self, port, frame):
        self.frames.append(frame.to_bytes())


#: Case-count multiplier; the nightly extended job sets this to 5.
_SCALE = max(1, int(os.environ.get("DIFFERENTIAL_SCALE", "1")))
_LEGACY_SEED = 0x1E6AC7
_LEGACY_ROUNDS = 20
_LEGACY_BURSTS_PER_ROUND = 50

#: Stations whose MAC *objects* recur across frames, the way frames
#: derived from one per-flow template share them.
_STATIONS = [MACAddress(0x02_00_00_00_10_00 + n) for n in range(8)]
_NEVER_LEARNED = MACAddress(0x02_00_00_00_99_99)
_GROUP = MACAddress(0x01_00_5E_00_00_07)


def _legacy_scenario(rng):
    """One round's switch, as plain data both copies are built from."""
    dead_port = rng.choice([None, None, 2, 6])
    # Pinned entries: stations, and now and then the group address.
    statics = [
        (rng.choice([10, 20]), rng.randrange(len(_STATIONS) + 1), rng.randint(1, 6))
        for _ in range(rng.choice([0, 0, 1, 2]))
    ]
    if dead_port is not None and rng.random() < 0.5:
        # The dead port's resident, pinned to it: known, yet filtered.
        statics.append((10, 1, 2) if dead_port == 2 else (20, 3, 6))
    return {
        "capacity": rng.choice([4, 8192, 8192]),  # a small CAM evicts mid-burst
        "aging_s": rng.choice([0.02, 300.0, 300.0]),  # short aging expires at lookup
        "trunk_native": rng.choice([None, 30]),
        "dead_port": dead_port,
        "dead_by_link_down": rng.random() < 0.5,
        "stp_ports": rng.choice([(), (), (5,), (4, 5)]),
        "storm": rng.random() < 0.15,
        "statics": statics,
        "gaps": [rng.choice([0.0, 0.001, 0.03]) for _ in range(_LEGACY_BURSTS_PER_ROUND)],
    }


def _legacy_dut(scenario):
    """A zero-delay six-port switch with a recorder on every port:
    1, 2 access VLAN 10; 3, 6 access VLAN 20; 4 trunk 10/20/30 with an
    optional native 30; 5 trunk 20 with native 10."""
    from repro.legacy import LegacySwitch, SpanningTree, StormControl
    from repro.netsim import Link

    sim = Simulator()
    switch = LegacySwitch(
        sim, "sw", num_ports=6, fdb_capacity=scenario["capacity"],
        processing_delay_s=0.0,
    )
    config = switch.config
    config.set_access(1, 10)
    config.set_access(2, 10)
    config.set_access(3, 20)
    config.set_access(6, 20)
    config.set_trunk(4, {10, 20, 30}, native_vlan=scenario["trunk_native"])
    config.set_trunk(5, {20}, native_vlan=10)
    switch.fdb.aging_s = scenario["aging_s"]
    peers = []
    for number in range(1, 7):
        peer = _Recorder(sim, f"peer{number}")
        Link(peer.port(1), switch.port(number), bandwidth_bps=None, queue_frames=10_000)
        peers.append(peer)
    for vlan_id, station, port in scenario["statics"]:
        switch.fdb.add_static(vlan_id, (_STATIONS + [_GROUP])[station], port)
    if scenario["dead_port"] is not None:
        if scenario["dead_by_link_down"]:
            switch.link_down(scenario["dead_port"])
        else:
            config.port(scenario["dead_port"]).enabled = False
    if scenario["stp_ports"]:
        # Alone, the bridge is root: its managed ports walk LISTENING ->
        # LEARNING -> FORWARDING while the bursts arrive.
        SpanningTree(switch, list(scenario["stp_ports"]), forward_delay_s=0.2)
    if scenario["storm"]:
        switch.storm_control = StormControl(rate_fps=100.0, burst=3, recovery_s=0.05)
    return sim, switch, peers


#: Where each station usually lives: (port, tag stack it sends with).
_HOMES = [(1, ()), (2, ()), (3, ()), (6, ()), (4, (10,)), (4, (20,)), (5, (20,)), (5, ())]
#: Stations 0, 1, 4, 7 share VLAN 10; stations 2, 3, 5, 6 VLAN 20.
_VLAN_MATES = [(1, 4, 7), (0, 4, 7), (3, 5, 6), (2, 5, 6), (0, 1, 7), (2, 3, 6), (2, 3, 5), (0, 1, 4)]
_HOSTILE_STACKS = [(), (10,), (20,), (30,), (40,), (0,), (20, 7)]


def _legacy_frame(rng, ingress):
    """A frame for *ingress*: mostly a resident station talking to
    another station, with a visitor (a MAC move), a group source, an
    unlearnable / group destination or a hostile tag stack mixed in."""
    residents = [n for n, (port, _) in enumerate(_HOMES) if port == ingress]
    station = rng.choice(residents)
    stack = _HOMES[station][1]
    roll = rng.random()
    if roll < 0.75:
        src = _STATIONS[station]
    elif roll < 0.85:  # equal value, distinct object: plans key on identity
        src = MACAddress(int(_STATIONS[station]))
    elif roll < 0.95:
        src = rng.choice(_STATIONS)  # a visitor: the FDB sees a move
    else:
        src = _GROUP  # a group source is never learned
    roll = rng.random()
    if roll < 0.60:  # a neighbour in the resident's own VLAN
        dst = _STATIONS[rng.choice(_VLAN_MATES[station])]
    elif roll < 0.70:
        dst = rng.choice(_STATIONS)
    elif roll < 0.78:
        dst = MACAddress(int(rng.choice(_STATIONS)))
    elif roll < 0.86:
        dst = BROADCAST_MAC
    elif roll < 0.91:
        dst = _GROUP
    else:
        dst = _NEVER_LEARNED
    if rng.random() < 0.15:
        # Tagged on access, a VLAN the trunk does not carry, the native
        # VLAN sent tagged, a priority tag, QinQ.
        stack = rng.choice(_HOSTILE_STACKS)
    return EthernetFrame(
        dst=dst,
        src=src,
        ethertype=ETHERTYPE_IPV4,
        payload=bytes([rng.randrange(256)]) * rng.choice([8, 46, 200]),
        tags=[Dot1QTag(vlan_id) for vlan_id in stack],
    )


def _legacy_burst(rng):
    """(ingress port, frames): trains of one frame object, interleaved."""
    ingress = rng.randint(1, 6)
    frames = []
    count = rng.randint(2, 24)
    flows = [_legacy_frame(rng, ingress) for _ in range(rng.randint(1, 5))]
    while len(frames) < count:
        frame = rng.choice(flows) if rng.random() < 0.8 else _legacy_frame(rng, ingress)
        frames.extend([frame] * min(rng.randint(1, 4), count - len(frames)))
    return ingress, frames


def _legacy_learned(switch):
    """Everything a plain frame must leave alone."""
    storm = switch.storm_control
    return (
        [(e.vlan_id, e.mac, e.port, e.learned_at, e.static) for e in switch.fdb.entries()],
        switch.fdb.stats(),
        storm and storm.stats(),
    )


def _legacy_observed(sim, switch, peers):
    counters = switch.counters
    return {
        "now": sim.now,
        "counters": asdict(counters),
        "per_port_rx order": list(counters.per_port_rx),
        "per_port_tx order": list(counters.per_port_tx),
        "fdb entries, fdb stats, storm meter": _legacy_learned(switch),
        "egress bytes": [peer.frames for peer in peers],
        "port counters": [
            (p.tx_frames, p.tx_bytes, p.rx_frames, p.rx_bytes, p.tx_dropped)
            for node in (switch, *peers)
            for p in node.iter_ports()
        ],
        "link stats": [
            (asdict(p.link.stats(p)), asdict(p.link.stats(p.peer)))
            for p in switch.iter_ports()
        ],
    }


def test_legacy_burst_matches_sequential_receive():
    rng = random.Random(_LEGACY_SEED)
    received = replayed = 0
    hazards = {"moves": 0, "evictions": 0, "storm_suppressed": 0, "flooded": 0,
               "filtered_ingress": 0}
    position = (0, 0)
    try:
        for round_index in range(_LEGACY_ROUNDS * _SCALE):
            scenario = _legacy_scenario(rng)
            seq_sim, seq_switch, seq_peers = _legacy_dut(scenario)
            burst_sim, burst_switch, burst_peers = _legacy_dut(scenario)
            calls = []
            plain_receive = burst_switch.receive
            burst_switch.receive = lambda port, frame: (
                calls.append(1), plain_receive(port, frame)
            )
            for burst_index, gap in enumerate(scenario["gaps"]):
                position = (round_index, burst_index)
                ingress, frames = _legacy_burst(rng)
                for frame in frames:
                    seq_peers[ingress - 1].port(1).send(frame)
                burst_peers[ingress - 1].port(1).send_burst(frames)
                seq_sim.run(until=seq_sim.now + gap)
                burst_sim.run(until=burst_sim.now + gap)
                seen = _legacy_observed(seq_sim, seq_switch, seq_peers)
                got = _legacy_observed(burst_sim, burst_switch, burst_peers)
                for key in seen:
                    assert got[key] == seen[key], key
            received += burst_switch.counters.rx_frames
            replayed += burst_switch.counters.rx_frames - len(calls)
            hazards["moves"] += burst_switch.fdb.move_events
            hazards["evictions"] += burst_switch.fdb.evictions
            for name in ("storm_suppressed", "flooded", "filtered_ingress"):
                hazards[name] += getattr(burst_switch.counters, name)
    except AssertionError:
        print(
            f"\nDIFFERENTIAL FAILURE: seed=0x{_LEGACY_SEED:X} "
            f"round={position[0]} burst_index={position[1]}"
        )
        raise
    # The mix reaches both sides of the plan: about a tenth of the
    # frames is replayed (the rest are first-of-key or not plain), and
    # every hazard that must drop or refuse a plan occurs.
    assert replayed > 1000 * _SCALE, (replayed, received)
    assert all(hazards.values()), hazards


def test_legacy_burst_plan_promises_only_counters():
    """``_burst_plan`` on its own: whenever it calls a frame plain,
    ``receive`` of that frame moves nothing but the rx/tx counters and
    emits exactly the planned frame on the planned port."""
    rng = random.Random(_LEGACY_SEED + 1)
    plans = 0
    position = (0, 0)
    try:
        for round_index in range(_LEGACY_ROUNDS * _SCALE):
            sim, switch, _ = _legacy_dut(_legacy_scenario(rng))
            emitted = []
            for port in switch.iter_ports():
                port.send = lambda frame, port=port: (
                    emitted.append((port.number, frame.to_bytes())),
                    type(port).send(port, frame),
                )
            for burst_index in range(_LEGACY_BURSTS_PER_ROUND):
                position = (round_index, burst_index)
                ingress, frames = _legacy_burst(rng)
                for frame in frames:  # all at one instant, as in a burst
                    plan = switch._burst_plan(ingress, frame)
                    learned = _legacy_learned(switch)
                    counters = asdict(switch.counters)
                    emitted.clear()
                    switch.receive(switch.port(ingress), frame)
                    if plan is None:
                        continue
                    plans += 1
                    pop, push_vid, out_port = plan
                    expected = frame.pop_vlan() if pop else frame
                    if push_vid is not None:
                        expected = expected.push_vlan(push_vid)
                    assert _legacy_learned(switch) == learned
                    counters["rx_frames"] += 1
                    counters["tx_frames"] += 1
                    counters["per_port_rx"][ingress] += 1
                    sent = counters["per_port_tx"].get(out_port, 0)
                    counters["per_port_tx"][out_port] = sent + 1
                    assert asdict(switch.counters) == counters
                    assert emitted == [(out_port, expected.to_bytes())]
                sim.run(until=sim.now + rng.choice([0.0, 0.001, 0.03]))
    except AssertionError:
        print(
            f"\nDIFFERENTIAL FAILURE: seed=0x{_LEGACY_SEED + 1:X} "
            f"round={position[0]} burst_index={position[1]}"
        )
        raise
    assert plans > 1000 * _SCALE, plans

