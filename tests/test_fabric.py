"""Fabric-scale scenarios: topology builders + fleet-wide rollout.

Covers the three builder families, reachability before/during/after
every migration wave, the legacy-vs-migrated differential (a 2-switch
fabric must deliver bit-identical frames either way), cross-pod
burst traffic across chains of migrated SoftSwitches, seeded cross-pod
mixes on every builder at every migration stage (a trunk flap under
them loses frames, replays bit-identically and heals), and a broadcast
storm played into an unprotected ring as a fault input.  (The legacy
switch's own cache-vs-general-path differential lives in
``test_legacy_differential.py``.)
"""

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import asdict

import pytest

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.controller.app import ControllerApp
from repro.core import HarmlessError, HarmlessFleet
from repro.fabric import Fabric, campus_fabric, leaf_spine_fabric, ring_fabric
from repro.net.addresses import BROADCAST_MAC
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.netsim import Capture, FaultInjector, Simulator
from repro.snmp import PduType, SnmpErrorStatus
from repro.snmp.client import SnmpTimeout
from repro.softswitch import DatapathCostModel
from repro.traffic import (
    BurstSource,
    announcement_frame,
    burst_schedule,
    cross_pod_flows,
    interleave_bursts,
    station_mac,
    synth_frame,
    zipf_weights,
)
from repro.traffic.generators import storm_frames

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


def test_fleet_sweeps_default_to_every_ordered_host_pair():
    fabric = leaf_spine_fabric(edges=4, spines=1, hosts_per_edge=1)
    fleet = HarmlessFleet(fabric, wave_size=2)
    probed = []
    for host in fabric.hosts:
        def ping(ip, _ping=host.ping, _name=host.name):
            probed.append((_name, str(ip)))
            return _ping(ip)
        host.ping = ping
    every_pair = sorted(
        (src.name, str(dst.ip))
        for src, dst in itertools.permutations(fabric.hosts, 2)
    )

    def sweeps_cover_every_pair():
        probed.clear()
        report = fleet.verify_reachability()
        assert report.ok and report.pairs == len(every_pair)
        assert sorted(probed) == every_pair
        probed.clear()
        resilience = fleet.await_reconvergence()
        assert resilience.converged and resilience.sweeps == 1
        assert resilience.pairs_per_sweep == len(every_pair)
        assert sorted(probed) == every_pair

    assert len(fabric.hosts) == 4
    sweeps_cover_every_pair()
    fleet.migrate_next_wave(verify=False)
    sweeps_cover_every_pair()


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
    # Sabotage the second site of wave 1: its config commit times out
    # after the first site has already fully migrated.
    saboteur = fabric.site("edge2").driver
    original_commit = saboteur.commit_config
    saboteur.commit_config = lambda: (_ for _ in ()).throw(SnmpTimeout("boom"))
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


def test_fleet_bug_mid_wave_surfaces_as_itself_after_the_unwind():
    """Only the failures a bring-up expects become a HarmlessError; a
    bug in one (here a TypeError from SS_2's controller hookup) unwinds
    the wave exactly the same way and then surfaces unwrapped."""
    fabric = leaf_spine_fabric(edges=2, spines=1, hosts_per_edge=1)
    fleet = HarmlessFleet(fabric, wave_size=2)
    connect = fleet.controller.connect
    calls = []

    def buggy(switch, **kwargs):
        calls.append(switch.name)
        if len(calls) == 2:
            raise TypeError("bug in the second site's bring-up")
        return connect(switch, **kwargs)

    fleet.controller.connect = buggy
    with pytest.raises(TypeError, match="bug in the second"):
        fleet.migrate_next_wave()
    assert fleet.deployments == {} and fleet.manager.deployments == []
    for name in ("edge1", "edge2"):
        site = fabric.site(name)
        assert site.switch.port(site.trunk_port).link is None
    assert fleet.verify_reachability().ok
    fleet.controller.connect = connect
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
    fabric = ring_fabric(switches=2, hosts_per_switch=1)
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
    # One frame per flow installs the reactive rules: what follows is
    # steady state.
    for flow in flows:
        stations[flow.src_pod].port0.send(flow.spec.frame(payload_len=32))
    sim.run(until=sim.now + 0.5)
    switches = [
        switch
        for deployment in fleet.deployments.values()
        for switch in (deployment.s4.ss1, deployment.s4.ss2)
    ]
    fallback_before = [switch.fallback_frames for switch in switches]
    app = fleet.controller.apps[0]
    packet_ins_before = app.packet_ins_handled

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

    # Every hop's S4 ran compiled and only compiled: the SS_1 translator
    # and the SS_2 learning pipeline are both specialization-eligible,
    # so no frame of the window fell back to the interpreter, and none
    # reached the controller.
    assert [switch.fallback_frames for switch in switches] == fallback_before
    assert app.packet_ins_handled == packet_ins_before
    for switch in switches:
        assert switch.specialized_frames > 0


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


# ------------------------------------------------ seeded cross-pod mixes
#
# Randomized cross-pod burst mixes on all three builder families, run on
# one simulator: every frame addressed to a station lands there exactly
# once at any migration stage, reruns and sliced runs are bit-identical,
# and the management plane reads back what the data plane learned.

MIX_PODS = 4
MIX_TOPOLOGIES = {
    "leaf_spine": lambda sim: leaf_spine_fabric(
        edges=4, spines=2, hosts_per_edge=1, gen_ports_per_edge=1, sim=sim
    ),
    "ring": lambda sim: ring_fabric(
        switches=4, hosts_per_switch=1, gen_ports_per_switch=1, sim=sim
    ),
    "campus": lambda sim: campus_fabric(
        distribution=2, access_per_distribution=2, hosts_per_access=1,
        gen_ports_per_access=1, sim=sim,
    ),
}
#: Waves migrated before the mixes: none, the first (a hybrid fabric),
#: every one.
MIX_STAGES = {"legacy": 0, "hybrid": 1, "migrated": None}


def _payload_hash(in_port: int, data: bytes) -> str:
    return hashlib.sha1(in_port.to_bytes(4, "big") + data).hexdigest()[:16]


class PacketInRecorder(ControllerApp):
    """Records every packet-in as a per-switch multiset of payload hashes.

    A *multiset* (sorted hashes), not a sequence, so the comparison is
    about which packet-ins a run raised, not the order among
    simultaneous ones.  Register it before the forwarding app so it
    observes without consuming.
    """

    def __init__(self) -> None:
        self.by_switch: "dict[str, list[str]]" = {}

    def on_packet_in(self, dp, msg) -> bool:  # noqa: D102 - base class doc
        self.by_switch.setdefault(dp.name, []).append(
            _payload_hash(msg.in_port, msg.data)
        )
        return False

    def digest(self) -> "dict[str, list[str]]":
        return {name: sorted(hashes) for name, hashes in self.by_switch.items()}


def site_digest(
    fabric: Fabric, site_name: str, fleet=None, include_rtts: bool = False
) -> dict:
    """Everything observable at one site, as comparable plain data.

    Covers the legacy switch (aggregate + per-port counters, FDB
    contents), its ports, its hosts (IP deliveries + per-ping
    outcomes), its stations, and — when *fleet* has migrated the
    site — the S4 datapath counters.  Ping RTTs are excluded by
    default: when two probes to the *same* destination tie at a shared
    trunk, their serialisation order (hence their RTT split) is
    tie-dependent, while loss/delivery is not.  Pass
    ``include_rtts=True`` for scenarios without such contention.
    """
    site = fabric.sites[site_name]
    switch = site.switch
    counters = {
        key: sorted(value.items()) if isinstance(value, dict) else value
        for key, value in asdict(switch.counters).items()
    }
    digest = {
        "counters": counters,
        "fdb": sorted(
            (entry.vlan_id, str(entry.mac), entry.port, entry.static)
            for entry in switch.fdb._entries.values()
        ),
        "ports": {
            number: (
                port.rx_frames,
                port.rx_bytes,
                port.tx_frames,
                port.tx_bytes,
                port.tx_dropped,
            )
            for number, port in sorted(switch.ports.items())
        },
        "hosts": {
            host.name: {
                "rx_ip_packets": host.rx_ip_packets,
                "pings": [
                    (result.sequence, result.lost)
                    for result in host.ping_results
                ],
                **(
                    {"rtts": host.rtts()} if include_rtts else {}
                ),
            }
            for host in site.hosts
        },
        "stations": {
            node.name: {"sent": node.sent, "rx": node.rx_count}
            for node in fabric.stations.get(site_name, [])
            if hasattr(node, "sent")
        },
    }
    deployment = getattr(fleet, "deployments", {}).get(site_name) if fleet else None
    if deployment is not None:
        digest["s4"] = {
            half.name: (
                half.packets_forwarded,
                half.packets_dropped,
                half.packets_to_controller,
            )
            for half in (deployment.s4.ss1, deployment.s4.ss2)
        }
    return digest


class AddressedStation(BurstSource):
    """A burst source that also tallies the frames addressed to it."""

    def __init__(self, sim, name, pod):
        super().__init__(sim, name)
        self.mac = station_mac(pod)
        self.addressed = Counter()

    def receive(self, port, frame):
        self.rx_count += 1
        if frame.dst == self.mac:
            self.addressed[frame.to_bytes()] += 1


def make_cross_pod_mix(seed, base):
    """Per-pod ``(time, frames)`` bursts of a seeded cross-pod mix."""
    rng = random.Random(seed)
    flows = cross_pod_flows(MIX_PODS, per_pair=1, seed=seed)
    per_pod = {pod: [] for pod in range(MIX_PODS)}
    for flow in rng.sample(flows, k=rng.randint(4, 8)):
        frame = synth_frame(flow.spec, payload_len=rng.choice([64, 128]))
        for _ in range(rng.randint(1, 3)):
            start = base + rng.uniform(0.0005, 0.004)
            per_pod[flow.src_pod].append((start, [frame] * rng.randint(2, 6)))
    for bursts in per_pod.values():
        bursts.sort(key=lambda burst: burst[0])
    return per_pod


class MixRun:
    """One fabric with a learning controller, stations on every pod."""

    def __init__(self, topology, stage="migrated"):
        self.sim = Simulator()
        self.fabric = MIX_TOPOLOGIES[topology](self.sim)
        controller = Controller(self.sim, name="c0")
        self.packet_ins = PacketInRecorder()
        controller.add_app(self.packet_ins)
        controller.add_app(LearningSwitchApp())
        self.fleet = HarmlessFleet(self.fabric, controller=controller, wave_size=2)
        waves = MIX_STAGES[stage]
        if waves is None:
            self.fleet.migrate_all(verify=True, strict=True)
        for _ in range(waves or 0):
            self.fleet.migrate_next_wave(verify=True)
        self.stations = []
        for site in self.fabric.edge_sites():
            station = AddressedStation(self.sim, f"gen-{site.pod}", site.pod)
            self.fabric.attach_station(site.name, station)
            self.stations.append(station)
        #: What each pod's station must receive, addressed to it.
        self.expected = [Counter() for _ in self.stations]

    def play(self, seeds, window_s=0.012, max_events=None):
        for seed in seeds:
            base = self.sim.now
            mix = make_cross_pod_mix(seed, base + 0.001)
            for pod, bursts in mix.items():
                if bursts:
                    self.stations[pod].start(bursts)
                for _, frames in bursts:
                    for frame in frames:
                        dst_pod = (int(frame.dst) >> 8) & 0xFF
                        self.expected[dst_pod][frame.to_bytes()] += 1
            if max_events is None:
                self.sim.run(until=base + window_s)
            else:
                while self.sim.run(until=base + window_s, max_events=max_events):
                    pass
        return self

    def digests(self):
        sites = {
            name: site_digest(self.fabric, name, fleet=self.fleet, include_rtts=True)
            for name in self.fabric.sites
        }
        return sites, self.packet_ins.digest()


@pytest.mark.parametrize("stage", sorted(MIX_STAGES))
@pytest.mark.parametrize("topology", sorted(MIX_TOPOLOGIES))
def test_mix_delivers_every_addressed_frame_exactly_once(topology, stage):
    run = MixRun(topology, stage).play(range(3))
    assert sum(sum(expected.values()) for expected in run.expected) > 100
    for pod, station in enumerate(run.stations):
        assert station.addressed == run.expected[pod], f"pod {pod}"
    migrated = run.fleet.migrated_sites
    if stage == "legacy":
        assert migrated == []
    elif stage == "hybrid":
        assert 0 < len(migrated) < len(run.fabric.sites)
    else:
        assert sorted(migrated) == sorted(run.fabric.sites)


@pytest.mark.parametrize("topology", sorted(MIX_TOPOLOGIES))
def test_mix_in_event_slices_equals_one_run(topology):
    """A run in event slices is the run in one go, digest for digest;
    a rerun of a mix with a fault reproduces its digests too
    (``test_trunk_flap_loses_frames_then_heals``)."""
    whole = MixRun(topology).play(range(3))
    sliced = MixRun(topology).play(range(3), max_events=97)
    assert sliced.digests() == whole.digests()
    assert sliced.sim.events_processed == whole.sim.events_processed
    assert sliced.sim.now == whole.sim.now
    sites, pins = whole.digests()
    assert any(pins.values()), "the mixes raised no packet-in"
    # A different mix is visible in the digest.
    other_sites, _ = MixRun(topology).play(range(3, 6)).digests()
    assert other_sites != sites


@pytest.mark.parametrize("topology", sorted(MIX_TOPOLOGIES))
def test_digest_reports_s4_for_migrated_sites_only(topology):
    run = MixRun(topology, "hybrid").play(range(2))
    sites, _ = run.digests()
    migrated = set(run.fleet.migrated_sites)
    assert {name for name, digest in sites.items() if "s4" in digest} == migrated
    for name in migrated:
        forwarded = [halves[0] for halves in sites[name]["s4"].values()]
        assert all(forwarded), f"{name}: an S4 half forwarded nothing"


@pytest.mark.parametrize("topology", sorted(MIX_TOPOLOGIES))
def test_drivers_read_back_what_the_mix_taught(topology):
    run = MixRun(topology, "legacy").play(range(2))
    for name, site in run.fabric.sites.items():
        assert site.driver.is_alive()
        assert site.driver.get_facts()["hostname"] == name
        learned = sorted(
            (entry["mac"], site.driver.parse_interface(entry["interface"]))
            for entry in site.driver.get_mac_address_table()
        )
        fdb = sorted(
            (str(entry.mac), entry.port)
            for entry in site.switch.fdb._entries.values()
        )
        assert learned == fdb and learned, name


def test_idle_tail_costs_no_events():
    run = MixRun("leaf_spine").play(range(2))
    events = run.sim.events_processed
    quiet_from = run.sim.now
    assert run.sim.run(until=quiet_from + 30.0) == 0
    assert run.sim.events_processed == events
    assert run.sim.now == quiet_from + 30.0


def stormed_ring(stage):
    """The ring, unprotected, with pod 0's station babbling 480
    broadcasts over 4 ms into the first mix window."""
    run = MixRun("ring", stage)
    base = run.sim.now
    run.stations[0].start(
        [(base + 0.0012 + index * 1e-4, storm_frames(12)) for index in range(40)]
    )
    return run.play(range(3))


@pytest.mark.parametrize("stage", ["legacy", "hybrid", "migrated"])
def test_storm_floods_unmetered_and_replays(stage):
    run = stormed_ring(stage)
    for station in run.stations[1:]:  # nothing meters it: every copy floods out
        assert station.rx_count - sum(station.addressed.values()) >= 480
    for expected, station in zip(run.expected, run.stations):
        assert not station.addressed - expected  # nothing duplicated
    assert stormed_ring(stage).digests() == run.digests()

    # With the storm drained, mixes land exactly.
    for station in run.stations:
        station.addressed.clear()
    run.expected = [Counter() for _ in run.stations]
    run.play(range(3, 6))
    for pod, station in enumerate(run.stations):
        assert station.addressed == run.expected[pod], f"pod {pod}"


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
