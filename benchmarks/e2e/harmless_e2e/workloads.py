"""The four benchmark workloads: rig builders, load generators, drivers.

Every workload is the same three steps, timed separately by
:func:`run_pass`:

``build(seed)``
    wire the rig, migrate it through the HARMLESS manager/fleet and
    prime it so the measured region is steady state  (-> ``setup_s``;
    rigs that build in tens of milliseconds are built ``setup_builds``
    times per pass, so that one sample of ``setup_s`` is >= 0.3 s of work);
``generate(rig, seed, frames)``
    turn the seed into the offered load; the program under test only
    ever sees the generated frames  (-> ``traffic.gen_self_us_per_frame``);
``drive(rig, load)``
    the measured region  (-> ``frames_per_s`` / ``sites_per_s``), a
    generator that yields about every quarter of a second of host time
    (see :func:`drain`) so the harness can read the host's speed there,
    and returns the pass's outcome.

A pass always runs on a **fresh rig**: on one reused 4-edge fabric
eight consecutive passes drifted 4 694 -> 3 301 frames/s as the heap
retained by earlier passes grew, so reuse cannot repeat within a tenth.

Only ``repro.*`` and the standard library are imported here; nothing
comes from ``benchmarks/common.py`` or the ``bench_*.py`` scripts.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.apps import DmzPolicyApp, LearningSwitchApp, Vm
from repro.controller import Controller
from repro.core import HarmlessFleet, HarmlessManager, HarmlessS4, PortVlanMap
from repro.fabric import leaf_spine_fabric
from repro.legacy import LegacySwitch
from repro.mgmt import DeviceConnection, get_network_driver
from repro.net import IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.netsim import Link, Simulator
from repro.nfpa import make_sink
from repro.snmp import SnmpAgent, attach_bridge_mib
from repro.softswitch import ESWITCH_COST_MODEL, DatapathCostModel, SoftSwitch
from repro.traffic import (
    BurstSource,
    announcement_frame,
    burst_schedule,
    cross_pod_flows,
    interleave_bursts,
    make_flow_population,
    zipf_weights,
)

from .hostspeed import Stopwatch

ZERO_COST = DatapathCostModel.zero()

#: Frames per coalesced burst on the burst workloads.
BURST = 32
#: Deep enough that a whole pass injected at 1 Mpps never tail-drops.
DEEP_QUEUE = 1_000_000
#: Host/trunk speed on ``site_detour`` (the paper's 10 GbE testbed).
TEN_GBE = 10_000_000_000


# --------------------------------------------------------------------------
# Rig, snapshot, digest
# --------------------------------------------------------------------------


@dataclass
class Rig:
    """What a built workload exposes to the harness."""

    sim: Simulator
    #: Nodes that exist before any migration (legacy switches, hosts,
    #: stations, sinks).
    nodes: list
    #: Receive counters of the load's endpoints, by name.
    endpoints: dict
    #: The HARMLESS-S4 instances deployed so far (read lazily: the
    #: wave workload deploys them inside the measured region).
    s4s: "Callable[[], list[HarmlessS4]]" = list
    extra: dict = field(default_factory=dict)

    def endpoints_now(self) -> dict:
        return {name: read() for name, read in sorted(self.endpoints.items())}

    def softswitches(self) -> "list[SoftSwitch]":
        return [switch for s4 in self.s4s() for switch in (s4.ss1, s4.ss2)]

    def legacy_switches(self) -> "list[LegacySwitch]":
        return [node for node in self.nodes if isinstance(node, LegacySwitch)]

    def links(self) -> list:
        """Every link reachable from the rig's nodes, each once, in a
        deterministic order (node order, then port number)."""
        seen: dict = {}
        for node in itertools.chain(self.nodes, self.softswitches()):
            for port in node.iter_ports():
                if port.link is not None:
                    seen.setdefault(id(port.link), port.link)
        return list(seen.values())


def _link_directions(link) -> list:
    return [link.stats(link.port_a), link.stats(link.port_b)]


def snapshot(rig: Rig) -> dict:
    """Monotone counters of every layer, summed over the rig.

    Read twice — before and after the measured region — so the
    difference is what the region did, whatever set-up did before it.
    All of them are functions of seed and code, never of the host.
    Only what a metric reads is here; :func:`sim_digest` covers the rest.
    """
    stats = [switch.stats() for switch in rig.softswitches()]
    directions = [d for link in rig.links() for d in _link_directions(link)]
    legacy = rig.legacy_switches()
    return {
        "events": rig.sim.events_processed,
        "link_drops": sum(d.drops for d in directions),
        "queue_hwm": max((d.queue_hwm for d in directions), default=0),
        "legacy_rx": sum(sw.counters.rx_frames for sw in legacy),
        "legacy_flooded": sum(sw.counters.flooded for sw in legacy),
        "packet_ins": sum(s["packets_to_controller"] for s in stats),
        "specialized": sum(s["specialization"]["specialized_frames"] for s in stats),
        "fallback": sum(s["specialization"]["fallback_frames"] for s in stats),
        "compiles": sum(s["specialization"]["compiles"] for s in stats),
        "invalidations": sum(s["specialization"]["invalidations"] for s in stats),
        "translator_rules": sum(len(s4.ss1.tables[0]) for s4 in rig.s4s()),
    }


def counter_delta(before: dict, after: dict) -> dict:
    delta = {key: after[key] - before[key] for key in after}
    delta["queue_hwm"] = after["queue_hwm"]  # a high-water mark, not a sum
    return delta


def sim_digest(rig: Rig) -> str:
    """sha256 over everything simulated: clock, event count, endpoint
    receive counts and every datapath/legacy/link counter.  Two runs of
    one seed on one commit must agree bit for bit; so must a commit
    that only makes the simulator faster."""
    state = {
        "now": repr(rig.sim.now),
        "events": rig.sim.events_processed,
        "endpoints": rig.endpoints_now(),
        "softswitch": [switch.stats() for switch in rig.softswitches()],
        "legacy": [asdict(switch.counters) for switch in rig.legacy_switches()],
        "links": [
            [asdict(d) for d in _link_directions(link)] for link in rig.links()
        ],
    }
    return hashlib.sha256(repr(state).encode()).hexdigest()


@dataclass
class PassResult:
    """One pass of one workload."""

    #: Host seconds as the clock read them, and at nominal host speed
    #: (see ``hostspeed``; equal when no reference was taken).
    setup_s: float
    setup_nominal_s: float
    gen_s: float
    wall_s: float
    wall_nominal_s: float
    #: Units of work completed in the measured region: frames delivered
    #: on the steady workloads, sites migrated+verified on the wave.
    units: int
    injected: int
    delivered: int
    expected_drops: int
    #: Simulated-time results (pure functions of seed and code).
    sim: dict
    #: Region deltas of :func:`snapshot` plus workload-specific counts.
    counters: dict
    digest: str
    #: Output checks that failed (empty = the pass is correct).
    problems: list
    #: Units of work that were attempted: frames injected, sites planned.
    attempted: int

    @property
    def lost(self) -> int:
        """Frames (on the wave: pings) that went missing."""
        return self.injected - self.delivered - self.expected_drops

    @property
    def host_speed(self) -> float:
        """Host speed in the measured region, as a multiple of nominal."""
        return self.wall_nominal_s / self.wall_s


def drain(sim: Simulator, slice_events: int):
    """Run *sim* dry, yielding every *slice_events* events.

    ``run(max_events=...)`` neither moves the clock nor reorders
    anything, so the simulation is the one a single ``sim.run()`` makes.
    """
    while sim.pending_events:
        sim.run(max_events=slice_events)
        yield


def _advance(steps):
    """Resume *steps*; its return value once it ends, else ``None``."""
    try:
        next(steps)
    except StopIteration as stop:
        return stop.value
    return None


def run_pass(workload, seed: int, frames: int, tracer=None, reference=None) -> PassResult:
    """Build a fresh rig, generate the load, time the measured region.

    With a *reference* (a ``hostspeed.Reference``) every timed stretch —
    the builds, each slice of the region — is scaled to nominal host
    speed by reference timings taken just before and after it.
    """

    def build():
        for _ in range(workload.setup_builds):
            rig = None  # one rig alive at a time, as in a single set-up
            rig = workload.build(seed)
        return rig

    gc.collect()  # the previous pass's rig; GC mode itself stays default
    host = Stopwatch(reference)
    rig, setup_s, setup_nominal_s = host.time(build)

    start = time.perf_counter()
    load = workload.generate(rig, seed, frames)
    gen_s = time.perf_counter() - start

    before = snapshot(rig)
    rx_before = sum(rig.endpoints_now().values())
    host.refresh()
    if tracer is not None:
        tracer.begin_region()
    steps = workload.drive(rig, load)
    wall_s = wall_nominal_s = 0.0
    outcome = None
    while outcome is None:
        outcome, raw_s, nominal_s = host.time(lambda: _advance(steps))
        wall_s += raw_s
        wall_nominal_s += nominal_s
    if tracer is not None:
        tracer.end_region(wall_s)

    counters = counter_delta(before, snapshot(rig))
    counters.update(outcome.get("counters", {}))
    delivered = outcome.get(
        "delivered", sum(rig.endpoints_now().values()) - rx_before
    )
    result = PassResult(
        setup_s=setup_s / workload.setup_builds,
        setup_nominal_s=setup_nominal_s / workload.setup_builds,
        gen_s=gen_s,
        wall_s=wall_s,
        wall_nominal_s=wall_nominal_s,
        units=outcome.get("units", delivered),
        injected=outcome["injected"],
        delivered=delivered,
        expected_drops=outcome.get("expected_drops", 0),
        sim=outcome.get("sim", {}),
        counters=counters,
        digest=sim_digest(rig),
        problems=list(outcome.get("problems", [])),
        attempted=outcome.get("attempted", outcome["injected"]),
    )
    if workload.steady and result.lost != 0:
        result.problems.append(
            f"conservation: injected {result.injected} != delivered "
            f"{result.delivered} + expected drops {result.expected_drops}"
        )
    return result


# --------------------------------------------------------------------------
# Shared rig plumbing
# --------------------------------------------------------------------------


def _deployed(manager: HarmlessManager) -> "Callable[[], list[HarmlessS4]]":
    return lambda: [deployment.s4 for deployment in manager.deployments]


# --------------------------------------------------------------------------
# site_detour — the paper's Fig. 1 measurement
# --------------------------------------------------------------------------


class StampedSource(BurstSource):
    """Sends single frames at their due times and tells the sink when
    each one left, so the sink can time the one-way trip."""

    def play(self, sink, schedule: "list[tuple[float, object]]") -> None:
        self.sim.schedule_many(
            (due, (lambda f=frame, t=due: self.fire(sink, f, t)))
            for due, frame in schedule
        )

    def fire(self, sink, frame, due: float) -> None:
        sink.expect(frame, due)
        self.sent += 1
        self.port0.send(frame)


class SiteDetour:
    """host -> LegacySwitch (4 us) -> 10 GbE trunk -> SS_1 -> SS_2 ->
    SS_1 -> trunk -> LegacySwitch -> sink, one frame per event."""

    name = "site_detour"
    steady = True
    default_frames = 6_000
    setup_builds = 10
    slice_events = 18_000
    FLOWS = 16
    #: Wire sizes cycled per frame: smallest, IMIX-middle, largest.
    WIRE_SIZES = (64, 594, 1518)
    #: Offered load as a share of the tighter of the two ceilings.
    LOAD = 0.7
    _UDP_OVERHEAD = 14 + 20 + 8

    def _site(self, migrate: bool):
        sim = Simulator()
        legacy = LegacySwitch(sim, "edge", num_ports=3, processing_delay_s=4e-6)
        source = StampedSource(sim, "src")
        sink = make_sink(sim, "harmless" if migrate else "legacy-only")
        Link(source.port0, legacy.port(1), bandwidth_bps=TEN_GBE)
        Link(legacy.port(2), sink.add_port(1), bandwidth_bps=TEN_GBE)
        manager = None
        if migrate:
            controller = Controller(sim)
            controller.add_app(LearningSwitchApp())
            manager = HarmlessManager(
                sim,
                controller=controller,
                cost_model=ESWITCH_COST_MODEL,
                trunk_bandwidth_bps=TEN_GBE,
            )
            mib, _ = attach_bridge_mib(legacy)
            driver = get_network_driver("sim-ios")(
                DeviceConnection(agent=SnmpAgent(mib), hostname="edge")
            )
            driver.open()
            manager.migrate(legacy, driver, trunk_port=3, access_ports=[1, 2])
            sim.run(until=sim.now + 0.05)
        return Rig(
            sim=sim,
            nodes=[legacy, source, sink],
            endpoints={"sink": lambda: sink.stats.delivered_packets},
            s4s=_deployed(manager) if manager else list,
            extra={"source": source, "sink": sink},
        )

    def _prime(self, rig: Rig, flows) -> None:
        """Teach the FDB and the learning switch every flow's two MACs,
        so the measured frames never leave the data plane."""
        sim, source = rig.sim, rig.extra["source"]
        sink_port = rig.extra["sink"].ports[1]
        for flow in flows:
            sink_port.send(announcement_frame(flow))
        sim.run(until=sim.now + 0.05)
        for flow in flows:
            source.port0.send(flow.frame(payload_len=22))
        sim.run(until=sim.now + 0.05)
        sink = rig.extra["sink"]
        sink.stats.delivered_packets = 0
        sink.stats.latency.samples.clear()

    def build(self, seed: int) -> Rig:
        rig = self._site(migrate=True)
        rig.extra["flows"] = make_flow_population(self.FLOWS, seed=seed)
        self._prime(rig, rig.extra["flows"])
        return rig

    def offered_pps(self) -> float:
        """0.7 x min(analytic cost-model ceiling, trunk line rate)."""
        model = ESWITCH_COST_MODEL
        detour_s = (
            model.cost_s(lookups=1, actions=2, vlan_ops=1, patch_hops=1)
            + model.cost_s(lookups=1, actions=1, patch_hops=1)
            + model.cost_s(lookups=1, actions=3, vlan_ops=1)
        )
        mean_tagged_bits = 8 * (sum(self.WIRE_SIZES) / len(self.WIRE_SIZES) + 4)
        return self.LOAD * min(1.0 / detour_s, TEN_GBE / mean_tagged_bits)

    def generate(self, rig: Rig, seed: int, frames: int):
        """Poisson arrivals over the flow population, sizes cycling."""
        rng = random.Random(seed)
        rate = self.offered_pps()
        flows = rig.extra["flows"]
        templates = {
            (index, size): flow.frame(payload_len=size - self._UDP_OVERHEAD)
            for index, flow in enumerate(flows)
            for size in self.WIRE_SIZES
        }
        clock = rig.sim.now + 1e-3
        schedule = []
        for index in range(frames):
            clock += rng.expovariate(rate)
            template = templates[
                (rng.randrange(len(flows)), self.WIRE_SIZES[index % 3])
            ]
            stamped = template.copy()
            stamped.payload = template.payload[:-8] + index.to_bytes(8, "big")
            schedule.append((clock, stamped))
        return schedule

    def drive(self, rig: Rig, schedule):
        rig.extra["source"].play(rig.extra["sink"], schedule)
        yield from drain(rig.sim, self.slice_events)
        latency = rig.extra["sink"].stats.latency
        problems = []
        if latency.count != len(schedule):
            problems.append(
                f"latency samples {latency.count} != frames {len(schedule)}"
            )
        p50, p99 = latency.p50, latency.p99
        if not p99 > p50:
            problems.append(
                f"sim p99 {p99} <= p50 {p50}: offered load too low to queue"
            )
        return {
            "injected": len(schedule),
            "sim": {"sim_latency_us_p50": p50 * 1e6, "sim_latency_us_p99": p99 * 1e6},
            "problems": problems,
        }

    def baseline_p50_us(self, seed: int, frames: int) -> float:
        """Median latency of the same schedule over the un-migrated
        legacy switch: what the frame paid before HARMLESS."""
        rig = self._site(migrate=False)
        rig.extra["flows"] = make_flow_population(self.FLOWS, seed=seed)
        self._prime(rig, rig.extra["flows"])
        rig.extra["source"].play(rig.extra["sink"], self.generate(rig, seed, frames))
        rig.sim.run()
        return rig.extra["sink"].stats.latency.p50 * 1e6


# --------------------------------------------------------------------------
# fabric_steady — the ROADMAP north-star number
# --------------------------------------------------------------------------


class FabricSteady:
    """4-edge leaf-spine, fully migrated, zipf cross-pod bursts; every
    frame crosses three migrated hops."""

    name = "fabric_steady"
    steady = True
    default_frames = 4_096
    setup_builds = 1
    slice_events = 1_200
    EDGES = 4
    FLOWS_PER_PAIR = 4
    PAYLOAD = 32

    def build(self, seed: int) -> Rig:
        fabric = leaf_spine_fabric(
            edges=self.EDGES,
            spines=1,
            hosts_per_edge=1,
            gen_ports_per_edge=1,
            processing_delay_s=0.0,
            host_bandwidth_bps=None,
            trunk_bandwidth_bps=None,
            queue_frames=DEEP_QUEUE,
        )
        fleet = HarmlessFleet(
            fabric, wave_size=2, cost_model=ZERO_COST, queue_frames=DEEP_QUEUE
        )
        fleet.migrate_all(verify=True, strict=True)
        stations = []
        for index, site in enumerate(fabric.edge_sites()):
            station = BurstSource(fabric.sim, f"gen{index}")
            fabric.attach_station(site.name, station, bandwidth_bps=None)
            stations.append(station)
        flows = cross_pod_flows(
            pods=self.EDGES, per_pair=self.FLOWS_PER_PAIR, seed=seed
        )
        sim = fabric.sim
        for flow in flows:
            stations[flow.dst_pod].port0.send(announcement_frame(flow.spec))
        sim.run(until=sim.now + 0.5)
        for flow in flows:
            stations[flow.src_pod].port0.send(flow.spec.frame(payload_len=self.PAYLOAD))
        sim.run(until=sim.now + 0.5)
        return Rig(
            sim=sim,
            nodes=[site.switch for site in fabric.sites.values()]
            + fabric.hosts
            + stations,
            endpoints={
                station.name: (lambda s=station: s.rx_count) for station in stations
            },
            s4s=_deployed(fleet.manager),
            extra={"stations": stations, "flows": flows},
        )

    def generate(self, rig: Rig, seed: int, frames: int):
        stations, flows = rig.extra["stations"], rig.extra["flows"]
        per_pod = frames // len(stations)
        start_s = rig.sim.now + 1e-3
        plan = []
        for pod in range(len(stations)):
            specs = [flow.spec for flow in flows if flow.src_pod == pod]
            schedule = burst_schedule(
                rate_pps=1e6,
                duration_s=per_pod / 1e6,
                burst_size=BURST,
                start_s=start_s,
            )
            plan.append(
                interleave_bursts(
                    specs,
                    schedule,
                    seed=seed * 1_000 + pod,
                    weights=zipf_weights(len(specs), skew=1.0),
                    payload_len=self.PAYLOAD,
                    train_len=4,
                )
            )
        return plan

    def drive(self, rig: Rig, plan):
        for station, bursts in zip(rig.extra["stations"], plan):
            station.start(bursts)
        yield from drain(rig.sim, self.slice_events)
        return {
            "injected": sum(len(frames) for bursts in plan for _, frames in bursts)
        }


# --------------------------------------------------------------------------
# site_policy_churn — a 480-rule policy written while it is read
# --------------------------------------------------------------------------


class SitePolicyChurn:
    """One migrated 48-port site under a DMZ policy; cache-hostile L4
    ports, 10% default-deny traffic, and a controller that keeps
    granting and revoking a cross-tenant pair while traffic flows."""

    name = "site_policy_churn"
    steady = True
    default_frames = 6_144
    setup_builds = 6
    slice_events = 1_600
    TENANTS = 8
    VMS_PER_TENANT = 6
    CROSS_SHARE = 0.10
    #: One ``allow``/``revoke`` per this many scheduled frames.
    CHURN_EVERY = 256
    L4_COMBINATIONS = 16_384

    def build(self, seed: int) -> Rig:
        sim = Simulator()
        ports = self.TENANTS * self.VMS_PER_TENANT
        trunk = ports + 1
        legacy = LegacySwitch(sim, "edge", num_ports=trunk, processing_delay_s=0.0)
        vms, stations = [], []
        for index in range(ports):
            tenant, member = divmod(index, self.VMS_PER_TENANT)
            vm = Vm(
                name=f"t{tenant}vm{member}",
                ip=IPv4Address(f"10.0.{tenant}.{member + 1}"),
                mac=MACAddress(0x02_00_00_00_00_01 + index),
                port=index + 1,
            )
            station = BurstSource(sim, vm.name)
            Link(
                station.port0,
                legacy.port(vm.port),
                bandwidth_bps=None,
                queue_frames=DEEP_QUEUE,
            )
            vms.append(vm)
            stations.append(station)
        allowed = {
            (a.name, b.name)
            for tenant in range(self.TENANTS)
            for a, b in itertools.combinations(self._members(vms, tenant), 2)
        }
        dmz = DmzPolicyApp(vms=vms, allowed_pairs=allowed)
        controller = Controller(sim)
        controller.add_app(dmz)
        # The manager's steps, minus the SNMP session: walking the
        # Q-BRIDGE tables once per config op is cubic in ports, 107 s
        # for this 48-port site, and a pass needs a fresh rig.  The
        # management plane is measured where it is the workload
        # (migration_wave) and in the other rigs' setup_s.
        port_map = PortVlanMap.allocate(list(range(1, trunk)))
        config = legacy.config.copy()
        for port, vlan in port_map:
            config.set_access(port, vlan)
        config.set_trunk(trunk, set(port_map.vlans))
        legacy.apply_config(config)
        s4 = HarmlessS4(
            sim,
            "harmless-edge",
            access_ports=port_map.ports,
            datapath_id=0x100,
            cost_model=ZERO_COST,
            queue_frames=DEEP_QUEUE,
        )
        Link(
            legacy.port(trunk),
            s4.trunk_port,
            bandwidth_bps=None,
            queue_frames=DEEP_QUEUE,
        )
        s4.install_translator(port_map)
        datapath = controller.connect(s4.ss2)
        sim.run(until=sim.now + 0.1)
        # Prime the per-port VLAN FDBs with every allowed conversation,
        # so only the frames the policy will drop still flood (to the
        # trunk, the one other member of their port's VLAN).
        for tenant in range(self.TENANTS):
            for vm, peer in itertools.permutations(self._members(vms, tenant), 2):
                stations[vm.port - 1].port0.send(
                    udp_frame(vm.mac, peer.mac, vm.ip, peer.ip, 1, 1, b"\x00" * 32)
                )
        sim.run(until=sim.now + 0.1)
        return Rig(
            sim=sim,
            nodes=[legacy] + stations,
            endpoints={
                station.name: (lambda s=station: s.rx_count) for station in stations
            },
            s4s=lambda: [s4],
            extra={
                "vms": vms,
                "stations": stations,
                "dmz": dmz,
                "datapath": datapath,
            },
        )

    def _members(self, vms, tenant: int) -> list:
        return vms[tenant * self.VMS_PER_TENANT : (tenant + 1) * self.VMS_PER_TENANT]

    def _peer(self, rng, vms, vm, cross: bool):
        tenant, member = divmod(vm.port - 1, self.VMS_PER_TENANT)
        if cross:
            # Same member index, another tenant: never a churned pair.
            other = (tenant + rng.randrange(1, self.TENANTS)) % self.TENANTS
            return vms[other * self.VMS_PER_TENANT + member]
        other = (member + rng.randrange(1, self.VMS_PER_TENANT)) % self.VMS_PER_TENANT
        return vms[tenant * self.VMS_PER_TENANT + other]

    def generate(self, rig: Rig, seed: int, frames: int):
        rng = random.Random(seed)
        vms = rig.extra["vms"]
        start_s = rig.sim.now + 1e-3
        schedule = burst_schedule(
            rate_pps=1e6, duration_s=frames / 1e6, burst_size=BURST, start_s=start_s
        )
        plan: "dict[int, list]" = {}
        expected_drops = 0
        senders = rng.sample(range(len(vms)), len(vms))
        for index, (start, count) in enumerate(schedule):
            vm = vms[senders[index % len(senders)]]
            burst = []
            for _ in range(count):
                cross = rng.random() < self.CROSS_SHARE
                peer = self._peer(rng, vms, vm, cross)
                combo = rng.randrange(self.L4_COMBINATIONS)
                burst.append(
                    udp_frame(
                        vm.mac,
                        peer.mac,
                        vm.ip,
                        peer.ip,
                        1024 + (combo * 7) % self.L4_COMBINATIONS,
                        2048 + (combo * 13) % self.L4_COMBINATIONS,
                        b"\x00" * 32,
                    )
                )
                expected_drops += cross
            plan.setdefault(vm.port - 1, []).append((start, burst))
        # Churn pairs: member m of tenant t with member m+1 of tenant
        # t+2 — cross-tenant, and disjoint from every pair the traffic
        # uses, so the expected drop count stays exact.  The routine
        # rotates through them in seeded order, granting a pair on one
        # visit and revoking it on the next.
        candidates = []
        for index, vm in enumerate(vms):
            tenant, member = divmod(index, self.VMS_PER_TENANT)
            other = self._members(vms, (tenant + 2) % self.TENANTS)
            candidates.append((vm.name, other[(member + 1) % self.VMS_PER_TENANT].name))
        rng.shuffle(candidates)
        churn = [
            (start_s + (step + 0.5) * self.CHURN_EVERY / 1e6,
             *candidates[(step // 2) % len(candidates)])
            for step in range(frames // self.CHURN_EVERY)
        ]
        return {
            "plan": plan,
            "churn": churn,
            "injected": sum(count for _, count in schedule),
            "expected_drops": expected_drops,
        }

    def drive(self, rig: Rig, load):
        stations = rig.extra["stations"]
        churner = PolicyChurner(rig.extra["dmz"], rig.extra["datapath"])
        for index, bursts in load["plan"].items():
            stations[index].start(bursts)
        rig.sim.schedule_many(
            (due, (lambda a=a, b=b: churner.flip(a, b))) for due, a, b in load["churn"]
        )
        yield from drain(rig.sim, self.slice_events)
        return {
            "injected": load["injected"],
            "expected_drops": load["expected_drops"],
            "counters": {"churn_ops": churner.ops},
        }


class PolicyChurner:
    """The operator's routine: grant a pair if it is denied, revoke it
    if it is granted."""

    def __init__(self, dmz: DmzPolicyApp, datapath) -> None:
        self.dmz = dmz
        self.datapath = datapath
        self.ops = 0

    def flip(self, name_a: str, name_b: str) -> None:
        self.ops += 1
        if self.dmz.is_allowed(name_a, name_b):
            self.dmz.revoke(self.datapath, name_a, name_b)
        else:
            self.dmz.allow(self.datapath, name_a, name_b)


# --------------------------------------------------------------------------
# migration_wave — the continuity claim
# --------------------------------------------------------------------------


class MigrationWave:
    """An 8-edge fabric migrated wave by wave while every host keeps
    pinging a cross-pod peer; the control and management planes do the
    work, the data plane is nearly idle."""

    name = "migration_wave"
    steady = False
    #: Not frames: the rollout is one fixed piece of work per pass.
    default_frames = 0
    setup_builds = 16
    EDGES = 8
    HOSTS_PER_EDGE = 2
    PING_EVERY_S = 0.010
    VERIFY_WINDOW_S = 0.1

    def build(self, seed: int) -> Rig:
        fabric = leaf_spine_fabric(
            edges=self.EDGES, spines=1, hosts_per_edge=self.HOSTS_PER_EDGE
        )
        fleet = HarmlessFleet(fabric, wave_size=2, verify_window_s=self.VERIFY_WINDOW_S)
        # Pick each host's cross-pod peer and resolve ARP both ways
        # before the rollout, so a lost ping is the rollout's doing.
        rng = random.Random(seed)
        hosts = fabric.hosts
        pairs = []
        for index, host in enumerate(hosts):
            pod = index // self.HOSTS_PER_EDGE
            other = (pod + rng.randrange(1, self.EDGES)) % self.EDGES
            peer = hosts[other * self.HOSTS_PER_EDGE + rng.randrange(self.HOSTS_PER_EDGE)]
            pairs.append((host, peer))
            host.ping(peer.ip)
        fabric.sim.run(until=fabric.sim.now + 0.5)
        return Rig(
            sim=fabric.sim,
            nodes=[site.switch for site in fabric.sites.values()] + hosts,
            endpoints={host.name: (lambda h=host: h.rx_ip_packets) for host in hosts},
            s4s=_deployed(fleet.manager),
            extra={"fleet": fleet, "pairs": pairs, "fabric": fabric},
        )

    def generate(self, rig: Rig, seed: int, frames: int):
        """Ping times for the whole rollout, each host on its own phase."""
        rng = random.Random(seed + 1)
        fleet = rig.extra["fleet"]
        horizon = fleet.plan.num_waves * (fleet.settle_s + fleet.verify_window_s)
        start_s = rig.sim.now
        # Stop early enough that the last reply is home before the
        # last verify window closes.
        count = int((horizon - 0.05) / self.PING_EVERY_S)
        plan = []
        for host, peer in rig.extra["pairs"]:
            phase = rng.random() * self.PING_EVERY_S
            plan.extend(
                (start_s + phase + tick * self.PING_EVERY_S, host, peer)
                for tick in range(count)
            )
        return plan

    def drive(self, rig: Rig, plan):
        fleet = rig.extra["fleet"]
        probes = []
        rig.sim.schedule_many(
            (due, (lambda h=host, p=peer: probes.append((h, p, h.ping(p.ip)))))
            for due, host, peer in plan
        )
        # The loop inside ``migrate_all(verify=True)``, one wave per
        # slice; a failed sweep is reported below, where strict raises.
        while not fleet.complete:
            fleet.migrate_next_wave(verify=True)
            yield
        reports = fleet.reports
        problems = [
            f"wave {report.index}: {report.reachability.describe()}"
            for report in reports
            if not report.reachability.ok
        ]
        if len(probes) != len(plan):
            problems.append(f"only {len(probes)}/{len(plan)} pings were sent")
        answered: "dict[tuple[str, str], list[float]]" = {}
        lost = 0
        for host, peer, result in probes:
            if result.lost:
                lost += 1
            else:
                answered.setdefault((host.name, peer.name), []).append(result.sent_at)
        outage_s = max(
            (later - earlier
             for times in answered.values()
             for earlier, later in zip(times, times[1:])),
            default=float("inf"),
        )
        # Half the seeds put a ping or two within 0.2 ms of a cut-over
        # and lose it (2-5 of 1 120); no seed loses two in a row.
        if outage_s > 2 * self.PING_EVERY_S * (1 + 1e-9):
            problems.append(
                f"a host pair went {outage_s * 1e3:.3f} ms unanswered: "
                "more than one ping in a row lost"
            )
        access_ports = sum(len(d.port_map.ports) for d in fleet.manager.deployments)
        return {
            "injected": len(probes),
            "delivered": len(probes) - lost,
            "units": sum(len(r.sites) for r in reports if r.reachability.ok),
            "attempted": len(fleet.fabric.sites),
            "sim": {"sim_outage_ms": outage_s * 1e3},
            "counters": {
                "waves": len(reports),
                "sites": len(fleet.migrated_sites),
                "access_ports": access_ports,
            },
            "problems": problems,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (SiteDetour(), FabricSteady(), SitePolicyChurn(), MigrationWave())
}
