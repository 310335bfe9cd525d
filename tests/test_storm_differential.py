"""Bit-identity differentials for the storm-hardening features.

Storm control, the datapath flood guard and the packet-in limiter are
all **off by default**, and the acceptance bar is strict: a fabric with
the features disabled — or attached but configured permissively enough
never to trigger — must reproduce today's digests *bit-identically*:
same emitted frames in the same order, same packet-ins, same counters,
same FDB contents, same ping RTTs.  This suite proves it at two levels:

* a :class:`~repro.softswitch.SoftSwitch` rig at both specialization
  tiers (guarded-permissive vs unguarded, seeded broadcast/unicast
  mixes through ``inject`` and ``process_batch``) — including a
  compilable pipeline where the attached guard must not inhibit
  specialization;
* a part-migrated (hybrid) ring fabric, comparing full per-site
  digests and the packet-in multiset between a protected-but-permissive
  run and a bare one.

It also pins the *active* invariant: with a tight guard actually
suppressing, batch and sequential execution still agree frame-for-frame
(meter decisions depend only on simulated time and arrival order).
"""

import hashlib
import random
from dataclasses import asdict

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.controller.app import ControllerApp
from repro.core.manager import HarmlessFleet
from repro.fabric import Fabric, ring_fabric
from repro.legacy import StormControl
from repro.netsim import Simulator
from repro.netsim.link import wire
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.openflow import consts as c
from repro.softswitch import SoftSwitch
from repro.traffic.generators import (
    BurstSource,
    cross_pod_flows,
    storm_frames,
    synth_frame,
)


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


#: A meter this permissive never trips — attach-without-effect config.
PERMISSIVE = dict(rate_fps=1e9, burst=1_000_000)


def build_rig(specialize, guard=None, flood=True):
    """A SoftSwitch with sinks, a unicast rule and (optionally) a
    flood fallback; returns (sim, switch, sinks, packet_ins)."""
    from repro.netsim.node import Node

    class RecordingSink(Node):
        def __init__(self, sim, name):
            super().__init__(sim, name)
            self.received = []

        def receive(self, port, frame):
            self.received.append((self.sim.now, frame.to_bytes()))

    sim = Simulator()
    switch = SoftSwitch(
        sim, "ss", datapath_id=1, enable_specialization=specialize
    )
    switch.flood_guard = guard
    sinks = []
    for index in range(3):
        sink = RecordingSink(sim, f"sink{index}")
        wire(
            switch, sink,
            bandwidth_bps=None, propagation_delay_s=0.0,
            queue_frames=100_000,
        )
        sinks.append(sink)
    packet_ins: "list[bytes]" = []
    switch.to_controller = packet_ins.append
    switch.handle_message(FlowMod(
        match=Match(eth_dst=0x02_00_00_00_00_02), priority=10,
        instructions=[ApplyActions(actions=(OutputAction(port=2),))],
    ).to_bytes())
    if flood:
        switch.handle_message(FlowMod(
            match=Match(), priority=0,
            instructions=[
                ApplyActions(actions=(OutputAction(port=c.OFPP_FLOOD),))
            ],
        ).to_bytes())
    return sim, switch, sinks, packet_ins


def seeded_mix(seed, rounds=40):
    """(in_port, frames, use_batch) triples mixing floods and unicasts."""
    rng = random.Random(seed)
    flows = cross_pod_flows(3, per_pair=1, seed=seed)
    unicast_pool = [synth_frame(flow.spec) for flow in flows]
    steps = []
    for _ in range(rounds):
        roll = rng.random()
        if roll < 0.4:
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


def assert_rigs_identical(rig_a, rig_b):
    _, switch_a, sinks_a, pins_a = rig_a
    _, switch_b, sinks_b, pins_b = rig_b
    for index, (sink_a, sink_b) in enumerate(zip(sinks_a, sinks_b)):
        assert sink_a.received == sink_b.received, f"sink {index} diverged"
    assert pins_a == pins_b
    assert switch_a.packets_forwarded == switch_b.packets_forwarded
    assert switch_a.drops == switch_b.drops
    assert switch_a.packets_to_controller == switch_b.packets_to_controller
    assert switch_a.dump_pipeline() == switch_b.dump_pipeline()


class TestSoftSwitchTiers:
    def test_permissive_guard_is_invisible_interpreted_tier(self):
        steps = seeded_mix(0x510)
        bare = build_rig(specialize=False)
        guarded = build_rig(specialize=False, guard=StormControl(**PERMISSIVE))
        drive(bare, steps)
        drive(guarded, steps)
        assert_rigs_identical(bare, guarded)
        assert guarded[1].floods_suppressed == 0

    def test_permissive_guard_is_invisible_specialized_tier(self):
        steps = seeded_mix(0x511)
        bare = build_rig(specialize=True)
        guarded = build_rig(specialize=True, guard=StormControl(**PERMISSIVE))
        drive(bare, steps)
        drive(guarded, steps)
        assert_rigs_identical(bare, guarded)

    def test_guard_does_not_inhibit_specialization(self):
        """A flood-free (compilable) pipeline with a guard attached
        still compiles and runs specialized, bit-identical to bare."""
        steps = [
            (1, [synth_frame(flow.spec) for flow in cross_pod_flows(3, seed=7)]
             * 4, True)
            for _ in range(10)
        ]
        bare = build_rig(specialize=True, flood=False)
        guarded = build_rig(
            specialize=True, guard=StormControl(**PERMISSIVE), flood=False
        )
        drive(bare, steps)
        drive(guarded, steps)
        assert_rigs_identical(bare, guarded)
        assert guarded[1].specialized_frames > 0
        assert guarded[1].specialized_frames == bare[1].specialized_frames

    def test_active_guard_batch_equals_sequential(self):
        """With a tight meter actually suppressing, a burst through
        process_batch equals the same frames injected one at a time."""
        tight = dict(rate_fps=200, burst=4, recovery_s=0.01)
        steps = seeded_mix(0x512)
        batch_rig = build_rig(specialize=False, guard=StormControl(**tight))
        seq_rig = build_rig(specialize=False, guard=StormControl(**tight))
        drive(batch_rig, steps)
        drive(seq_rig, [(p, f, False) for p, f, _ in steps])
        assert_rigs_identical(batch_rig, seq_rig)
        assert batch_rig[1].floods_suppressed > 0
        assert (
            batch_rig[1].floods_suppressed == seq_rig[1].floods_suppressed
        )


PODS = 4


def _make_fabric_mix(seed, base):
    rng = random.Random(seed)
    flows = cross_pod_flows(PODS, per_pair=1, seed=seed)
    chosen = rng.sample(flows, k=rng.randint(4, 8))
    per_pod = {pod: [] for pod in range(PODS)}
    for flow in chosen:
        frame = synth_frame(flow.spec, payload_len=rng.choice([64, 128]))
        for _ in range(rng.randint(1, 3)):
            start = base + rng.uniform(0.0005, 0.004)
            per_pod[flow.src_pod].append((start, [frame] * rng.randint(2, 6)))
    for bursts in per_pod.values():
        bursts.sort(key=lambda burst: burst[0])
    return per_pod


def run_hybrid_fabric(protect: bool, mixes=6):
    """A half-migrated ring driving seeded mixes; returns its digests."""
    sim = Simulator()
    fabric = ring_fabric(
        switches=PODS, hosts_per_switch=1, gen_ports_per_switch=1, sim=sim
    )
    controller = Controller(sim, name="c0")
    recorder = PacketInRecorder()
    controller.add_app(recorder)
    controller.add_app(LearningSwitchApp())
    fleet = HarmlessFleet(fabric, controller=controller, wave_size=2)
    fleet.migrate_next_wave(verify=True)  # 2 of 4 sites: a hybrid ring
    if protect:
        for site in fabric.sites.values():
            site.switch.storm_control = StormControl(**PERMISSIVE)
        for deployment in fleet.deployments.values():
            deployment.s4.ss1.flood_guard = StormControl(**PERMISSIVE)
            deployment.s4.ss2.flood_guard = StormControl(**PERMISSIVE)
            deployment.datapath.channel.configure_packetin_limit(
                rate_pps=1e9, burst=1_000_000
            )
    stations = {}
    edge_names = [site.name for site in fabric.edge_sites()]
    for pod, name in enumerate(edge_names):
        station = BurstSource(sim, f"gen-{pod}")
        fabric.attach_station(name, station)
        stations[name] = station
    for seed in range(mixes):
        base = sim.now
        mix = _make_fabric_mix(seed, base + 0.001)
        for pod, name in enumerate(edge_names):
            if mix[pod]:
                stations[name].start(mix[pod])
        sim.run(until=base + 0.012)
    digests = {
        name: site_digest(fabric, name, fleet=fleet, include_rtts=True)
        for name in fabric.sites
    }
    return digests, recorder.digest()


class TestHybridFabric:
    def test_permissive_protection_reproduces_bare_digests(self):
        bare_sites, bare_pins = run_hybrid_fabric(protect=False)
        protected_sites, protected_pins = run_hybrid_fabric(protect=True)
        assert set(protected_sites) == set(bare_sites)
        for name in bare_sites:
            assert protected_sites[name] == bare_sites[name], name
        assert protected_pins == bare_pins
        # The runs actually moved traffic between sites.
        flooded = sum(
            dict(digest["counters"])["flooded"]
            for digest in bare_sites.values()
        )
        assert flooded > 0
