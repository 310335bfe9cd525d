"""The legacy hop's forwarding cache and flat general path against the
readable general path.

``LegacySwitch`` serves known unicast from a cache of compiled decisions
that outlives the burst (``_lookup`` / ``_compile``), with a per-burst
identity memo in front of it, and every other frame from a general path
that reads its 802.1Q rules inline; it must be indistinguishable from a
switch that sends every frame down a general path composed of those
rules' helpers.  Seeded generative
differential: each round draws a switch (VLAN layout, CAM size, aging,
static entries, a dead port, a lookup delay) and plays
the same traffic into two copies of it —

* the **oracle**: ``_lookup`` always answers None, so every frame takes
  the readable general path (:class:`GeneralPathOnly`); fed
  ``Port.send`` frame by frame;
* the **DUT**: the switch as shipped; fed ``Port.send_burst``, with
  some bursts unrolled into single ``Port.send`` calls so ``receive``
  and ``receive_burst`` work the same cache.

Between bursts both get the same intervention — whatever a cached
decision was derived from is pulled from under it — and after every
burst everything observable is compared.  The hazard ledger at the end
asserts that every way a cached decision can go stale actually occurred
while decisions were cached.
"""

import math
import random
from dataclasses import asdict

from repro.legacy import LegacySwitch
from repro.net.addresses import BROADCAST_MAC, GROUP_BIT, MACAddress
from repro.net.ethernet import ETHERTYPE_IPV4, Dot1QTag, EthernetFrame
from repro.netsim import Link, Simulator

from differential import SCALE, Sink, reproducible

SEED = 0x1E6AC7
ROUNDS = 24
BURSTS_PER_ROUND = 50
#: The rounds cycle through these (lookup delay, calm) kinds, None for
#: drawn.  A delay keeps the cache out of a round and calm rounds are
#: where decisions outlive a burst, so the cache hits the ledger's
#: thresholds count come from a fixed floor per scale — ``ROUNDS``
#: delay-free rounds, at least half of them calm — not from how a
#: draw fell.
ROUND_CYCLE = ((False, True), (False, None), (False, True), (False, None), (True, None))

#: Stations whose MAC *objects* recur across frames, the way frames
#: derived from one per-flow template share them.
STATIONS = [MACAddress(0x02_00_00_00_10_00 + n) for n in range(8)]
NEVER_LEARNED = MACAddress(0x02_00_00_00_99_99)
GROUP = MACAddress(0x01_00_5E_00_00_07)
#: Where each station usually lives: (port, tag stack it sends with).
HOMES = [(1, ()), (2, ()), (3, ()), (6, ()), (4, (10,)), (4, (20,)), (5, (20,)), (5, ())]
#: Stations 0, 1, 4, 7 share VLAN 10; stations 2, 3, 5, 6 VLAN 20.
VLAN_MATES = [(1, 4, 7), (0, 4, 7), (3, 5, 6), (2, 5, 6), (0, 1, 7), (2, 3, 6), (2, 3, 5), (0, 1, 4)]
HOSTILE_STACKS = [(), (10,), (20,), (30,), (40,), (0,), (20, 7)]


class GeneralPathOnly(LegacySwitch):
    """The oracle: a switch whose cache never answers, and whose general
    path is the readable one, composed of the switch's rule helpers
    (``_ingress_vlan``, ``_egress_tagging``, ``_send``, ``FdbEntry.alive``).
    The shipped ``_general_path``, ``_forward`` and ``fdb.lookup`` read
    those rules inline, so every round — the lookup-delay ones included —
    holds the flat hop against this one."""

    def _lookup(self, number, frame):
        return None

    def _general_path(self, number, frame):
        port_config = self.config.port(number)
        if not port_config.enabled:
            self._filter_ingress("disabled")
            return
        classified = self._ingress_vlan(port_config, frame)
        if classified is None:
            self._filter_ingress("vlan")
            return
        vlan_id, tagged = classified
        inner = frame.pop_vlan() if tagged else frame
        if not frame.src & GROUP_BIT:
            self.fdb.learn(vlan_id, frame.src, number, self.sim.now)
        if self.processing_delay_s > 0:
            self.sim.schedule(self.processing_delay_s, self._forward, number, vlan_id, inner)
        else:
            self._forward(number, vlan_id, inner)

    def _forward(self, ingress_port, vlan_id, frame):
        if not self.running:
            self.drops["powered-off"] += 1
            return
        out_port = None
        if not frame.dst & GROUP_BIT:
            # The FDB's age rule as FdbEntry.alive states it; the lookup
            # reads it inline, and only removes what has aged.
            entry = self.fdb.peek(vlan_id, frame.dst)
            if entry is not None and entry.alive(self.sim.now, self.fdb.aging_s):
                out_port = entry.port
            elif entry is not None:
                assert self.fdb.lookup(vlan_id, frame.dst, self.sim.now) is None
            if out_port is None:
                self.fdb.flood_fallbacks += 1
        if out_port is not None:
            if out_port != ingress_port:
                self._egress(out_port, vlan_id, frame)
            else:
                self.drops["hairpin"] += 1
            return
        flooded_to = [n for n in self.config.ports_in_vlan(vlan_id) if n != ingress_port]
        if not flooded_to:
            self.counters.dropped_no_ports += 1
            self.drops["no-ports"] += 1
            return
        self.counters.flooded += 1
        for number in flooded_to:
            self._egress(number, vlan_id, frame)

    def _egress(self, port_number, vlan_id, frame):
        tagged = self._egress_tagging(port_number, vlan_id)
        if tagged is None:
            self.drops["egress-filtered"] += 1
            return
        self._send(port_number, frame.push_vlan(vlan_id) if tagged else frame)


def draw_scenario(rng, delayed=False, calm=None):
    """One round's switch, as plain data both copies are built from."""
    dead_port = rng.choice([None, None, 2, 6])
    # Pinned entries: stations, and now and then the group address.
    statics = [
        (rng.choice([10, 20]), rng.randrange(len(STATIONS) + 1), rng.randint(1, 6))
        for _ in range(rng.choice([0, 0, 1, 2]))
    ]
    if dead_port is not None and rng.random() < 0.5:
        # The dead port's resident, pinned to it: known, yet filtered.
        statics.append((10, 1, 2) if dead_port == 2 else (20, 3, 6))
    if rng.random() < 0.3:  # a pinned group address still floods
        statics.append((rng.choice([10, 20]), len(STATIONS), rng.randint(1, 6)))
    capacity = rng.choice([4, 8192, 8192])  # a small CAM evicts mid-burst
    return {
        "capacity": capacity,
        "aging_s": rng.choice([0.02, 300.0, 300.0]),  # short aging expires at lookup
        "delay_s": 4e-6 if delayed else 0.0,
        "trunk_native": rng.choice([None, 30]),
        "dead_port": dead_port,
        "dead_by_link_down": rng.random() < 0.5,
        "statics": statics[: capacity - 2],  # a CAM full of statics cannot learn
        # A calm round's stations mostly stay put and talk to their
        # neighbours, so decisions live long enough to be pulled from
        # under; a wild one churns the FDB in every burst.
        "calm": rng.random() < 0.5 if calm is None else calm,
    }


def build(scenario, switch_type):
    """A six-port switch with a recorder on every port: 1, 2 access
    VLAN 10; 3, 6 access VLAN 20; 4 trunk 10/20/30 with an optional
    native 30; 5 trunk 20 with native 10."""
    sim = Simulator()
    switch = switch_type(
        sim, "sw", num_ports=6, fdb_capacity=scenario["capacity"],
        processing_delay_s=scenario["delay_s"],
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
        peer = Sink(sim, f"peer{number}")
        # Ideal, zero-length wires: a frame arrives at the instant it is
        # sent, so the ageing boundary can be hit to the ulp.
        Link(peer.add_port(1), switch.port(number), bandwidth_bps=None,
             propagation_delay_s=0.0, queue_frames=10_000)
        peers.append(peer)
    for vlan_id, station, port in scenario["statics"]:
        switch.fdb.add_static(vlan_id, (STATIONS + [GROUP])[station], port)
    if scenario["dead_port"] is not None:
        if scenario["dead_by_link_down"]:
            switch.link_down(scenario["dead_port"])
        else:
            config.port(scenario["dead_port"]).enabled = False
    return sim, switch, peers


def draw_frame(rng, ingress, calm):
    """A frame for *ingress*: mostly a resident station talking to
    another station, with a visitor (a MAC move), a group source, an
    unlearnable / group destination or a hostile tag stack mixed in."""
    residents = [n for n, (port, _) in enumerate(HOMES) if port == ingress]
    station = rng.choice(residents)
    stack = HOMES[station][1]
    if calm and rng.random() < 0.9:
        return EthernetFrame(
            dst=STATIONS[rng.choice(VLAN_MATES[station])],
            src=rng.choice([STATIONS[station], MACAddress(int(STATIONS[station]))]),
            ethertype=ETHERTYPE_IPV4,
            payload=bytes([rng.randrange(256)]) * 46,
            tags=[Dot1QTag(vlan_id) for vlan_id in stack],
        )
    roll = rng.random()
    if roll < 0.78:
        src = STATIONS[station]
    elif roll < 0.88:  # equal value, distinct object: the cache keys on value
        src = MACAddress(int(STATIONS[station]))
    elif roll < 0.95:
        src = rng.choice(STATIONS)  # a visitor: the FDB sees a move
    else:
        src = GROUP  # a group source is never learned
    roll = rng.random()
    if roll < 0.62:  # a neighbour in the resident's own VLAN
        dst = STATIONS[rng.choice(VLAN_MATES[station])]
    elif roll < 0.72:
        dst = rng.choice(STATIONS)
    elif roll < 0.80:
        dst = MACAddress(int(rng.choice(STATIONS)))
    elif roll < 0.85:
        dst = BROADCAST_MAC
    elif roll < 0.91:
        dst = GROUP
    else:
        dst = NEVER_LEARNED
    if rng.random() < 0.12:
        # Tagged on access, a VLAN the trunk does not carry, the native
        # VLAN sent tagged, a priority tag, QinQ.
        stack = rng.choice(HOSTILE_STACKS)
    return EthernetFrame(
        dst=dst,
        src=src,
        ethertype=ETHERTYPE_IPV4,
        payload=bytes([rng.randrange(256)]) * rng.choice([8, 46, 200]),
        tags=[Dot1QTag(vlan_id) for vlan_id in stack],
    )


def draw_burst(rng, calm):
    """(ingress port, frames): trains of one frame object, interleaved."""
    ingress = rng.randint(1, 6)
    frames = []
    count = rng.randint(2, 24)
    flows = [draw_frame(rng, ingress, calm) for _ in range(rng.randint(1, 5))]
    while len(frames) < count:
        frame = rng.choice(flows) if rng.random() < 0.8 else draw_frame(rng, ingress, calm)
        frames.extend([frame] * min(rng.randint(1, 4), count - len(frames)))
    if rng.random() < 0.2:
        # The destination of a flow already seen in this burst shows up
        # as a source on this very port: what was decided for the flow
        # (and memoised under its MAC objects) is overturned mid-burst.
        flow = rng.choice(frames)
        turncoat = EthernetFrame(
            dst=flow.src, src=flow.dst, ethertype=ETHERTYPE_IPV4,
            payload=b"turn" * 12, tags=flow.tags,
        )
        frames.extend([flow, turncoat, flow, flow])
    return ingress, frames


def learned(switch):
    """FDB state: what a cache hit must leave alone, but for the source
    entry's ``learned_at``."""
    return (
        [(e.vlan_id, e.mac, e.port, e.learned_at, e.static) for e in switch.fdb.entries()],
        switch.fdb.stats(),
    )


def observed(sim, switch, peers):
    counters = switch.counters
    return {
        "now": sim.now,
        "counters": asdict(counters),
        "per_port_rx order": list(counters.per_port_rx),
        "per_port_tx order": list(counters.per_port_tx),
        "drop reasons": dict(switch.drops),
        "fdb entries, fdb stats": learned(switch),
        "egress bytes and times": [peer.received for peer in peers],
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


def key_of(number, frame):
    return (number, frame.vlan_id, frame.src, frame.dst)


class Probe:
    """Counts what the DUT's cache did, from outside."""

    def __init__(self, switch):
        self.switch = switch
        self.burst = 0  # index of the burst being played
        self.compiled_in = {}  # key -> burst that compiled it
        self.compiles = self.hits = self.hits_across_bursts = self.general = 0
        lookup, compile_, general = switch._lookup, switch._compile, switch._general_path

        def counted_compile(number, vid, frame):
            self.compiles += 1
            hop = compile_(number, vid, frame)
            if hop is not None:
                self.compiled_in[key_of(number, frame)] = self.burst
            return hop

        def counted_lookup(number, frame):
            before = self.compiles
            hop = lookup(number, frame)
            if hop is not None and self.compiles == before:
                self.hits += 1
                if self.compiled_in[key_of(number, frame)] < self.burst:
                    self.hits_across_bursts += 1
            return hop

        def counted_general(number, frame):
            self.general += 1
            return general(number, frame)

        switch._compile = counted_compile
        switch._lookup = counted_lookup
        switch._general_path = counted_general


def live_hops(switch):
    """The decisions the next lookup can still answer from: the cache
    is only emptied, lazily, once the FDB's generation has moved."""
    return switch._hops if switch._hops_generation == switch.fdb.generation else {}


def touches(switch, number):
    """Whether a cached decision enters or leaves through port *number*."""
    return any(number in (key[0], hop.out_port) for key, hop in live_hops(switch).items())


def pick_port(rng, switch):
    """A port number: mostly one a cached decision goes through."""
    busy = sorted({n for key, hop in live_hops(switch).items() for n in (key[0], hop.out_port)})
    return rng.choice(busy) if busy and rng.random() < 0.7 else rng.randint(1, 6)


def cached_dynamic(switch, role):
    """The cached hops whose *role* (``source`` / ``target``) entry is
    dynamic, in a reproducible order."""
    return sorted(
        (
            (key, hop) for key, hop in live_hops(switch).items()
            if not getattr(hop, role).static
        ),
        key=lambda item: (item[0][0], item[0][1] or 0, int(item[0][2]), int(item[0][3])),
    )


def age_boundary(target, aging_s, now):
    """``(at, past)``: the instant *target*'s age equals *aging_s* in
    float arithmetic and the first one where it exceeds it; or None."""
    at = target.learned_at + aging_s
    for _ in range(8):
        if at - target.learned_at == aging_s:
            break
        at = math.nextafter(at, math.inf if at - target.learned_at < aging_s else 0.0)
    else:
        return None
    past = at
    while past - target.learned_at <= aging_s:
        past = math.nextafter(past, math.inf)
    return (at, past) if at > now else None


def frame_for(key, payload):
    number, vid, src, dst = key
    return EthernetFrame(
        dst=dst, src=src, ethertype=ETHERTYPE_IPV4, payload=payload * 12,
        tags=[] if vid is None else [Dot1QTag(vid)],
    )


#: What :func:`intervene` can do; each round goes through them in a
#: shuffled order, again and again.
INTERVENTIONS = (
    "port enabled", "set_access", "add_static", "link", "power", "aging_s",
    "apply_config", "age boundary",
)


def intervene(rng, kind, pair, ledger):
    """Pull something a cached decision was derived from out from under
    it, on the oracle and the DUT alike.  Returns ``"off"`` when it left
    the switches powered off, a list of ``(instant, ingress, frame)`` to
    play at exact instants, or None."""
    dut = pair[1]
    cached = bool(live_hops(dut))
    if kind == "port enabled":
        number = pick_port(rng, dut)
        enabled = not dut.config.port(number).enabled or rng.random() < 0.4
        for switch in pair:
            switch.config.port(number).enabled = enabled  # the live object
        ledger["live port disabled/enabled under a cached decision"] += touches(dut, number)
    elif kind == "set_access":
        number, vlan_id = pick_port(rng, dut), rng.choice([10, 20])
        for switch in pair:
            switch.config.set_access(number, vlan_id)  # the live object
        ledger["live set_access under a cached decision"] += touches(dut, number)
    elif kind == "add_static":
        candidates = cached_dynamic(dut, rng.choice(["source", "target"]))
        pinned = sum(entry.static for entry in dut.fdb.entries())
        if candidates and pinned < dut.fdb.capacity - 2:  # a CAM full of statics cannot learn
            _, hop = rng.choice(candidates)
            entry = rng.choice([hop.source, hop.target])
            port = rng.choice([entry.port, rng.randint(1, 6)])
            for switch in pair:
                switch.fdb.add_static(entry.vlan_id, entry.mac, port)
            ledger["add_static over a cached dynamic entry"] += not entry.static
    elif kind == "link":
        number = pick_port(rng, dut)
        down = dut.port(number).up
        ledger["link_down under a cached decision"] += down and touches(dut, number)
        for switch in pair:
            (switch.link_down if down else switch.link_up)(number)
    elif kind == "power":
        for switch in pair:
            switch.power_off()
        ledger["power cycle while cached"] += cached
        return "off"
    elif kind == "aging_s":
        aging_s = rng.choice([0.0015, 0.02, 300.0, 300.0])
        for switch in pair:
            switch.fdb.aging_s = aging_s
        ledger["fdb.aging_s changed while cached"] += cached
    elif kind == "apply_config":
        new_native = rng.choice([None, 30])
        for switch in pair:
            config = switch.config.copy()
            config.set_trunk(4, {10, 20, 30}, native_vlan=new_native)
            switch.apply_config(config)
        ledger["apply_config while cached"] += cached
    else:
        assert kind == "age boundary"
        candidates = [
            (key, hop) for key, hop in cached_dynamic(dut, "target")
            if hop.target is not hop.source
        ]
        if candidates and dut.processing_delay_s == 0:
            key, hop = rng.choice(candidates)
            boundary = age_boundary(hop.target, dut.fdb.aging_s, dut.sim.now)
            if boundary is not None:
                return [(at, key[0], frame_for(key, b"age")) for at in boundary]
    return None


def play(pair_peers, ingress, frames, unrolled):
    seq_peers, dut_peers = pair_peers
    for frame in frames:
        seq_peers[ingress - 1].port(1).send(frame)
    if unrolled:
        for frame in frames:
            dut_peers[ingress - 1].port(1).send(frame)
    else:
        dut_peers[ingress - 1].port(1).send_burst(frames)


def test_cached_switch_matches_general_path_only_switch():
    rng = random.Random(SEED)
    ledger = dict.fromkeys(
        [
            "frames",
            "frames kept off the general path",
            "cache hits",
            "cache hits across bursts",
            "cache hits by single-frame receive",
            "frames bridged with a lookup delay",
            "live port disabled/enabled under a cached decision",
            "live set_access under a cached decision",
            "add_static over a cached dynamic entry",
            "link_down under a cached decision",
            "power cycle while cached",
            "fdb.aging_s changed while cached",
            "apply_config while cached",
            "decisions replayed right after an intervention",
            "hit with target age == aging_s",
            "miss one ulp past aging_s",
            "moves",
            "evictions from a 4-entry CAM",
            "flooded",
            "filtered_ingress",
        ],
        0,
    )
    with reproducible(SEED) as where:
        delay_free = sum(not delayed for delayed, _ in ROUND_CYCLE)
        for round_index in range(ROUNDS * SCALE * len(ROUND_CYCLE) // delay_free):
            delayed, calm = ROUND_CYCLE[round_index % len(ROUND_CYCLE)]
            scenario = draw_scenario(rng, delayed, calm)
            seq_sim, seq_switch, seq_peers = build(scenario, GeneralPathOnly)
            dut_sim, dut_switch, dut_peers = build(scenario, LegacySwitch)
            probe = Probe(dut_switch)
            pair, sims, peers = (seq_switch, dut_switch), (seq_sim, dut_sim), (seq_peers, dut_peers)
            delayed = scenario["delay_s"] > 0

            def compare():
                seen = observed(seq_sim, seq_switch, seq_peers)
                got = observed(dut_sim, dut_switch, dut_peers)
                for key in seen:
                    assert got[key] == seen[key], key

            kinds = []
            for burst_index in range(BURSTS_PER_ROUND):
                where.update(round=round_index, burst_index=burst_index)
                probe.burst = burst_index
                extra = None
                if live_hops(dut_switch) and rng.random() < (0.2 if scenario["calm"] else 0.4):
                    kinds = kinds or rng.sample(INTERVENTIONS, len(INTERVENTIONS))
                    # What was cached before the intervention is played
                    # right after it, before other traffic can move the
                    # FDB's generation and hide a stale decision.
                    was_cached = sorted(
                        live_hops(dut_switch),
                        key=lambda k: (k[0], k[1] or 0, int(k[2]), int(k[3])),
                    )
                    extra = intervene(rng, kinds.pop(), pair, ledger)
                    if extra is None:
                        for key in rng.sample(was_cached, min(3, len(was_cached))):
                            replay = frame_for(key, b"rep")
                            play(peers, key[0], [replay, replay], unrolled=delayed)
                            ledger["decisions replayed right after an intervention"] += 1
                        for sim in sims:
                            sim.run(until=sim.now + (1e-5 if delayed else 0.0))
                        compare()
                ingress, frames = draw_burst(rng, scenario["calm"])
                # With a lookup delay both sides are fed frame by frame,
                # so the event counts must agree too.
                unrolled = delayed or rng.random() < 0.25
                if isinstance(extra, list):
                    for (at, number, frame), name in zip(
                        extra, ("hit with target age == aging_s", "miss one ulp past aging_s")
                    ):
                        for sim in sims:
                            sim.run(until=at)
                        hits, general = probe.hits, probe.general
                        play(peers, number, [frame, frame], unrolled=False)
                        for sim in sims:
                            sim.run(until=at)
                        if name.startswith("hit"):
                            ledger[name] += probe.hits == hits + 1 and probe.general == general
                        else:
                            ledger[name] += probe.general > general
                        compare()
                hits = probe.hits
                play(peers, ingress, frames, unrolled)
                if extra == "off":  # the burst fell into the black hole
                    for sim in sims:
                        sim.run(until=sim.now + 0.001)
                    for switch in pair:
                        switch.power_on()
                gap = rng.choice([0.0, 0.001, 0.03])
                for sim in sims:
                    sim.run(until=sim.now + gap)
                compare()
                if delayed:
                    # Two events a frame and a forward decided later:
                    # such a switch does not ask its cache at all.
                    assert dut_sim.events_processed == seq_sim.events_processed
                    assert probe.compiles == 0 and not dut_switch._hops
                    ledger["frames bridged with a lookup delay"] += len(frames)
                elif unrolled:
                    ledger["cache hits by single-frame receive"] += probe.hits - hits
            ledger["frames"] += dut_switch.counters.rx_frames
            ledger["frames kept off the general path"] += (
                dut_switch.counters.rx_frames - probe.general
            )
            ledger["cache hits"] += probe.hits
            ledger["cache hits across bursts"] += probe.hits_across_bursts
            ledger["moves"] += dut_switch.fdb.move_events
            if scenario["capacity"] == 4:
                ledger["evictions from a 4-entry CAM"] += dut_switch.fdb.evictions
            for name in ("flooded", "filtered_ingress"):
                ledger[name] += getattr(dut_switch.counters, name)
            # The oracle never compiled anything; the DUT's cache only
            # holds decisions of the FDB generation it was filled under.
            assert not seq_switch._hops
            assert all(
                key in probe.compiled_in for key in dut_switch._hops
            )
    # Every hazard occurred, and the cache was at work while it did:
    # decisions compiled in one burst served later ones.
    assert all(ledger.values()), ledger
    assert ledger["cache hits across bursts"] > 100 * SCALE, ledger
    assert ledger["frames kept off the general path"] > 1000 * SCALE, ledger


def test_a_cache_hit_moves_only_counters_and_the_sources_learned_at():
    """Frame by frame: whenever ``receive`` did not enter the general
    path, nothing moved but rx/tx counters and the source entry's
    ``learned_at`` (to now, unless static), and exactly the cached
    decision's frame left on its port."""
    rng = random.Random(SEED + 1)
    hits = refreshed = 0
    with reproducible(SEED + 1) as where:
        for round_index in range(ROUNDS * SCALE):
            scenario = draw_scenario(rng)
            sim, switch, _ = build(scenario, LegacySwitch)
            probe = Probe(switch)
            emitted = []
            for port in switch.iter_ports():
                port.send = lambda frame, port=port: (
                    emitted.append((port.number, frame.to_bytes())),
                    type(port).send(port, frame),
                )
            for burst_index in range(BURSTS_PER_ROUND):
                where.update(round=round_index, burst_index=burst_index)
                ingress, frames = draw_burst(rng, scenario["calm"])
                for frame in frames:
                    entries, fdb_stats = learned(switch)
                    counters = asdict(switch.counters)
                    drops = dict(switch.drops)
                    general = probe.general
                    emitted.clear()
                    switch.receive(switch.port(ingress), frame)
                    if probe.general != general:
                        continue
                    hits += 1
                    hop = switch._hops[key_of(ingress, frame)]
                    source = hop.source
                    expected_entries = [
                        (vlan_id, mac, port, when if static else sim.now, static)
                        if (vlan_id, mac) == (source.vlan_id, source.mac) else
                        (vlan_id, mac, port, when, static)
                        for vlan_id, mac, port, when, static in entries
                    ]
                    refreshed += expected_entries != entries
                    assert learned(switch) == (expected_entries, fdb_stats)
                    assert dict(switch.drops) == drops
                    counters["rx_frames"] += 1
                    counters["tx_frames"] += 1
                    counters["per_port_rx"][ingress] = counters["per_port_rx"].get(ingress, 0) + 1
                    sent = counters["per_port_tx"].get(hop.out_port, 0)
                    counters["per_port_tx"][hop.out_port] = sent + 1
                    assert asdict(switch.counters) == counters
                    expected = frame.pop_vlan() if hop.pop else frame
                    if hop.push_vid is not None:
                        expected = expected.push_vlan(hop.push_vid)
                    assert emitted == [(hop.out_port, expected.to_bytes())]
                sim.run(until=sim.now + rng.choice([0.0, 0.001, 0.03]))
    assert hits > 1000 * SCALE and refreshed > 100 * SCALE, (hits, refreshed)
