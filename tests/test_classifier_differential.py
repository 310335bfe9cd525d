"""Differential + mutation tests for the bucketed classifier.

The classifier (one staged subtable per mask-set) is only allowed to
exist because it is semantics-free: every test here checks it against
the seed's linear scan, either per-lookup (randomized flow tables and
packets) or end-to-end (a compiled switch and the linear interpreter,
fed the same traffic, control-plane mutations included).

Generators, rig and comparator come from ``differential.py``; the
classifier family draws every field a match can constrain.
"""

import random

from repro.net import EthernetFrame
from repro.net.build import udp_frame
from repro.openflow import (
    ApplyActions,
    Bucket,
    FlowMod,
    GotoTable,
    GroupAction,
    GroupMod,
    Match,
    OutputAction,
    PacketOut,
    SetFieldAction,
)
from repro.openflow import consts as c
from repro.openflow.packetview import FLOW_KEY_FIELDS, PacketView
from repro.softswitch.flowtable import FlowEntry, FlowTable

from differential import (
    CHURN_FAMILIES, IPS, MACS, MATCH_FAMILIES, SCALE, SELECT_GROUP, assert_identical, build_rig,
    install, output, random_churn_message, random_frame, random_match,
)

def classifier_match(rng) -> Match:
    """Every field a match can constrain, four VLANs."""
    return random_match(rng, **MATCH_FAMILIES["classifier"])


def classifier_frame(rng) -> EthernetFrame:
    return random_frame(rng, arp=0.0, udp=0.5, vids=(100, 101, 102, 103))


# --------------------------------------------------------------------------
# Randomized differential: classifier lookup vs an independent linear scan
# --------------------------------------------------------------------------


def reference_lookup(table: FlowTable, view: PacketView, now: float):
    """Seed semantics re-derived from first principles.

    Sorts by (-priority, installed_at, seq) and tests each constraint
    with MatchField.covers over per-field view access — independent of
    both the bucketed classifier and the compiled matcher.
    """
    ordered = sorted(table, key=lambda e: (-e.priority, e.installed_at, e.seq))
    for entry in ordered:
        if entry.is_expired(now):
            continue
        if all(
            constraint.covers(view.get(name))
            for name, constraint in entry.match.fields.items()
        ):
            return entry
    return None


class TestRandomizedDifferential:
    def test_classifier_matches_linear_reference(self):
        """≥1000 random (flow table, packet) cases, zero divergence."""
        rng = random.Random(0x4A12)
        cases = 0
        for round_index in range(25 * SCALE):
            table = FlowTable(table_id=0)
            for i in range(rng.randint(5, 40)):
                entry = FlowEntry(
                    match=classifier_match(rng),
                    priority=rng.randint(0, 4),  # deliberate collisions
                    instructions=[],
                )
                # Staggered install times with repeats (bulk-push shape).
                table.install(entry, now=float(rng.randint(0, 2)))
            for _ in range(60):
                frame = classifier_frame(rng)
                in_port = rng.randint(1, 3)
                now = 3.0
                fast = table._classify(PacketView(frame, in_port).flow_key(), now)
                linear = table.linear_lookup(PacketView(frame, in_port), now)
                reference = reference_lookup(table, PacketView(frame, in_port), now)
                assert fast is reference, (
                    f"round {round_index}: classifier diverged for {frame} "
                    f"in_port={in_port}\n{table.dump()}"
                )
                assert linear is reference
                cases += 1
        assert cases >= 1000

    def test_classifier_after_deletes_and_expiry(self):
        rng = random.Random(0xBEEF)
        table = FlowTable(table_id=0)
        entries = []
        for _ in range(40):
            entry = FlowEntry(
                match=classifier_match(rng),
                priority=rng.randint(0, 3),
                idle_timeout=rng.choice((0.0, 0.0, 2.0)),
                hard_timeout=rng.choice((0.0, 0.0, 1.5)),
            )
            table.install(entry, now=0.0)
            entries.append(entry)
        # Delete a random subset through the OpenFlow non-strict path.
        for entry in rng.sample(entries, 10):
            table.delete(entry.match, strict=False)
        for now in (0.5, 1.0, 1.6, 2.5):
            for _ in range(30):
                frame = classifier_frame(rng)
                view = PacketView(frame, rng.randint(1, 3))
                assert table._classify(view.flow_key(), now) is reference_lookup(table, view, now)

    def test_install_order_is_seed_identical(self):
        """bisect.insort keeps the (-priority, installed_at, seq) order."""
        table = FlowTable(table_id=0)
        specs = [(5, 0.0), (1, 0.0), (5, 0.0), (9, 1.0), (5, 0.5), (1, 0.0)]
        for index, (priority, when) in enumerate(specs):
            table.install(
                FlowEntry(match=Match(in_port=index + 1), priority=priority), when
            )
        keys = [(-e.priority, e.installed_at, e.seq) for e in table]
        assert keys == sorted(keys)
        # Equal (priority, installed_at) resolves by install sequence.
        same = [e for e in table if e.priority == 5 and e.installed_at == 0.0]
        assert [e.match.get("in_port").value for e in same] == [1, 3]

    def test_replace_keeps_single_entry(self):
        table = FlowTable(table_id=0)
        for _ in range(3):
            table.install(FlowEntry(match=Match(in_port=1), priority=7), 0.0)
        assert len(table) == 1


# --------------------------------------------------------------------------
# End-to-end differential: default switch vs the linear interpreter
# --------------------------------------------------------------------------


#: A multi-table pipeline with masked flows and a group, nothing the
#: compiler rejects: the default switch serves it compiled.
PIPELINE = (
    SELECT_GROUP,
    # Table 0: exact ingress steering + masked subnet rule.
    FlowMod(table_id=0, priority=10, match=Match(in_port=1), instructions=[GotoTable(table_id=1)]),
    FlowMod(table_id=0, priority=5, instructions=output(3),
            match=Match(eth_type=0x0800, ipv4_dst=("10.0.1.0", "255.255.255.0"))),
    # Table 1: L4 classification into the select group.
    FlowMod(table_id=1, priority=20, match=Match(eth_type=0x0800, udp_dst=53),
            instructions=[ApplyActions(actions=(GroupAction(group_id=1),))]),
    FlowMod(table_id=1, priority=1, match=Match(),
            instructions=[*output(2), GotoTable(table_id=2)]),
    FlowMod(table_id=2, priority=0, match=Match(), instructions=[]),
)


def build_pair():
    """Two identically-provisioned switches: compiled vs the linear
    interpreter."""
    return [build_rig(PIPELINE, controller=True, enable_specialization=enable)
            for enable in (True, False)]


def play(rigs, frames):
    """Each frame a fresh copy into both switches, mostly on port 1."""
    for frame, in_port in frames:
        for rig in rigs:
            rig.switch.inject(frame.copy(), in_port)


class TestEndToEndDifferential:
    def test_pipeline_outputs_and_counters_identical(self):
        rigs = build_pair()
        rng = random.Random(0x5EED)
        frames = [classifier_frame(rng) for _ in range(40)]
        # Steady-state mix: every frame replayed several times.
        schedule = [frames[rng.randrange(len(frames))] for _ in range(400 * SCALE)]
        play(rigs, [(frame, 1 if rng.random() < 0.7 else 2) for frame in schedule])
        for rig in rigs:
            rig.sim.run()
        assert_identical(*rigs)
        assert rigs[0].switch.specialized_frames > 0

    def test_table_miss_is_cached_and_identical(self):
        """Repeated table misses drop identically on both switches."""
        rigs = build_pair()
        frame = udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 1000, 9999, b"x")
        play(rigs, [(frame, 3)] * 5)  # no table-0 rule matches
        for rig in rigs:
            rig.sim.run()
        assert_identical(*rigs)
        assert rigs[0].switch.drops == {"table-miss": 5}
        assert rigs[0].switch.specialized_frames == 5


# --------------------------------------------------------------------------
# Churn-interleaved differential: control-plane mutations mid-traffic
# --------------------------------------------------------------------------

class TestChurnInterleavedDifferential:
    def test_outputs_identical_under_sustained_churn(self):
        """Packets and control-plane mutations interleaved at random:
        the default switch must stay bit-identical to the linear-scan
        pipeline through adds, deletes, modifies and group rewrites."""
        rigs = build_pair()
        rng = random.Random(0xC0DE)
        frames = [classifier_frame(rng) for _ in range(30)]
        packets = 0
        for _ in range(700 * SCALE):
            if rng.random() < 0.15:
                message = random_churn_message(rng, **CHURN_FAMILIES["classifier"]).to_bytes()
                replies = [rig.switch.handle_message(message) for rig in rigs]
                assert replies[0] == replies[1]
            else:
                frame = frames[rng.randrange(len(frames))]
                play(rigs, [(frame, 1 if rng.random() < 0.7 else 2)])
                packets += 1
        for rig in rigs:
            rig.sim.run()
        assert packets > 500
        assert_identical(*rigs)


# --------------------------------------------------------------------------
# Mutations mid-traffic redirect the next frame: FlowMod, GroupMod, expiry
# --------------------------------------------------------------------------


def frame_ab(dst_port=2000):
    return udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 1000, dst_port, b"x" * 32)


class TestCacheInvalidation:
    def test_flow_mod_add_invalidates(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(),
            priority=1,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), 1)
        switch.inject(frame_ab(), 1)
        install(
            switch,
            match=Match(in_port=1),
            priority=9,
            instructions=[ApplyActions(actions=(OutputAction(port=3),))],
        )
        switch.inject(frame_ab(), 1)
        sim.run()
        assert len(sinks[1].received) == 2  # before the higher-priority add
        assert len(sinks[2].received) == 1  # after it

    def test_flow_mod_modify_redirects_cached_flow(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), 1)
        switch.inject(frame_ab(), 1)
        switch.handle_message(
            FlowMod(
                command=c.OFPFC_MODIFY,
                match=Match(in_port=1),
                instructions=[ApplyActions(actions=(OutputAction(port=3),))],
            ).to_bytes()
        )
        switch.inject(frame_ab(), 1)
        sim.run()
        assert len(sinks[1].received) == 2
        assert len(sinks[2].received) == 1

    def test_flow_mod_delete_invalidates(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), 1)
        switch.handle_message(
            FlowMod(command=c.OFPFC_DELETE, match=Match()).to_bytes()
        )
        switch.inject(frame_ab(), 1)
        sim.run()
        assert len(sinks[1].received) == 1
        assert switch.packets_dropped == 1

    def test_group_mod_rebinds_cached_walks(self):
        sim, switch, sinks, _ = build_rig()
        switch.handle_message(
            GroupMod(
                command=c.OFPGC_ADD,
                group_type=c.OFPGT_INDIRECT,
                group_id=7,
                buckets=[Bucket(actions=[OutputAction(port=2)])],
            ).to_bytes()
        )
        install(
            switch,
            match=Match(in_port=1),
            instructions=[ApplyActions(actions=(GroupAction(group_id=7),))],
        )
        switch.inject(frame_ab(), 1)
        switch.inject(frame_ab(), 1)
        switch.handle_message(
            GroupMod(
                command=c.OFPGC_MODIFY,
                group_type=c.OFPGT_INDIRECT,
                group_id=7,
                buckets=[Bucket(actions=[OutputAction(port=3)])],
            ).to_bytes()
        )
        switch.inject(frame_ab(), 1)
        sim.run()
        assert len(sinks[1].received) == 2
        assert len(sinks[2].received) == 1

    def test_replay_validates_expiry_between_sweeps(self):
        """A hard timeout landing between sweeper runs must not be served
        — the lookup checks expiry lazily."""
        sim, switch, sinks, _ = build_rig()
        # A decoy mortal flow pins the sweeper to fire at 1.0, 2.0, ...
        install(
            switch,
            match=Match(in_port=3),
            hard_timeout=9,
            instructions=[],
        )
        # The flow under test is installed at t=0.5, so it expires at
        # t=1.5 — squarely between the sweeps at 1.0 and 2.0.
        sim.schedule(
            0.5,
            lambda: install(
                switch,
                match=Match(in_port=1),
                hard_timeout=1,
                instructions=[ApplyActions(actions=(OutputAction(port=2),))],
            ),
        )
        sim.schedule(0.7, lambda: switch.inject(frame_ab(), 1))
        sim.schedule(1.2, lambda: switch.inject(frame_ab(), 1))
        sim.schedule(1.6, lambda: switch.inject(frame_ab(), 1))  # stale!
        sim.run(until=1.9)
        assert len(sinks[1].received) == 2
        assert switch.packets_dropped == 1

    def test_sweep_invalidates_cache(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            hard_timeout=1,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), 1)
        sim.run(until=3.0)  # sweeper fires, flow expires
        assert len(switch.tables[0]) == 0
        switch.inject(frame_ab(), 1)
        sim.run()
        assert len(sinks[1].received) == 1
        assert switch.packets_dropped == 1

    def test_miss_then_matching_add_forwards(self):
        sim, switch, sinks, _ = build_rig()
        switch.inject(frame_ab(), 1)  # table-miss drops
        switch.inject(frame_ab(), 1)
        assert switch.packets_dropped == 2
        install(
            switch,
            match=Match(in_port=1),
            priority=0,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), 1)
        sim.run()
        assert len(sinks[1].received) == 1

    def test_add_matching_rewritten_key_redirects(self):
        """Set-field rewrites mid-walk: a later ADD that matches only
        the *rewritten* packet in table 1 must win the next lookup."""
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            priority=5,
            instructions=[
                ApplyActions(
                    actions=(SetFieldAction(field="eth_dst", value=int(MACS[2])),)
                ),
                GotoTable(table_id=1),
            ],
        )
        install(
            switch,
            table_id=1,
            match=Match(),
            priority=0,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), 1)
        # Misses the ingress key (eth_dst=MACS[1]), hits what table 1
        # sees after the rewrite (eth_dst=MACS[2]).
        install(
            switch,
            table_id=1,
            match=Match(eth_dst=int(MACS[2])),
            priority=9,
            instructions=[ApplyActions(actions=(OutputAction(port=3),))],
        )
        switch.inject(frame_ab(), 1)
        sim.run()
        assert len(sinks[1].received) == 1
        assert len(sinks[2].received) == 1


# --------------------------------------------------------------------------
# Satellites: modify-cookie, packet-out buffering
# --------------------------------------------------------------------------


class TestModifyCookie:
    def _install_with_cookie(self, switch, cookie):
        install(
            switch,
            match=Match(in_port=1),
            cookie=cookie,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )

    def test_nonzero_cookie_updates(self):
        _, switch, _, _ = build_rig()
        self._install_with_cookie(switch, cookie=0x11)
        switch.handle_message(
            FlowMod(
                command=c.OFPFC_MODIFY,
                match=Match(in_port=1),
                cookie=0x99,
                instructions=[ApplyActions(actions=(OutputAction(port=3),))],
            ).to_bytes()
        )
        (entry,) = list(switch.tables[0])
        assert entry.cookie == 0x99

    def test_zero_cookie_preserved(self):
        _, switch, _, _ = build_rig()
        self._install_with_cookie(switch, cookie=0x11)
        switch.handle_message(
            FlowMod(
                command=c.OFPFC_MODIFY_STRICT,
                match=Match(in_port=1),
                cookie=0,
                instructions=[ApplyActions(actions=(OutputAction(port=3),))],
            ).to_bytes()
        )
        (entry,) = list(switch.tables[0])
        assert entry.cookie == 0x11


class TestPacketOutBuffering:
    def test_packet_out_preserves_in_flight_buffers(self):
        """A packet-out handled mid-walk must not clobber the walk's
        buffered outputs (the seed reset self._tx_buffer unconditionally)."""
        sim, switch, sinks, _ = build_rig()
        pending = (2, EthernetFrame.from_bytes(frame_ab().to_bytes()))
        switch._tx_buffer.append(pending)  # an in-flight walk's output
        switch.handle_message(
            PacketOut(
                actions=[OutputAction(port=3)], data=frame_ab().to_bytes()
            ).to_bytes()
        )
        sim.run()
        assert switch._tx_buffer == [pending]  # still owned by the walk
        assert len(sinks[2].received) == 1  # packet-out still delivered

    def test_packet_out_still_emits(self):
        sim, switch, sinks, _ = build_rig()
        switch.handle_message(
            PacketOut(
                actions=[OutputAction(port=2)], data=frame_ab().to_bytes()
            ).to_bytes()
        )
        sim.run()
        assert len(sinks[1].received) == 1


def test_flow_key_field_order_is_stable():
    """The flow-key layout is a fast-path contract (append-only)."""
    assert FLOW_KEY_FIELDS[:4] == ("in_port", "eth_dst", "eth_src", "eth_type")
    assert len(FLOW_KEY_FIELDS) == 14
