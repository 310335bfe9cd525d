"""Staged-subtable edge cases: ordering, collisions, mask-set migration.

The classifier groups every entry into one subtable per distinct
mask-set (``Match.mask_key()``; a whole-field match carries all-ones
masks) and probes subtables in descending max-priority order with early
termination.  These tests pin down the cases where that ordering
machinery could silently diverge from the seed linear scan: equal
max-priority subtables, several matches colliding on one mask-set (and
on one masked-value bucket), max-priority recomputation after removals,
entries moving between whole-field and partial mask-sets, and the cost
of an install into a large subtable.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.openflow import consts as c
from repro.openflow.packetview import FIELD_INDEX, PacketView
from repro.softswitch.flowtable import FlowEntry, FlowTable, Subtable

MAC_A = MACAddress("02:00:00:00:00:01")
MAC_B = MACAddress("02:00:00:00:00:02")


def frame_to(dst_ip, src_ip="10.0.0.1", dst_port=2000):
    return udp_frame(
        MAC_A, MAC_B, IPv4Address(src_ip), IPv4Address(dst_ip), 1000, dst_port, b"x"
    )


def masked(value, bits):
    mask = (0xFFFFFFFF << (32 - bits)) & 0xFFFFFFFF
    return (int(IPv4Address(value)) & mask, mask)


def staged_order(table):
    """The table's mask-sets in probe order."""
    return [subtable.mask_set for subtable in table.subtables_in_order()]


def lookup_both(table, frame, now=1.0, in_port=1):
    fast = table._classify(PacketView(frame, in_port).flow_key(), now)
    linear = table.linear_lookup(PacketView(frame, in_port), now)
    assert fast is linear
    return fast


class TestMaskKey:
    def test_same_shape_shares_fingerprint(self):
        a = Match(eth_type=0x0800, ipv4_dst=masked("10.1.0.0", 16))
        b = Match(eth_type=0x0800, ipv4_dst=masked("10.2.0.0", 16))
        assert a.mask_key()[0] == b.mask_key()[0]
        assert a.mask_key()[1] != b.mask_key()[1]

    def test_different_prefix_lengths_split(self):
        a = Match(ipv4_dst=masked("10.1.0.0", 16))
        b = Match(ipv4_dst=masked("10.1.0.0", 24))
        assert a.mask_key()[0] != b.mask_key()[0]

    def test_slot_order_is_canonical(self):
        a = Match(ipv4_dst=masked("10.1.0.0", 16), in_port=1)
        slots = [slot for slot, _ in a.mask_key()[0]]
        assert slots == sorted(slots)
        assert slots[0] == FIELD_INDEX["in_port"]

    def test_exact_match_carries_full_masks(self):
        a = Match(in_port=3)
        ((slot, mask),), (value,) = a.mask_key()
        assert slot == FIELD_INDEX["in_port"]
        assert mask == 0xFFFFFFFF
        assert value == 3

    def test_values_are_premasked(self):
        a = Match(ipv4_dst=(int(IPv4Address("10.1.2.3")), 0xFFFF0000))
        _, (value,) = a.mask_key()
        assert value == int(IPv4Address("10.1.0.0"))


class TestSubtableStructure:
    def test_one_subtable_per_mask_set(self):
        table = FlowTable(table_id=0)
        for third in range(6):
            table.install(
                FlowEntry(match=Match(ipv4_dst=masked(f"10.{third}.0.0", 16))), 0.0
            )
        assert table.subtable_count == 1  # six entries, one mask-set
        table.install(FlowEntry(match=Match(ipv4_dst=masked("10.0.0.0", 8))), 0.0)
        assert table.subtable_count == 2

    def test_bucket_collision_chain_orders_by_priority(self):
        """Identical masked values, different priorities, one bucket."""
        table = FlowTable(table_id=0)
        low = FlowEntry(
            match=Match(ipv4_dst=masked("10.1.0.0", 16), in_port=1), priority=1
        )
        high = FlowEntry(
            match=Match(ipv4_dst=masked("10.1.0.0", 16), in_port=1), priority=9
        )
        table.install(low, 0.0)
        table.install(high, 0.0)
        assert table.subtable_count == 1
        entry = lookup_both(table, frame_to("10.1.2.3"))
        assert entry is high

    def test_equal_max_priority_subtables_all_probed(self):
        """Early termination must not skip a tied subtable."""
        table = FlowTable(table_id=0)
        # Two subtables, same max priority; the /24 one installed later
        # (larger seq) but matching the same packets.
        wide = FlowEntry(match=Match(ipv4_dst=masked("10.1.0.0", 16)), priority=5)
        narrow = FlowEntry(match=Match(ipv4_dst=masked("10.1.2.0", 24)), priority=5)
        table.install(wide, 0.0)
        table.install(narrow, 1.0)
        # Both match; equal priority resolves to the earlier install.
        assert lookup_both(table, frame_to("10.1.2.3"), now=2.0) is wide
        # A packet only the /16 matches still resolves normally.
        assert lookup_both(table, frame_to("10.1.9.9"), now=2.0) is wide

    def test_tied_subtable_beats_earlier_found_candidate(self):
        """A later-probed subtable with an older entry must still win."""
        table = FlowTable(table_id=0)
        newer = FlowEntry(match=Match(ipv4_dst=masked("10.1.0.0", 16)), priority=5)
        older = FlowEntry(match=Match(ipv4_src=masked("10.0.0.0", 8)), priority=5)
        # Install the winning (older) entry into the subtable created
        # second, so staged probe order and arbitration order disagree.
        table.install(older, 0.0)
        table.install(newer, 1.0)
        assert lookup_both(table, frame_to("10.1.2.3"), now=2.0) is older

    def test_max_priority_recomputed_on_removal(self):
        table = FlowTable(table_id=0)
        high = FlowEntry(match=Match(ipv4_dst=masked("10.1.0.0", 16)), priority=9)
        low = FlowEntry(match=Match(ipv4_dst=masked("10.2.0.0", 16)), priority=2)
        other = FlowEntry(match=Match(ipv4_src=masked("10.0.0.0", 8)), priority=5)
        for entry in (high, low, other):
            table.install(entry, 0.0)
        assert staged_order(table)[0] == high.match.mask_key()[0]
        table.delete(high.match, priority=9, strict=True)
        # The /16 subtable's max priority falls from 9 to 2; the /8
        # subtable (priority 5) must now be probed first.
        assert staged_order(table)[0] == other.match.mask_key()[0]
        assert lookup_both(table, frame_to("10.1.2.3", src_ip="10.9.9.9")) is other

    def test_empty_subtable_is_garbage_collected(self):
        table = FlowTable(table_id=0)
        entry = FlowEntry(match=Match(ipv4_dst=masked("10.1.0.0", 16)))
        table.install(entry, 0.0)
        assert table.subtable_count == 1
        table.delete(entry.match, priority=entry.priority, strict=True)
        assert table.subtable_count == 0
        assert len(table) == 0

    def test_expire_prunes_subtables(self):
        table = FlowTable(table_id=0)
        mortal = FlowEntry(
            match=Match(ipv4_dst=masked("10.1.0.0", 16)), hard_timeout=1.0
        )
        table.install(mortal, 0.0)
        # Expired-but-unswept entries are skipped during probes...
        assert lookup_both(table, frame_to("10.1.2.3"), now=5.0) is None
        # ...and the sweep removes the subtable itself.
        assert table.expire(5.0) == [mortal]
        assert table.subtable_count == 0

    def test_replacement_add_keeps_single_masked_entry(self):
        table = FlowTable(table_id=0)
        match = Match(ipv4_dst=masked("10.1.0.0", 16))
        for _ in range(3):
            table.install(FlowEntry(match=match, priority=7), 0.0)
        assert len(table) == 1
        assert table.subtable_count == 1


class TestTierMigration:
    """Entries moving between a partial and a whole-field mask-set.

    A flow's subtable is a function of its match, so migration happens
    when a controller replaces a prefix rule with a host route (or back)
    — delete + add, or an OFPFC_ADD carrying the refined match.  The
    index must drop the emptied subtable and build the new one.
    """

    def _switch(self):
        from repro.netsim import Simulator
        from repro.softswitch import DatapathCostModel, SoftSwitch

        sim = Simulator()
        return sim, SoftSwitch(
            sim, "ss", datapath_id=1, cost_model=DatapathCostModel.zero()
        )

    def test_masked_to_exact_refinement(self):
        sim, switch = self._switch()
        table = switch.tables[0]
        coarse = Match(eth_type=0x0800, ipv4_dst=masked("10.1.0.0", 16))
        switch.handle_message(
            FlowMod(
                match=coarse,
                priority=5,
                instructions=[ApplyActions(actions=(OutputAction(port=1),))],
            ).to_bytes()
        )
        assert table.subtable_count == 1
        # The controller refines the rule: drop the prefix match,
        # install the exact host route at the same priority.
        switch.handle_message(
            FlowMod(command=c.OFPFC_DELETE, match=coarse, priority=5).to_bytes()
        )
        exact = Match(eth_type=0x0800, ipv4_dst="10.1.2.3")
        switch.handle_message(
            FlowMod(
                match=exact,
                priority=5,
                instructions=[ApplyActions(actions=(OutputAction(port=2),))],
            ).to_bytes()
        )
        # The /16 subtable is gone; the host route has one of its own.
        assert staged_order(table) == [exact.mask_key()[0]]
        assert len(table) == 1
        entry = lookup_both(table, frame_to("10.1.2.3"), now=sim.now)
        assert entry.match == exact

    def test_exact_to_masked_widening(self):
        sim, switch = self._switch()
        table = switch.tables[0]
        exact = Match(eth_type=0x0800, ipv4_dst="10.1.2.3")
        switch.handle_message(
            FlowMod(match=exact, priority=5, instructions=[]).to_bytes()
        )
        assert staged_order(table) == [exact.mask_key()[0]]
        switch.handle_message(
            FlowMod(command=c.OFPFC_DELETE_STRICT, match=exact, priority=5).to_bytes()
        )
        wide = Match(eth_type=0x0800, ipv4_dst=masked("10.1.0.0", 16))
        switch.handle_message(
            FlowMod(match=wide, priority=5, instructions=[]).to_bytes()
        )
        assert staged_order(table) == [wide.mask_key()[0]]
        assert len(table) == 1
        assert lookup_both(table, frame_to("10.1.9.9"), now=sim.now) is not None

    def test_modify_on_masked_entry_keeps_index_intact(self):
        """OFPFC_MODIFY rewrites instructions in place — the entry must
        stay in its subtable bucket and keep winning lookups."""
        sim, switch = self._switch()
        table = switch.tables[0]
        match = Match(eth_type=0x0800, ipv4_dst=masked("10.1.0.0", 16))
        switch.handle_message(
            FlowMod(
                match=match,
                priority=5,
                instructions=[ApplyActions(actions=(OutputAction(port=1),))],
            ).to_bytes()
        )
        switch.handle_message(
            FlowMod(
                command=c.OFPFC_MODIFY,
                match=match,
                instructions=[ApplyActions(actions=(OutputAction(port=2),))],
            ).to_bytes()
        )
        assert table.subtable_count == 1
        entry = lookup_both(table, frame_to("10.1.2.3"), now=sim.now)
        assert entry.match == match
        (instruction,) = entry.instructions
        assert instruction.actions[0].port == 2


class TestInstallCost:
    """A FlowMod finds an equal entry in its own value bucket: it never
    measures a whole subtable.  (A truth test once summed every bucket
    chain, so installs into one mask-set grew quadratically.)"""

    def test_install_and_strict_delete_never_size_a_subtable(self, monkeypatch):
        def refuse(subtable):
            raise AssertionError(f"sized the {subtable.mask_set} subtable")

        monkeypatch.setattr(Subtable, "__bool__", refuse, raising=False)
        monkeypatch.setattr(Subtable, "__len__", refuse, raising=False)
        table = FlowTable(table_id=0)
        matches = [
            Match(ipv4_dst=(0x0A000000 | (index << 8), 0xFFFFFF00))
            for index in range(1000)
        ]
        for match in matches:
            table.install(FlowEntry(match=match, priority=5), 0.0)
        assert table.subtable_count == 1 and len(table) == 1000
        for match in matches:
            assert len(table.delete(match, priority=5, strict=True)) == 1
        assert table.subtable_count == 0 and len(table) == 0


class TestRandomizedSubtableChurn:
    def test_install_delete_churn_stays_linear_identical(self):
        """Random masked installs/deletes; every lookup cross-checked."""
        rng = random.Random(0xC0FFEE)
        table = FlowTable(table_id=0)
        live = []
        prefixes = ["10.%d.0.0" % i for i in range(4)]
        for step in range(300):
            roll = rng.random()
            if roll < 0.55 or not live:
                bits = rng.choice((8, 16, 24))
                fields = {"ipv4_dst": masked(rng.choice(prefixes), bits)}
                if rng.random() < 0.4:
                    fields["in_port"] = rng.randint(1, 2)
                entry = FlowEntry(match=Match(**fields), priority=rng.randint(0, 5))
                table.install(entry, now=float(step))
            else:
                victim = rng.choice(live)
                table.delete(victim.match, priority=victim.priority, strict=True)
            live = list(table)
            frame = frame_to(
                "10.%d.%d.%d" % (rng.randrange(4), rng.randrange(4), rng.randrange(4))
            )
            lookup_both(table, frame, now=float(step), in_port=rng.randint(1, 2))
        assert table.subtable_count >= 1


# ---------------------------------------------------------------------------
# FlowTable.delete walks only the groups that can hold a subset of the
# pattern; the full scan it replaced stays here as the reference.
# ---------------------------------------------------------------------------


def reference_delete(entries, match, priority, strict, cookie, cookie_mask):
    """The pre-PR-14 FlowTable.delete: test every entry, in table order."""
    doomed = []
    for entry in entries:
        if cookie_mask and (entry.cookie & cookie_mask) != ((cookie or 0) & cookie_mask):
            continue
        if strict:
            hit = entry.priority == priority and entry.match == match
        else:
            hit = entry.match.is_subset_of(match)
        if hit:
            doomed.append(entry)
    return doomed


_IP_MASKS = (0xFF000000, 0xFFFF0000, 0xFFFFFF00, 0xFFFFFFFF, 0x00FF00FF)


@st.composite
def small_matches(draw):
    """Matches over a deliberately tiny value space, so random patterns
    hit equal, wider, narrower and disjoint field-sets and mask-sets."""
    fields = {}
    if draw(st.booleans()):
        fields["in_port"] = draw(st.integers(1, 2))
    if draw(st.booleans()):
        fields["eth_type"] = draw(st.sampled_from((0x0800, 0x0806)))
    for name in ("ipv4_src", "ipv4_dst"):
        kind = draw(st.integers(0, 3))
        if kind:
            value = draw(st.sampled_from((0x0A000001, 0x0A000101, 0x0A010001)))
            if kind == 1:
                fields[name] = value
            else:
                mask = draw(st.sampled_from(_IP_MASKS))
                fields[name] = (value & mask, mask)
    if draw(st.integers(0, 3)) == 0:
        fields["udp_dst"] = draw(st.sampled_from((53, (0x0050, 0x00F0))))
    return Match(**fields)


class TestDeleteWalksOnlyCoveringGroups:
    @settings(max_examples=300, deadline=None)
    @given(
        installs=st.lists(
            st.tuples(small_matches(), st.integers(0, 3), st.integers(0, 3)),
            max_size=24,
        ),
        deletes=st.lists(
            st.tuples(
                small_matches(),
                st.integers(0, 3),
                st.booleans(),
                st.integers(0, 3),
                st.sampled_from((0, 0, 1, 3)),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_delete_equals_full_scan(self, installs, deletes):
        table = FlowTable(table_id=0)
        for step, (match, priority, cookie) in enumerate(installs):
            table.install(
                FlowEntry(match=match, priority=priority, cookie=cookie),
                now=float(step // 3),
            )
        for match, priority, strict, cookie, cookie_mask in deletes:
            before = list(table)
            expected = reference_delete(
                before, match, priority, strict, cookie, cookie_mask
            )
            removed = table.delete(
                match, priority=priority, strict=strict,
                cookie=cookie, cookie_mask=cookie_mask,
            )
            # Same entries, same (arbitration) order: flow-removed
            # messages go out in the order delete returns them.
            assert [id(e) for e in removed] == [id(e) for e in expected]
            gone = {id(e) for e in expected}
            assert [id(e) for e in table] == [id(e) for e in before if id(e) not in gone]
            # The index structures dropped exactly the same entries.
            frame = frame_to("10.0.1.1", src_ip="10.0.0.1", dst_port=53)
            lookup_both(table, frame)

    def test_equal_field_set_is_one_bucket_probe(self):
        """The churn case: 480 exact rules, a pattern on their own
        field-set — the walk touches one chain, not the table."""
        table = FlowTable(table_id=0)
        for index in range(480):
            table.install(
                FlowEntry(
                    match=Match(
                        eth_type=0x0800, ipv4_src=0x0A000000 + index,
                        ipv4_dst=0x0A010000 + index,
                    ),
                    priority=200,
                ),
                0.0,
            )
        table.install(FlowEntry(match=Match(in_port=1, eth_type=0x0806)), 0.0)
        pattern = Match(eth_type=0x0800, ipv4_src=0x0A000007, ipv4_dst=0x0A010007)
        assert len(table._subset_candidates(pattern)) == 1
        (removed,) = table.delete(pattern)
        assert removed.match == pattern
        assert len(table) == 480
        # A narrower pattern scans the one covering group, skips the other.
        assert len(table._subset_candidates(Match(ipv4_src=0x0A000001))) == 479
        assert len(table._subset_candidates(Match(in_port=1))) == 1
