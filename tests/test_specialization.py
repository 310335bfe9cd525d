"""Unit tests for the ESwitch-style datapath compiler.

Covers the three contracts the specialized tier 0 lives by:

* **miniflow shrinking** — the partial flow-key extractor must agree
  with the full ``PacketView`` decode on every slot subset, including
  malformed packets whose decode errors the full path swallows;
* **eligibility** — goto-table chains, groups, mortal flows and
  reserved outputs (packet-ins, floods) compile; what the executor
  does not reproduce (action-set instructions, a transform before a
  goto or a group action, a subclassed cost model) rejects the whole
  pipeline, and no frame of a compiled program reaches the
  interpreter;
* **patching, invalidation, cold start** — a FlowMod, GroupMod or
  expiry sweep that leaves the program's shape intact is patched in
  place (derived decisions flushed, generated code kept); a shape
  change or cost-model swap discards the program *synchronously* (a
  stale program is never executed) with the reason recorded, the very
  next frame is served by a regenerated one, and a shape this process
  has already seen never reaches the builtin ``compile()`` again.
"""

import gc
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.apps import (
    ArpResponderApp,
    Backend,
    LearningSwitchApp,
    LoadBalancerApp,
    ParentalControlApp,
)
from repro.controller import Controller
from repro.core import HarmlessFleet, HarmlessManager, HarmlessS4, PortVlanMap
from repro.core.s4 import SS1_TRUNK_PORT
from repro.fabric import leaf_spine_fabric
from repro.legacy import LegacySwitch
from repro.mgmt import DeviceConnection, get_network_driver
from repro.net import Dot1QTag, EthernetFrame, IPv4Address, MACAddress
from repro.net import ethernet as ethernet_module
from repro.net.build import udp_frame
from repro.net.dns import DnsMessage
from repro.netsim import Host, Simulator
from repro.netsim.link import Link, wire
from repro.netsim.node import Node
from repro.openflow import (
    ApplyActions,
    Bucket,
    FlowMod,
    GotoTable,
    GroupAction,
    GroupMod,
    Match,
    OutputAction,
    PopVlanAction,
    PushVlanAction,
    SetFieldAction,
    WriteActions,
)
from repro.openflow import consts as c
from repro.openflow.packetview import (
    FLOW_KEY_FIELDS,
    PacketView,
    compile_flow_key_extractor,
)
from repro.snmp import SnmpAgent, attach_bridge_mib
from repro.softswitch import (
    ESWITCH_COST_MODEL,
    DatapathCostModel,
    SoftSwitch,
    compile_datapath,
)
from repro.softswitch import compiler, datapath

from differential import IPS, MACS, ZERO_COST, Sink, build_rig, install, output, random_frame


def miniflow_frame(rng: random.Random) -> EthernetFrame:
    """ARP, a truncated IPv4 header, or UDP/TCP with one header
    invariant broken three times in ten."""
    frame = random_frame(rng, malformed=0.08, udp=0.55, ports=(53, 80))
    if frame.ethertype == 0x0800 and len(frame.payload) > 2 and rng.random() < 0.3:
        return corrupt(rng, frame)
    return frame


def corrupt(rng: random.Random, frame: EthernetFrame) -> EthernetFrame:
    """Break one header invariant; the partial extractor must swallow
    decode failures exactly where the full decode does."""
    payload = bytearray(frame.payload)
    kind = rng.randrange(6)
    if kind == 0:  # flip a byte (usually a checksum mismatch)
        payload[rng.randrange(len(payload))] ^= 0xFF
    elif kind == 1:  # truncate mid-header or mid-L4
        payload = payload[: rng.randrange(len(payload))]
    elif kind == 2:  # absurd total length
        payload[2] = 0xFF
        payload[3] = rng.randrange(256)
    elif kind == 3:  # wrong IP version nibble
        payload[0] = (6 << 4) | (payload[0] & 0x0F)
    elif kind == 4:  # bad IHL (too small or pointing past the buffer)
        payload[0] = (payload[0] & 0xF0) | rng.choice((0, 3, 15))
    else:  # L4 mangling: UDP length field / TCP data offset
        if len(payload) >= 26:
            payload[24] = rng.choice((0x00, 0xF0))
    broken = frame.copy()
    broken.payload = bytes(payload)
    return broken


class TestMiniflowShrinking:
    def test_partial_extraction_matches_full_decode(self):
        """Random slot subsets vs the full decode: slot-exact agreement."""
        rng = random.Random(0x511CE)
        cases = 0
        all_slots = range(len(FLOW_KEY_FIELDS))
        for _ in range(120):
            frame = miniflow_frame(rng)
            in_port = rng.randint(1, 4)
            full = PacketView(frame, in_port).flow_key()
            for _ in range(6):
                slots = tuple(
                    sorted(rng.sample(list(all_slots), rng.randint(0, 8)))
                )
                fresh = PacketView(frame, in_port)  # no cached key
                assert fresh.flow_key_for(slots) == tuple(
                    full[slot] for slot in slots
                ), (frame, slots)
                cases += 1
        assert cases >= 700

    def test_flow_key_for_uses_cached_key(self):
        frame = udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 53, 80, b"x")
        view = PacketView(frame, 2)
        full = view.flow_key()
        assert view.flow_key_for((0, 9, 13)) == (2, full[9], full[13])

    def test_extractor_compiled_once_per_slot_set(self):
        first = compile_flow_key_extractor((3, 9))
        again = compile_flow_key_extractor([9, 3, 9])  # order/dupes normalised
        assert first is again
        assert "internet_checksum" in first.__source__  # L3 validation emitted
        # A pipeline not touching L3 must not emit the L3 decode at all.
        l2_only = compile_flow_key_extractor((0, 1, 3))
        assert "internet_checksum" not in l2_only.__source__
        assert "payload" not in l2_only.__source__


def frame_ab(dst_port=2000):
    return udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 1000, dst_port, b"x" * 32)


class TestEligibility:
    def test_single_table_output_pipeline_compiles(self):
        _, switch, _, _ = build_rig()
        install(switch, match=Match(in_port=1), instructions=output(2))
        install(switch, match=Match(), priority=0, instructions=[])
        program = compile_datapath(switch)
        assert program is not None
        assert program.used_slots == (0,)  # only in_port is matched
        assert len(program.plans) == 0  # plans build lazily per selected entry

    def test_vlan_and_setfield_sequences_compile(self):
        _, switch, _, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            instructions=[
                ApplyActions(
                    actions=(
                        PushVlanAction(),
                        SetFieldAction.vlan_vid(101),
                        OutputAction(port=2),
                        OutputAction(port=3),
                    )
                )
            ],
        )
        assert compile_datapath(switch) is not None

    def test_multi_table_pipeline_compiles_as_chain(self):
        sim, switch, sinks, _ = build_rig()
        install(switch, match=Match(in_port=1), instructions=[GotoTable(table_id=1)])
        install(switch, table_id=1, match=Match(), instructions=output(2))
        switch.inject(frame_ab(), 1)
        assert switch.program is not None
        assert switch.compile_ineligible_reason is None
        assert switch.specialized_frames == 1
        sim.run()
        assert len(sinks[1].received) == 1
        # Both tables' counters advance exactly as under interpretation.
        assert switch.tables[0].matches == 1
        assert switch.tables[1].matches == 1

    def test_mortal_flow_compiles_and_expiry_is_honoured(self):
        sim, switch, sinks, _ = build_rig()
        install(switch, match=Match(in_port=1), hard_timeout=5, instructions=output(2))
        switch.inject(frame_ab(), 1)
        program = switch.program
        assert program is not None and program.mortal
        sim.run(until=10.0)  # the flow's hard timeout lands
        switch.inject(frame_ab(), 1)  # same flow key: cached decision revalidated
        sim.run()
        assert len(sinks[1].received) == 1  # only the pre-expiry frame got out
        assert switch.specialized_frames == 2

    def test_group_action_compiles(self):
        sim, switch, sinks, _ = build_rig()
        switch.handle_message(
            GroupMod(
                command=c.OFPGC_ADD,
                group_type=c.OFPGT_INDIRECT,
                group_id=1,
                buckets=[Bucket(actions=[OutputAction(port=2)])],
            ).to_bytes()
        )
        install(
            switch,
            match=Match(in_port=1),
            instructions=[ApplyActions(actions=(GroupAction(group_id=1),))],
        )
        switch.inject(frame_ab(), 1)
        assert switch.program is not None
        sim.run()
        assert len(sinks[1].received) == 1
        group = switch.groups.get(1)
        assert group.packet_count == 1
        assert group.bucket_packet_counts == [1]

    def test_controller_output_compiles(self):
        _, switch, _, _ = build_rig()
        install(
            switch,
            match=Match(),
            priority=0,
            instructions=[ApplyActions(actions=(OutputAction(port=c.OFPP_CONTROLLER),))],
        )
        assert compile_datapath(switch) is not None
        assert switch.compile_ineligible_reason is None
        switch.inject(frame_ab(), 1)
        # The packet-in is a step of the program: nothing was interpreted.
        assert switch.fallback_frames == 0
        assert switch.specialized_frames == 1
        assert switch.packets_to_controller == 1

    def test_subclassed_cost_model_rejected(self):
        class WeirdModel(DatapathCostModel):
            pass

        _, switch, _, _ = build_rig()
        switch.cost_model = WeirdModel.zero()
        install(switch, match=Match(in_port=1), instructions=output(2))
        assert compile_datapath(switch) is None

    def test_masked_pipeline_compiles_with_subtable_probes(self):
        _, switch, _, _ = build_rig()
        install(
            switch,
            match=Match(eth_type=0x0800, ipv4_dst=("10.0.1.0", "255.255.255.0")),
            priority=5,
            instructions=output(2),
        )
        program = compile_datapath(switch)
        assert program is not None
        assert "& 0xffffff00" in program.source  # the baked subtable mask

    def test_whole_field_slots_are_probed_bare(self):
        """A slot matched whole — however its mask is spelled — is probed
        with its bare value, with no ``&`` and no ``None`` guard (an
        absent field's None just misses); a partial mask keeps both."""
        _, switch, _, _ = build_rig()
        whole = Match(
            in_port=2, eth_dst=(int(MACS[1]), 0xFFFFFFFFFFFF), vlan_vid=0x1000 | 100
        )
        mixed = Match(eth_type=0x0800, ipv4_dst=("10.0.1.0", "255.255.255.0"))
        install(switch, match=whole, priority=9, instructions=output(2))
        install(switch, match=mixed, priority=5, instructions=output(2))
        lines = [line.strip() for line in compile_datapath(switch).source.splitlines()]
        whole_probe = lines.index("ch = P0_get((v0, v1, v4))")
        assert lines[whole_probe - 1] == "if e is None or ek0 >= -9:"
        mixed_probe = lines.index("ch = P1_get((v3, v9 & 0xffffff00))")
        assert lines[mixed_probe - 1] == "if v9 is not None:"


class TestInvalidationAndRegenerate:
    def test_flowmod_invalidates_and_next_frame_is_compiled(self):
        sim, switch, sinks, _ = build_rig()
        for index in range(3):
            install(
                switch,
                match=Match(in_port=index + 1),
                priority=1,
                instructions=output(2),
            )
        assert switch.program is None  # lazily: three mods, no frame yet
        switch.inject(frame_ab(), 1)
        first = switch.program
        assert first is not None and switch.program_compiles == 1
        assert switch.specialized_frames == 1
        install(switch, match=Match(in_port=1), priority=9, instructions=output(3))
        # Stale synchronously: the program is gone before any packet.
        assert switch.program is None
        assert switch.program_invalidations == 1
        switch.inject(frame_ab(), 1)  # one mod, no wait: regenerated and served
        assert switch.program is not None
        assert switch.program is not first  # a fresh program, not the stale one
        assert switch.program_compiles == 2
        assert switch.specialized_frames == 2 and switch.fallback_frames == 0
        sim.run()
        # Port 2 under the first program, port 3 under the redirect.
        assert len(sinks[1].received) == 1
        assert len(sinks[2].received) == 1

    def test_recompile_does_not_wait_for_quiet(self):
        """Mods and frames interleaved at one simulated instant: every
        frame is served compiled, whatever the control plane is doing."""
        sim, switch, _, _ = build_rig()
        for index in range(5):  # each add raises its probe's priority bound
            install(switch, match=Match(in_port=1), priority=index + 1,
                    instructions=output(2))
            switch.inject(frame_ab(), 1)
            assert switch.program is not None
        assert sim.now == 0.0
        assert switch.program_compiles == 5 and switch.program_invalidations == 4
        assert switch.specialized_frames == 5 and switch.fallback_frames == 0

    def test_mutations_set_compile_pending(self):
        _, switch, _, _ = build_rig()

        def pending():
            return switch.stats()["specialization"]["compile_pending"]

        assert not pending()  # a fresh switch has nothing to compile
        switch.inject(frame_ab(), 1)
        assert switch.program is None and switch.program_compiles == 0
        install(switch, match=Match(in_port=1), instructions=output(2))
        install(switch, match=Match(in_port=2), instructions=output(2))
        assert pending()
        switch.inject(frame_ab(), 1)
        assert not pending() and switch.program_compiles == 1
        # A no-op delete mutates nothing; a real one inside the shape
        # is patched.  Neither asks for a compile.
        switch.handle_message(
            FlowMod(command=c.OFPFC_DELETE, match=Match(in_port=7)).to_bytes()
        )
        switch.handle_message(
            FlowMod(command=c.OFPFC_DELETE, match=Match(in_port=2)).to_bytes()
        )
        assert not pending() and switch.program_patches == 1

    def test_recompile_picks_up_table_shape_change(self):
        _, switch, _, _ = build_rig()
        install(switch, match=Match(eth_dst=int(MACS[1])), instructions=output(2))
        switch.inject(frame_ab(), 1)
        assert switch.program.used_slots == (1,)
        install(
            switch,
            match=Match(eth_type=0x0800, udp_dst=2000),
            priority=9,
            instructions=output(3),
        )
        switch.inject(frame_ab(), 1)
        assert switch.program.used_slots == (1, 3, 13)  # shape recompiled

    def test_group_mod_marks_stale(self):
        """Only the *first select group* does: its bucket choice is
        baked per key, so the key must grow the hash slots.  Any other
        group mod is content and patches the program in place."""
        _, switch, _, _ = build_rig()
        install(switch, match=Match(in_port=1), instructions=output(2))
        switch.inject(frame_ab(), 1)
        program = switch.program
        assert program is not None
        switch.handle_message(
            GroupMod(
                command=c.OFPGC_ADD,
                group_type=c.OFPGT_INDIRECT,
                group_id=9,
                buckets=[Bucket(actions=[OutputAction(port=2)])],
            ).to_bytes()
        )
        assert switch.program is program
        assert switch.program_invalidations == 0
        assert switch.program_patches == 1
        switch.handle_message(
            GroupMod(
                command=c.OFPGC_ADD,
                group_type=c.OFPGT_SELECT,
                group_id=10,
                buckets=[Bucket(actions=[OutputAction(port=2)])],
            ).to_bytes()
        )
        assert switch.program is None
        assert switch.program_invalidations == 1
        assert "select group" in switch.last_regenerate_reason

    def test_cost_model_swap_marks_stale(self):
        _, switch, _, _ = build_rig()
        install(switch, match=Match(in_port=1), instructions=output(2))
        switch.inject(frame_ab(), 1)
        assert switch.program is not None
        switch.cost_model = DatapathCostModel()
        assert switch.program is None
        switch.inject(frame_ab(), 1)  # recompiles with the new constants
        assert switch.program is not None

    def test_uncompilable_pipeline_stays_interpreted_without_retry_storm(self):
        class HookedModel(DatapathCostModel):
            pass

        _, switch, _, _ = build_rig()
        switch.cost_model = HookedModel.zero()
        install(switch, match=Match(in_port=1), instructions=output(2))
        switch.inject(frame_ab(), 1)
        assert switch.program is None
        assert switch.program_compile_failures == 1
        assert "subclassed" in switch.compile_ineligible_reason
        switch.inject(frame_ab(), 1)  # nothing mutated: no second attempt
        assert switch.program_compile_failures == 1
        assert switch.fallback_frames == 2

    def test_specialization_disabled_never_compiles(self):
        _, switch, _, _ = build_rig(enable_specialization=False)
        install(switch, match=Match(in_port=1), instructions=output(2))
        switch.inject(frame_ab(), 1)
        assert switch.program is None
        assert switch.program_compiles == 0
        assert switch.fallback_frames == 0  # counter reserved for enabled switches

    def test_stats_surface_ineligible_reason(self):
        _, switch, _, _ = build_rig()
        install(switch, match=Match(in_port=1), instructions=output(2))
        switch.inject(frame_ab(), 1)
        assert switch.stats()["specialization"]["ineligible_reason"] is None
        install(
            switch,
            match=Match(in_port=2),
            priority=7,
            instructions=[WriteActions(actions=(OutputAction(port=3),))],
        )
        switch.inject(frame_ab(), 1)
        reason = switch.stats()["specialization"]["ineligible_reason"]
        assert "table 0 priority 7" in reason
        assert "WriteActions needs the action set" in reason

    def test_probes_run_in_descending_max_priority_order(self):
        """The one probe order, whatever traffic the table has seen:
        here every lookup was won by the lowest-priority probe."""
        _, switch, _, _ = build_rig(enable_specialization=False)
        install(switch, match=Match(in_port=2), priority=3, instructions=output(2))
        install(
            switch,
            match=Match(eth_type=0x0800, ipv4_dst=("10.0.1.0", "255.255.255.0")),
            priority=5,
            instructions=output(3),
        )
        install(switch, match=Match(eth_dst=int(MACS[1])), priority=9,
                instructions=output(2))
        for _ in range(5):
            switch.inject(udp_frame(MACS[0], MACS[2], IPS[0], IPS[1], 1, 2, b"x"), 2)
        assert switch.tables[0].matches == 5
        source = compile_datapath(switch).source
        assert [-int(bound) for bound in re.findall(r"ek0 >= (-?\d+)", source)] == [9, 5, 3]

    def test_probe_order_is_behaviour_preserving(self):
        rng = random.Random(0xBEEF)
        _, switch, _, _ = build_rig()
        install(
            switch, match=Match(eth_dst=int(MACS[1])), priority=5, instructions=output(2)
        )
        install(
            switch,
            match=Match(eth_type=0x0800, ipv4_dst=("10.0.1.0", "255.255.255.0")),
            priority=5,
            instructions=output(3),
        )
        install(switch, match=Match(in_port=2), priority=3, instructions=output(2))
        install(switch, match=Match(), priority=0, instructions=[])
        base = compile_datapath(switch)
        for order in (0, 1, 7):
            variant = compile_datapath(switch, probe_order=order)
            assert variant.probe_order == order
            for _ in range(50):
                frame = miniflow_frame(rng)
                in_port = rng.randint(1, 4)
                assert variant.classify(frame, in_port, 0.0) == base.classify(
                    frame, in_port, 0.0
                ), (frame, in_port, order)

    def test_stats_shape(self):
        _, switch, _, _ = build_rig()
        install(switch, match=Match(in_port=1), instructions=output(2))
        switch.inject(frame_ab(), 1)
        stats = switch.stats()
        spec = stats["specialization"]
        assert spec["enabled"] and spec["active"]
        assert spec["compiles"] == 1
        assert spec["specialized_frames"] == 1
        assert spec["patches"] == 0
        assert spec["last_regenerate_reason"] is None


def delete(switch, strict=False, **kwargs):
    command = c.OFPFC_DELETE_STRICT if strict else c.OFPFC_DELETE
    assert switch.handle_message(FlowMod(command=command, **kwargs).to_bytes()) == []


class TestPatchingInPlace:
    """Mutations inside the compiled shape keep the program (PR 14)."""

    def _live(self):
        sim, switch, sinks, _ = build_rig()
        install(switch, match=Match(in_port=1), priority=9, instructions=output(2))
        install(switch, match=Match(), priority=0, instructions=[])
        switch.inject(frame_ab(), 1)
        assert switch.program is not None
        return sim, switch, sinks

    def test_add_delete_modify_inside_the_shape_patch(self):
        sim, switch, sinks = self._live()
        program = switch.program
        # Replacement ADD: same match and priority, new instructions —
        # the cached decision for in_port=1 must not survive it.
        install(switch, match=Match(in_port=1), priority=9, instructions=output(3))
        switch.inject(frame_ab(), 1)
        # MODIFY rewrites the entry in place (same object, same id).
        switch.handle_message(
            FlowMod(
                command=c.OFPFC_MODIFY, match=Match(in_port=1), instructions=output(1)
            ).to_bytes()
        )
        switch.inject(frame_ab(), 1)
        # DELETE of the cached winner: the frame now hits the drop rule.
        delete(switch, match=Match(in_port=1))
        switch.inject(frame_ab(), 1)
        sim.run()
        assert switch.program is program  # one program served all of it
        spec = switch.stats()["specialization"]
        assert spec["compiles"] == 1 and spec["invalidations"] == 0
        assert spec["patches"] == 3 and not spec["compile_pending"]
        assert spec["specialized_frames"] == 4 and spec["fallback_frames"] == 0
        assert [len(sink.received) for sink in sinks] == [1, 1, 1]
        assert switch.tables[0].matches == 4  # the last one by the drop rule

    def test_noop_delete_is_not_a_patch(self):
        _, switch, _ = self._live()
        delete(switch, match=Match(in_port=7))
        assert switch.program_patches == 0

    def test_shape_breaks_discard_the_program_and_say_why(self):
        cases = [
            (dict(match=Match(eth_type=0x0800, udp_dst=2000), instructions=output(3)),
             "new field-set (eth_type, udp_dst)"),
            (dict(match=Match(ipv4_dst=("10.0.1.0", "255.255.255.0")),
                  instructions=output(3)),
             "new mask-set (ipv4_dst/0xffffff00)"),
            (dict(match=Match(in_port=2), priority=300, instructions=output(3)),
             "priority 300 above baked bound 9"),
            (dict(match=Match(in_port=2), priority=5, hard_timeout=3,
                  instructions=output(3)),
             "first mortal entry"),
            (dict(table_id=1, match=Match(udp_dst=53), instructions=output(3)),
             "table 1 reads slot outside used_slots (udp_dst)"),
        ]
        for flow_mod, reason in cases:
            _, switch, _ = self._live()
            install(switch, **flow_mod)
            assert switch.program is None, reason
            spec = switch.stats()["specialization"]
            assert spec["last_regenerate_reason"] == reason
            assert spec["invalidations"] == 1 and spec["compile_pending"]
            assert spec["patches"] == 0
            switch.inject(frame_ab(), 1)  # regenerated for the first frame
            assert switch.program is not None and switch.program_compiles == 2
        _, switch, _ = self._live()
        switch.cost_model = DatapathCostModel()
        assert switch.last_regenerate_reason == "cost model swapped"
        _, switch, _ = self._live()
        switch.reset_pipeline()
        assert switch.last_regenerate_reason == "pipeline reset"

    def test_later_table_add_within_used_slots_patches(self):
        _, switch, _ = self._live()
        program = switch.program
        install(switch, table_id=1, match=Match(in_port=3), instructions=output(2))
        assert switch.program is program and switch.program_patches == 1

    def test_emptied_field_set_recreated_rebinds_probe(self):
        """The add/delete-strict churn of `bench_tiers`'s churn row: the
        only entry of a field-set goes, the table drops the emptied
        group, the next add builds a new one (a new bucket dict).  The
        kept program must probe the new dict."""
        sim, switch, sinks = self._live()
        program = switch.program
        table = switch.tables[0]
        delete(switch, strict=True, match=Match(in_port=1), priority=9)
        assert table.used_slots() == frozenset()  # the in_port group is gone
        switch.inject(frame_ab(), 1)  # probes the detached, empty dict: miss
        install(switch, match=Match(in_port=1), priority=7, instructions=output(3))
        assert switch.program is program
        _, buckets = table.probe_group(Match(in_port=1))
        assert program.run_burst.__globals__["P0_get"].__self__ is buckets
        switch.inject(frame_ab(), 1)
        sim.run()
        assert len(sinks[2].received) == 1
        assert [entry.packet_count for entry in table if entry.priority == 7] == [1]
        assert switch.specialized_frames == 3 and switch.program_compiles == 1

    def test_ineligible_reason_follows_the_tables_through_patches(self):
        """A MODIFY into a reserved output is patched in; one into a
        construct the compiler rejects discards the program, leaves the
        pipeline interpreted and says why, until a delete takes it away."""
        _, switch, _ = self._live()
        program = switch.program
        for instructions in (
            [ApplyActions(actions=(OutputAction(port=c.OFPP_FLOOD),))],
            [WriteActions(actions=(OutputAction(port=2),))],
        ):
            switch.handle_message(
                FlowMod(
                    command=c.OFPFC_MODIFY, match=Match(in_port=1),
                    instructions=instructions,
                ).to_bytes()
            )
            switch.inject(frame_ab(), 1)
        assert switch.program_patches == 1 and switch.program_invalidations == 1
        assert switch.last_regenerate_reason == "WriteActions needs the action set"
        assert switch.program is None and switch.fallback_frames == 1
        assert "WriteActions" in switch.stats()["specialization"]["ineligible_reason"]
        delete(switch, match=Match(in_port=1))
        switch.inject(frame_ab(), 1)
        assert switch.program is not None and switch.program is not program
        assert switch.compile_ineligible_reason is None
        assert switch.fallback_frames == 1

    def test_mid_burst_patch_keeps_the_burst_compiled(self):
        """A synchronous controller answers a packet-in by revoking one
        rule and granting another, both inside the shape: the program
        is patched under the running burst; the patch flushed the key
        cache, so the next frame reclassifies and the remaining frames
        are served compiled — under the *new* rules."""
        sim, switch, sinks, _ = build_rig()
        packet_in = [ApplyActions(actions=(OutputAction(port=c.OFPP_CONTROLLER),))]
        install(switch, match=Match(in_port=1), priority=9, instructions=output(2))
        install(switch, match=Match(in_port=2), priority=9, instructions=packet_in)

        def controller(raw):
            delete(switch, strict=True, match=Match(in_port=2), priority=9)
            install(switch, match=Match(in_port=2), priority=5, instructions=output(3))

        switch.to_controller = controller
        switch.inject(frame_ab(), 1)
        program = switch.program
        frame = frame_ab()
        switch.process_batch(2, [frame] * 6)  # one flow key; the patch flushes its decision
        sim.run()
        assert switch.program is program and switch.program_patches == 2
        assert switch.fallback_frames == 0  # the packet-in frame too
        assert switch.specialized_frames == 1 + 6
        assert len(sinks[2].received) == 5


class TestColdStartWorkBudget:
    """What bringing a compiled datapath up costs, pinned by counting
    calls of the builtin ``compile()`` instead of timing them: the
    generated source text is the pipeline's shape, a shape compiles
    once per process, and nothing waits to use a regenerated program."""

    @staticmethod
    def count_builtin_compiles(monkeypatch, limit=None):
        """A private code table for the test and a counter on the
        ``compile`` name ``compiler.py`` resolves."""
        seen = []

        def counting(source, filename, mode):
            seen.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(compiler, "_CODE_CACHE", {})
        monkeypatch.setattr(compiler, "compile", counting, raising=False)
        if limit is not None:
            monkeypatch.setattr(compiler, "CODE_CACHE_LIMIT", limit)
        return seen

    @staticmethod
    def migrated_fabric():
        fabric = leaf_spine_fabric(edges=4, spines=1, hosts_per_edge=2)
        fleet = HarmlessFleet(fabric, wave_size=5, cost_model=ZERO_COST)
        fleet.migrate_all(verify=True, strict=True)
        switches = [
            half
            for deployment in fleet.deployments.values()
            for half in (deployment.s4.ss1, deployment.s4.ss2)
        ]
        assert len(switches) == 10 and all(s.program is not None for s in switches)
        return switches

    def test_a_fabric_costs_one_compile_per_shape(self, monkeypatch):
        seen = self.count_builtin_compiles(monkeypatch)
        first = self.migrated_fabric()
        # SS_1's translator, SS_2 before and after it learned a station.
        assert len(seen) == len(set(seen)) <= 3  # no shape compiled twice
        assert all(name.startswith("<specialized datapath ") for name in seen)
        assert sum(switch.program_compiles for switch in first) >= 10
        del seen[:]
        second = self.migrated_fabric()  # same shapes, other switches
        assert seen == []
        assert {s.program.source for s in second} == {s.program.source for s in first}

    @staticmethod
    def reprogram(switch, shape):
        switch.reset_pipeline()
        if shape:
            install(switch, match=Match(eth_dst=int(MACS[1])), instructions=output(3))
        else:
            install(switch, match=Match(in_port=1), instructions=output(2))

    def test_flipping_between_two_shapes_compiles_each_once(self, monkeypatch):
        seen = self.count_builtin_compiles(monkeypatch)
        sim, switch, sinks, _ = build_rig()
        for flip in range(40):
            self.reprogram(switch, flip % 2)
            switch.inject(frame_ab(), 1)
        sim.run()
        assert len(seen) == 2 and switch.program_compiles == 40
        assert switch.specialized_frames == 40 and switch.fallback_frames == 0
        assert [len(sink.received) for sink in sinks] == [0, 20, 20]

    def test_table_past_its_bound_evicts_and_still_compiles(self, monkeypatch):
        seen = self.count_builtin_compiles(monkeypatch, limit=2)
        sim, switch, sinks, _ = build_rig()
        fields = [dict(in_port=1), dict(eth_dst=int(MACS[1])), dict(eth_type=0x0800)]
        for round_ in range(2):  # the third shape clears the table, so
            for index, match in enumerate(fields):  # every one compiles again
                switch.reset_pipeline()
                install(switch, match=Match(**match), instructions=output(index + 1))
                switch.inject(frame_ab(), 1)
                assert switch.program is not None and len(compiler._CODE_CACHE) <= 2
        sim.run()
        assert len(seen) == 6 and len(set(seen)) == 3  # named by shape
        assert switch.specialized_frames == 6
        assert [len(sink.received) for sink in sinks] == [2, 2, 2]

    def test_first_frame_after_a_shape_break_is_served_compiled(self):
        """``fallback_frames`` never moves: not for want of a program,
        and not for the packet-in rule on port 3 either."""
        packet_in = [ApplyActions(actions=(OutputAction(port=c.OFPP_CONTROLLER),))]
        breaks = [
            dict(match=Match(eth_type=0x0800, udp_dst=2000), instructions=output(3)),
            dict(match=Match(ipv4_dst=("10.0.1.0", "255.255.255.0")),
                 instructions=output(3)),
            dict(match=Match(in_port=2), priority=300, instructions=output(3)),
            dict(match=Match(in_port=2), priority=5, hard_timeout=3,
                 instructions=output(3)),
            dict(table_id=1, match=Match(eth_src=int(MACS[3])), instructions=output(3)),
        ]
        _, switch, _, _ = build_rig()
        switch.to_controller = lambda raw: None
        install(switch, match=Match(in_port=1), priority=9, instructions=output(2))
        install(switch, match=Match(in_port=3), priority=9, instructions=packet_in)
        switch.inject(frame_ab(), 1)
        for served, flow_mod in enumerate(breaks, start=1):
            program = switch.program
            install(switch, **flow_mod)
            assert switch.program is None and switch.program_invalidations == served
            switch.inject(frame_ab(dst_port=7), 1)
            assert switch.program is not None and switch.program is not program
            switch.inject(frame_ab(dst_port=7), 3)
            assert switch.packets_to_controller == served
        assert switch.fallback_frames == 0
        assert switch.specialized_frames == 1 + 2 * len(breaks)

    def test_rejected_pipeline_is_attempted_once_per_mutation(self, monkeypatch):
        class HookedModel(DatapathCostModel):
            pass

        attempts = []

        def counted(switch):
            attempts.append(switch.name)
            return compile_datapath(switch)

        monkeypatch.setattr(datapath, "compile_datapath", counted)
        _, switch, _, _ = build_rig()
        switch.cost_model = HookedModel.zero()
        for mutation in range(3):
            install(switch, match=Match(in_port=mutation + 1), instructions=output(2))
            install(switch, match=Match(in_port=mutation + 1), priority=7,
                    instructions=output(3))  # two mods, no frame between: one attempt
            for _ in range(4):
                switch.inject(frame_ab(), 1)
            switch.process_batch(1, [frame_ab(), frame_ab()])
            assert len(attempts) == switch.program_compile_failures == mutation + 1
        assert switch.program is None and switch.fallback_frames == 18

    def test_switches_of_one_shape_share_code_and_nothing_else(self, monkeypatch):
        """Two switches whose pipelines generate the same source run the
        same code object over their own tables: different entries,
        different ports out, and a probe rebound in one (its field-set
        emptied and re-created, ``add_breaks_shape``) leaves the other's
        binding alone.  Each stays equal to its ``linear_lookup`` twin."""
        seen = self.count_builtin_compiles(monkeypatch)
        rng = random.Random(0xC01D)
        rigs = {}
        for name, out_port in (("a", 2), ("b", 3)):
            for linear in (False, True):
                sim, switch, sinks, _ = build_rig(enable_fast_path=not linear)
                install(switch, match=Match(in_port=1), priority=9,
                        instructions=output(out_port))
                install(switch, match=Match(eth_dst=int(MACS[2])), priority=4,
                        instructions=output(1))
                rigs[name, linear] = (sim, switch, sinks)
        a, b = rigs["a", False][1], rigs["b", False][1]

        def drive(count=40):
            for _ in range(count):
                frame, in_port = miniflow_frame(rng), rng.randint(1, 3)
                for _, switch, _ in rigs.values():
                    switch.inject(frame, in_port)
            for sim, _, _ in rigs.values():
                sim.run()
            for name in "ab":
                (_, switch, sinks), (_, twin, twin_sinks) = rigs[name, False], rigs[name, True]
                assert [s.received for s in sinks] == [s.received for s in twin_sinks]
                assert switch.drops == twin.drops
                assert switch.dump_pipeline() == twin.dump_pipeline()

        drive()
        assert len(seen) == 1 and a.program.source == b.program.source
        assert a.program.run_burst.__code__ is b.program.run_burst.__code__
        assert a.program.run_burst.__globals__ is not b.program.run_burst.__globals__
        binding_b = b.program.run_burst.__globals__["P0_get"]
        for linear in (False, True):  # empty a's in_port field-set, re-create it
            switch = rigs["a", linear][1]
            delete(switch, strict=True, match=Match(in_port=1), priority=9)
            install(switch, match=Match(in_port=1), priority=6, instructions=output(3))
        drive()
        assert (a.program_compiles, a.program_patches, len(seen)) == (1, 2, 1)
        assert b.program.run_burst.__globals__["P0_get"] is binding_b
        assert a.fallback_frames == b.fallback_frames == 0


class TestInterpreterIsTheOracle:
    """With specialization on and a program active, no frame enters
    ``SoftSwitch._interpret_one``: packet-ins and floods are steps of
    the compiled program.  Pinned without a clock, by counting entries
    on three rigs whose pipelines output to reserved ports."""

    RIGS = ("learning_fabric", "load_balancer", "parental_control")

    @staticmethod
    def migrated_site(sim, apps, hosts):
        """*hosts* on a legacy switch migrated under a controller running
        *apps*; returns its SS_2."""
        legacy = LegacySwitch(sim, "site", num_ports=len(hosts) + 1)
        for port, host in enumerate(hosts, start=1):
            Link(host.port0, legacy.port(port))
        controller = Controller(sim)
        for app in apps:
            controller.add_app(app)
        mib, _ = attach_bridge_mib(legacy)
        driver = get_network_driver("sim-ios")(
            DeviceConnection(agent=SnmpAgent(mib), hostname="site")
        )
        driver.open()
        manager = HarmlessManager(sim, controller=controller)
        deployment = manager.migrate(legacy, driver, trunk_port=len(hosts) + 1)
        sim.run(until=sim.now + 0.1)
        return deployment.s4.ss2

    @staticmethod
    def hosts(sim, count):
        return [
            Host(sim, f"h{n}", MACAddress(0x02_00_00_00_00_01 + n),
                 IPv4Address(f"10.0.0.{n + 1}"))
            for n in range(count)
        ]

    def learning_fabric(self, sim):
        """Migration waves with the learning switch: table-miss packet-ins."""
        fabric = leaf_spine_fabric(edges=2, spines=1, hosts_per_edge=2, sim=sim)
        fleet = HarmlessFleet(fabric, wave_size=5, cost_model=ZERO_COST)
        fleet.migrate_all(verify=True, strict=True)
        return [deployment.s4.ss2 for deployment in fleet.deployments.values()]

    def load_balancer(self, sim):
        """Backends answer through the LB's rewrite-then-FLOOD rule."""
        vip, vip_mac = IPv4Address("10.0.0.100"), MACAddress(0x02_00_00_00_0F_00)
        hosts = self.hosts(sim, 4)
        clients, backends = hosts[:2], hosts[2:]
        pool = [Backend(ip=h.ip, mac=h.mac, port=3 + n) for n, h in enumerate(backends)]
        apps = [ArpResponderApp(bindings={vip: vip_mac}),
                LoadBalancerApp(vip=vip, vip_mac=vip_mac, backends=pool),
                LearningSwitchApp()]
        ss2 = self.migrated_site(sim, apps, hosts)
        for backend in backends:
            backend.serve_udp(80, lambda host, ip, sport, dport, data:
                              host.send_udp(ip, sport, b"200", src_port=80))
        for n, client in enumerate(clients * 3):
            sim.schedule(0.02 * n, client.send_udp, vip, 80, b"GET /")
        sim.run(until=sim.now + 2.0)
        return [ss2]

    def parental_control(self, sim):
        """DNS lookups through the app's intercept-to-controller rules."""
        kid, resolver = self.hosts(sim, 2)
        resolver.serve_udp(53, lambda host, ip, sport, dport, data: host.send_udp(
            ip, sport, DnsMessage.from_bytes(data).make_response(rcode=3).to_bytes(),
            src_port=53))
        app = ParentalControlApp()
        ss2 = self.migrated_site(sim, [app, LearningSwitchApp()], [kid, resolver])
        app.block(kid.ip, "games.example")
        for n in range(3):
            sim.schedule(0.1 * n, kid.send_udp, resolver.ip, 53,
                         DnsMessage.query(n + 1, "games.example").to_bytes())
        sim.run(until=sim.now + 1.0)
        return [ss2]

    @pytest.mark.parametrize("rig", RIGS)
    def test_no_frame_of_a_compiled_program_is_interpreted(self, rig, monkeypatch):
        entered = []
        interpret = SoftSwitch._interpret_one

        def counting(switch, frame, in_port):
            if switch.specialize and switch.program is not None:
                entered.append(switch.name)
            interpret(switch, frame, in_port)

        monkeypatch.setattr(SoftSwitch, "_interpret_one", counting)
        switches = getattr(self, rig)(Simulator())
        reserved = [
            entry
            for switch in switches
            for entry in switch.tables[0]
            if any(getattr(action, "port", None) in (c.OFPP_CONTROLLER, c.OFPP_FLOOD)
                   for instruction in entry.instructions
                   for action in instruction.actions)
        ]
        assert sum(entry.packet_count for entry in reserved) > 0  # they served frames
        assert all(switch.program is not None for switch in switches)
        assert sum(switch.specialized_frames for switch in switches) > 0
        assert entered == []


class TestOneFramePath:
    """``process_batch`` is the one definition of frame handling: each
    entry point reaches the compiled program through one ``run_burst``
    call (a single frame is a burst of one), the generated module holds
    one executor, and its source is a function of the pipeline's shape
    alone — not of the traffic the switch has seen."""

    @staticmethod
    def compiled_switch():
        sim, switch, sinks, _ = build_rig()
        install(switch, match=Match(in_port=2), priority=3, instructions=output(1))
        install(switch, match=Match(eth_dst=int(MACS[1])), priority=9,
                instructions=output(2))
        install(switch, match=Match(), priority=0, instructions=[])
        switch.inject(frame_ab(), 1)
        assert switch.program is not None
        return sim, switch, sinks

    def test_every_entry_point_is_one_run_burst_call(self):
        sim, switch, sinks = self.compiled_switch()
        program = switch.program
        calls = []

        def counting(in_port, frames, run_burst=program.run_burst):
            calls.append((in_port, len(frames)))
            return run_burst(in_port, frames)

        program.run_burst = counting
        port = switch.port(1)
        switch.receive(port, frame_ab())
        switch.receive_burst(port, [frame_ab(), frame_ab()], [sim.now, sim.now])
        switch.inject(frame_ab(), 1)
        switch.process_batch(1, [frame_ab(), frame_ab(), frame_ab()])
        sim.run()
        assert calls == [(1, 1), (1, 2), (1, 1), (1, 3)]
        assert switch.specialized_frames == 8 and switch.fallback_frames == 0
        assert len(sinks[1].received) == 8

    def test_generated_module_defines_one_executor(self):
        _, switch, _ = self.compiled_switch()
        defs = re.findall(r"^def (\w+)", switch.program.source, re.MULTILINE)
        assert [name for name in defs if name.startswith("run")] == ["run_burst"]
        assert not hasattr(switch.program, "run_one")

    def test_source_depends_on_the_shape_not_the_traffic(self):
        sources = []
        for hits in (0, 50):
            _, switch, _ = self.compiled_switch()
            for index in range(hits):  # 50 flows, won by the lowest-priority probe
                dst = MACAddress(0x02000000AA00 + index)
                switch.inject(udp_frame(MACS[0], dst, IPS[0], IPS[1], 1, 2, b"x"), 2)
            assert switch.tables[0].matches == 1 + hits
            switch.cost_model = ZERO_COST  # discards; the next frame regenerates
            switch.inject(frame_ab(), 1)
            assert switch.program_compiles == 2
            sources.append(switch.program.source)
        assert sources[0] == sources[1]


class TestDetourWorkBudget:
    """What one frame's trip through a migrated site's S4 costs, pinned
    by counting work instead of timing it: trunk -> SS_1 pop -> patch ->
    SS_2 -> patch -> SS_1 tagged push -> trunk."""

    FLOWS = ((1, 2), (2, 1), (3, 4), (4, 3))  # SS_2: port -> port

    def build(self):
        sim = Simulator()
        s4 = HarmlessS4(sim, "s4", access_ports=[1, 2, 3, 4], datapath_id=7,
                        cost_model=ZERO_COST)
        port_map = PortVlanMap.allocate(s4.access_ports)
        s4.install_translator(port_map)
        for in_port, out_port in self.FLOWS:
            install(s4.ss2, match=Match(in_port=in_port), priority=10,
                    instructions=output(out_port))
        trunk = Sink(sim, "legacy-side")
        Link(trunk.add_port(1), s4.trunk_port, bandwidth_bps=None,
             propagation_delay_s=0.0)
        return sim, s4, port_map, trunk

    @staticmethod
    def trunk_burst(port_map, access_ports, size=32):
        """Fresh tagged frames, as the legacy switch's push leaves them."""
        return [
            udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 1000 + index, 53, b"x")
            .push_vlan(port_map.vlan_of(access_ports[index % len(access_ports)]))
            for index in range(size)
        ]

    @staticmethod
    def live_frames():
        gc.collect()
        return sum(type(thing) is EthernetFrame for thing in gc.get_objects())

    def test_second_burst_work_is_two_derivations_per_frame(self, monkeypatch):
        sim, s4, port_map, trunk = self.build()
        trunk.port(1).send_burst(self.trunk_burst(port_map, (1, 2)))
        sim.run(until=0.2)
        assert len(trunk.received) == 32
        assert s4.ss1.specialized_frames == 64 and s4.ss2.specialized_frames == 32

        live_before = self.live_frames()
        burst = self.trunk_burst(port_map, (1, 2, 3, 4))  # two flows are new
        calls = dict.fromkeys(
            ("__init__", "push_vlan", "pop_vlan", "set_vlan", "copy", "tag"), 0
        )

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("__init__", "push_vlan", "pop_vlan", "set_vlan", "copy"):
            monkeypatch.setattr(
                EthernetFrame, name, counted(name, getattr(EthernetFrame, name))
            )
        monkeypatch.setattr(
            Dot1QTag, "__post_init__", counted("tag", Dot1QTag.__post_init__)
        )
        classified = {}
        for switch in (s4.ss1, s4.ss2):
            namespace = switch.program.run_burst.__globals__
            known = set(switch.program.key_cache)
            keys = classified[switch.name] = []

            def classify(key, now, original=namespace["_classify"],
                         keys=keys, known=known):
                assert key not in known  # a cached flow never reclassifies
                keys.append(key)
                return original(key, now)

            monkeypatch.setitem(namespace, "_classify", classify)

        trunk.port(1).send_burst(burst)
        sim.run()
        monkeypatch.undo()
        assert len(trunk.received) == 64
        assert s4.ss1.specialized_frames == 128 and s4.ss1.fallback_frames == 0
        # SS_1's pop and SS_1's tagged push: one frame each, no
        # intermediate untagged-push frame, nothing built from scratch.
        assert calls == {"__init__": 0, "push_vlan": 32, "pop_vlan": 32,
                         "set_vlan": 0, "copy": 0, "tag": 0}
        # One _classify entry per flow key first seen in this burst.
        assert sorted(map(len, classified.values())) == [2, 4]
        for keys in classified.values():
            assert len(keys) == len(set(keys))
        # Nothing the burst brought in or left behind is still alive:
        # no program, port or link holds on to a frame it has served.
        del burst
        assert self.live_frames() == live_before


class TestTagWorkBudget:
    """What a VLAN tag edit costs, pinned by counting Python frames:
    each derivation builds its frame in its own body and finds its tag
    in the intern table, and a translator rule's compiled plan (one
    edit, one output) calls nothing per frame but the edit."""

    @staticmethod
    def entered(act):
        """Function names of the Python frames *act* enters, below its own."""
        return [name for _, name in TestEventWorkBudget.python_frames(act)]

    @staticmethod
    def tagged():
        return udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 1, 2, b"x").push_vlan(10)

    def test_a_tag_edit_on_a_tag_table_hit_is_one_python_frame(self):
        frame = self.tagged().push_vlan(20).set_vlan(30)  # every tag below is interned
        results = {}
        for name, act in (
            ("push_vlan", lambda: results.setdefault("push_vlan", frame.push_vlan(20))),
            ("pop_vlan", lambda: results.setdefault("pop_vlan", frame.pop_vlan())),
            ("set_vlan", lambda: results.setdefault("set_vlan", frame.set_vlan(10))),
            ("copy", lambda: results.setdefault("copy", frame.copy())),
        ):
            assert self.entered(act) == [name]
        assert [tag.vlan_id for tag in frame.tags] == [30, 10]
        assert [tag.vlan_id for tag in results["push_vlan"].tags] == [20, 30, 10]
        assert [tag.vlan_id for tag in results["pop_vlan"].tags] == [10]
        assert [tag.vlan_id for tag in results["set_vlan"].tags] == [10, 10]
        assert results["copy"] == frame and results["copy"] is not frame
        for derived in results.values():
            decoded = EthernetFrame.from_bytes(derived.to_bytes())
            assert derived == decoded and derived.wire_length == decoded.wire_length

    def test_only_a_tag_table_miss_calls_out(self, monkeypatch):
        frame = self.tagged()
        # A value the table does not hold (another test may have filled it).
        monkeypatch.delitem(ethernet_module._TAGS, (4094, 7, False), raising=False)
        assert self.entered(lambda: frame.push_vlan(4094, 7))[:2] == [
            "push_vlan", "_interned_tag"
        ]
        assert self.entered(lambda: frame.push_vlan(4094, 7)) == ["push_vlan"]

    def translator_rig(self):
        sim, s4, port_map, trunk = TestDetourWorkBudget().build()
        trunk.port(1).send_burst(TestDetourWorkBudget.trunk_burst(port_map, (1, 2, 3, 4)))
        sim.run()  # warm: every translator rule's plan is in the key cache
        assert len(trunk.received) == 32
        return sim, s4, port_map, trunk

    def run_burst_callees(self, switch, in_port, frames):
        """What ``run_burst`` itself calls while *switch* serves *frames*."""
        run_burst = switch.program.run_burst.__code__
        callees = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_back is not None \
                    and frame.f_back.f_code is run_burst:
                callees.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            switch.process_batch(in_port, frames)
        finally:
            sys.setprofile(None)
        return Counter(callees)

    def test_a_translator_rule_runs_no_step_loop(self):
        sim, s4, port_map, trunk = self.translator_rig()
        ss1 = s4.ss1
        kinds = {plan[0] for plan in ss1.program.key_cache.values()}
        assert kinds == {compiler.PLAN_EDIT}

        # Trunk -> patch: 32 pops, and one flush of the coalesced egress.
        burst = TestDetourWorkBudget.trunk_burst(port_map, (1, 2, 3, 4))
        assert self.run_burst_callees(ss1, SS1_TRUNK_PORT, burst) == Counter(
            {"pop_vlan": 32, "_send_chains": 1}
        )
        sim.run()  # SS_2 hairpins them: trunk -> patch -> SS_2 -> patch -> trunk
        before = len(trunk.received)
        # Patch -> trunk: 32 pushes of the port's VLAN.
        untagged = [frame.pop_vlan() for frame in burst]
        assert self.run_burst_callees(ss1, 3, untagged) == Counter(
            {"push_vlan": 32, "_send_chains": 1}
        )
        sim.run()
        assert {plan[0] for plan in ss1.program.key_cache.values()} == {compiler.PLAN_EDIT}
        pushed = [EthernetFrame.from_bytes(raw) for _, raw in trunk.received[before:]]
        assert [frame.vlan_id for frame in pushed] == [port_map.vlan_of(3)] * 32
        assert [frame.pop_vlan() for frame in pushed] == untagged
        assert ss1.fallback_frames == 0

    def test_a_one_edit_pop_leaves_an_untagged_frame_as_it_is(self):
        # A pop on an untagged frame is a no-op in the interpreter
        # (PopVlanAction.apply); the one-edit plan keeps that guard.
        for specialize in (True, False):
            sim, switch, sinks, _ = build_rig(enable_specialization=specialize)
            install(switch, match=Match(), priority=1,
                    instructions=[ApplyActions(actions=(PopVlanAction(), OutputAction(port=2)))])
            frames = [self.tagged(), udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 1, 2, b"y")]
            switch.process_batch(1, frames)
            sim.run()
            assert [raw for _, raw in sinks[1].received] == [
                frames[0].pop_vlan().to_bytes(), frames[1].to_bytes()
            ]
            if specialize:
                assert switch.specialized_frames == 2
                assert {plan[0] for plan in switch.program.plans.values()} == {
                    compiler.PLAN_EDIT
                }


class TestEventWorkBudget:
    """What a simulator event costs, pinned without a clock: a frame's
    trip is a fixed number of events, each one heap entry built by one
    Python call, and none of them leaves a reference cycle behind — a
    delivery that names its own event would make the cyclic collector
    the only thing that frees it, once per event."""

    @staticmethod
    def python_frames(act):
        """(module, function) of every Python-level frame *act* enters
        below its own, in call order."""
        frames = []

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code is not act.__code__:
                frames.append((Path(code.co_filename).stem, code.co_name))

        sys.setprofile(profile)
        try:
            act()
        finally:
            sys.setprofile(None)
        return frames

    def test_scheduling_is_one_python_frame(self):
        sim = Simulator()
        sim.run(until=1.0)
        seen = []
        assert self.python_frames(lambda: sim.schedule_at(2.0, seen.append, "at")) == [
            ("simulator", "schedule_at")
        ]
        assert self.python_frames(lambda: sim.schedule(0.5, seen.append, "in")) == [
            ("simulator", "schedule")
        ]
        sim.run()
        assert seen == ["in", "at"]

    def test_reading_the_clock_enters_no_python_frame(self):
        # Callbacks read ``sim.now`` about once per event: a property
        # whose getter is C, not a Python function.
        sim = Simulator()
        sim.run(until=1.0)
        readings = []
        assert self.python_frames(lambda: readings.append(sim.now)) == []
        assert readings == [1.0]

    def test_an_event_from_schedule_to_callback_is_three_python_frames(self):
        # Dispatch runs no Python frame of its own besides run(): no
        # handle method, no per-event bookkeeping call.
        sim = Simulator()
        seen = []

        def deliver(item):
            seen.append(item)

        def life():
            sim.schedule(0.5, deliver, "frame")
            sim.run()

        assert self.python_frames(life) == [
            ("simulator", "schedule"), ("simulator", "run"), (Path(__file__).stem, "deliver")
        ]
        assert seen == ["frame"] and sim.events_processed == 1

    def test_an_event_is_at_most_two_tracked_objects(self):
        # The heap entry and its argument tuple: no handle object and no
        # separate heap tuple beside them.
        sim, count = Simulator(), 1000
        gc.collect()
        gc.disable()
        try:
            gc.get_count()  # the first reading's own tuple counts once
            before = gc.get_count()[0]
            for index in range(count):
                sim.schedule_at(1.0, print, index)
            at = gc.get_count()[0] - before
            for index in range(count):
                sim.schedule(1.0, print, index)
            delay = gc.get_count()[0] - before - at
        finally:
            gc.enable()
        assert sim.pending_events == 2 * count
        assert at <= 2 * count and delay <= 2 * count

    @staticmethod
    def quiet(sim, act):
        """Run *act* and drain *sim* with the collector off; returns the
        events that took and the unreachable objects left behind."""
        gc.collect()
        gc.disable()
        try:
            before = sim.events_processed
            act()
            sim.run()
            return sim.events_processed - before, gc.collect()
        finally:
            gc.enable()

    @staticmethod
    def detour_frames(count):
        return [udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 4000, 53, bytes([n % 251]) * 64)
                for n in range(count)]

    @classmethod
    def detour_rig(cls):
        """The benchmark's site_detour, warmed and idle: legacy lookup
        delay, 10 GbE links, a migrated site under the ESwitch cost
        model.  Returns (sim, source, sink, s4)."""
        sim = Simulator()
        legacy = LegacySwitch(sim, "edge", num_ports=3, processing_delay_s=4e-6)
        source, sink = Sink(sim, "src"), Sink(sim, "dst")
        Link(source.add_port(1), legacy.port(1), bandwidth_bps=1e10)
        Link(legacy.port(2), sink.add_port(1), bandwidth_bps=1e10)
        controller = Controller(sim)
        controller.add_app(LearningSwitchApp())
        manager = HarmlessManager(
            sim, controller=controller, cost_model=ESWITCH_COST_MODEL,
            trunk_bandwidth_bps=1e10,
        )
        mib, _ = attach_bridge_mib(legacy)
        driver = get_network_driver("sim-ios")(
            DeviceConnection(agent=SnmpAgent(mib), hostname="edge")
        )
        driver.open()
        s4 = manager.migrate(legacy, driver, trunk_port=3, access_ports=[1, 2]).s4
        sim.run(until=sim.now + 0.05)
        sink.port(1).send(udp_frame(MACS[1], MACS[0], IPS[1], IPS[0], 53, 4000, b"hello"))
        sim.run(until=sim.now + 0.05)
        for frame in cls.detour_frames(3):  # warm: packet-in, flow-mods, compile
            source.port(1).send(frame)
            sim.run(until=sim.now + 0.05)
        sim.run()
        return sim, source, sink, s4

    def test_site_detour_frame_is_twelve_events_and_no_garbage(self):
        sim, source, sink, s4 = self.detour_rig()
        frames = self.detour_frames
        delivered = len(sink.received)

        def play(load=frames(500)):
            for index, frame in enumerate(load):
                sim.schedule_at(sim.now + 1e-3 + index * 20e-6, source.port(1).send, frame)

        events, garbage = self.quiet(sim, play)
        assert len(sink.received) - delivered == 500
        assert events == 500 * 12  # the send and the eleven events it causes
        assert garbage == 0
        # Three of the eleven are the S4's deferred emissions: scheduled
        # as (EMIT_ONE, port, frame), no closure allocated per frame.
        for half in (s4.ss1, s4.ss2):
            assert half.specialized_frames >= 500
            assert "lambda" not in half.program.source
        assert sim.pending_events == 0 and not sim._queue

    @pytest.mark.parametrize("bandwidth", [1e10, None], ids=["10GbE", "ideal"])
    def test_a_port_send_is_three_python_frames(self, bandwidth):
        # The port holds its transmit record and the link prices
        # serialisation inline: no direction lookup, no helper call.
        sim = Simulator()
        near, far = Sink(sim, "near"), Sink(sim, "far")
        link = wire(near, far, bandwidth_bps=bandwidth)
        port, (frame,) = link.port_a, self.detour_frames(1)
        assert self.python_frames(lambda: port.send(frame)) == [
            ("node", "send"), ("link", "transmit"), ("simulator", "schedule_at")
        ]
        sim.run()
        assert [raw for _, raw in far.received] == [frame.to_bytes()]

    #: Python frames one frame's trip through the detour rig enters,
    #: from its send to the sink's receive (110 while every transmit
    #: looked up its direction and every egress went through Node.port;
    #: 90 while a tag edit was three frames: the plan step's ``apply``,
    #: the edit and its shared ``_derive``; 82 while each of the trip's
    #: two delayed legacy hops was thirteen frames, not five).
    DETOUR_PYTHON_FRAMES = 66

    def test_a_detour_frame_stays_within_its_python_frame_budget(self):
        sim, source, sink, _ = self.detour_rig()
        port, (frame,) = source.port(1), self.detour_frames(1)
        delivered = len(sink.received)

        def trip():
            port.send(frame)
            sim.run()

        entered = self.python_frames(trip)
        assert len(sink.received) == delivered + 1
        assert len(entered) <= self.DETOUR_PYTHON_FRAMES, entered

    def test_fabric_burst_leaves_no_garbage(self):
        fabric = leaf_spine_fabric(
            edges=2, spines=1, hosts_per_edge=1, gen_ports_per_edge=1,
            processing_delay_s=0.0, host_bandwidth_bps=None, trunk_bandwidth_bps=None,
        )
        fleet = HarmlessFleet(fabric, wave_size=3, cost_model=ZERO_COST)
        fleet.migrate_all(verify=True, strict=True)
        sim, stations = fabric.sim, []
        for site in fabric.edge_sites():
            stations.append(Sink(sim, f"gen-{site.name}"))
            fabric.attach_station(site.name, stations[-1], bandwidth_bps=None)

        here, there = MACAddress(0x02_00_00_00_50_00), MACAddress(0x02_00_00_00_50_01)

        def burst():
            return [udp_frame(here, there, IPS[0], IPS[1], 4000 + n % 4, 53, b"x" * 32)
                    for n in range(32)]

        stations[1].port(1).send(udp_frame(there, here, IPS[1], IPS[0], 53, 4000, b"hi"))
        sim.run(until=sim.now + 0.5)
        for _ in range(2):  # warm both directions of every hop
            stations[0].port(1).send_burst(burst())
            sim.run(until=sim.now + 0.5)
        sim.run()
        delivered = len(stations[1].received)
        costs = [
            self.quiet(sim, lambda load=burst(): stations[0].port(1).send_burst(load))
            for _ in range(3)
        ]
        assert len(stations[1].received) - delivered == 3 * 32
        # One event per link crossed, whatever the burst holds.
        assert costs == [(costs[0][0], 0)] * 3 and costs[0][0] < 32
        assert sim.pending_events == 0 and not sim._queue


class TestLegacyWorkBudget:
    """What known unicast costs the legacy hop, pinned by counting work:
    two legacy switches joined by a trunk, stations on their access
    ports, the same flows replayed as bursts of fresh frames.  A frame
    enters ``_general_path`` only to flood, to learn or to move — never
    because it is the first of its flow in a burst."""

    #: (switch, access port, VLAN) per station; every station talks to
    #: the station of its VLAN on the other switch.
    STATIONS = ((0, 1, 10), (0, 2, 20), (1, 1, 10), (1, 2, 20))

    def build(self):
        sim = Simulator()
        switches, stations = [], []
        for index in range(2):
            switch = LegacySwitch(sim, f"legacy{index}", num_ports=3, processing_delay_s=0.0)
            switch.config.set_access(1, 10)
            switch.config.set_access(2, 20)
            switch.config.set_trunk(3, {10, 20})
            switches.append(switch)
        Link(switches[0].port(3), switches[1].port(3), bandwidth_bps=None, queue_frames=4096)
        for switch_index, port, _ in self.STATIONS:
            station = Sink(sim, f"station{len(stations)}")
            Link(station.add_port(1), switches[switch_index].port(port), bandwidth_bps=None,
                 queue_frames=4096)
            stations.append(station)
        return sim, switches, stations

    def play_pass(self, sim, stations, macs=None, size=32):
        """Every station sends its peer a burst; frames and their MAC
        objects are new each time, as they are off a real wire."""
        macs = macs or [0x02_00_00_00_50_00 + n for n in range(len(stations))]
        for index, station in enumerate(stations):
            peer = (index + 2) % 4
            station.port(1).send_burst([
                EthernetFrame(dst=MACAddress(macs[peer]), src=MACAddress(macs[index]),
                              ethertype=0x0800, payload=bytes([n]) * 46)
                for n in range(size)
            ])
            sim.run()

    @staticmethod
    def work(switches):
        return sum(
            sw.counters.flooded + sw.fdb.learn_events + sw.fdb.move_events for sw in switches
        )

    def test_general_path_entries_are_floods_learns_and_moves_only(self, monkeypatch):
        sim, switches, stations = self.build()
        entries = []
        general = LegacySwitch._general_path
        monkeypatch.setattr(
            LegacySwitch, "_general_path",
            lambda self, number, frame: (entries.append(self.name), general(self, number, frame)),
        )
        #: per switch: the keys looked up since its FDB's generation moved
        seen = {switch.name: (switch.fdb.generation, set()) for switch in switches}
        lookup = LegacySwitch._lookup

        def bounded_lookup(self, number, frame):
            generation, keys = seen[self.name]
            if generation != self.fdb.generation:
                generation, keys = seen[self.name] = (self.fdb.generation, set())
            keys.add((number, frame.vlan_id, frame.src, frame.dst))
            hop = lookup(self, number, frame)
            assert len(self._hops) <= len(keys)
            return hop

        monkeypatch.setattr(LegacySwitch, "_lookup", bounded_lookup)

        self.play_pass(sim, stations)  # cold: floods and learns
        assert 0 < len(entries) <= self.work(switches)
        assert all(len(station.received) >= 32 for station in stations)

        for _ in range(2):  # warm: not one frame leaves the cache
            entries.clear()
            work = self.work(switches)
            self.play_pass(sim, stations)
            assert entries == [] and self.work(switches) == work
        assert [len(switch._hops) for switch in switches] == [4, 4]

        # MAC churn: a new station per pass.  Every new address moves the
        # generation, and the cache is emptied — not grown.
        sizes = []
        for churn in range(40):
            macs = [0x02_00_00_00_60_00 + 4 * churn + n for n in range(len(stations))]
            entries.clear()
            work = self.work(switches)
            self.play_pass(sim, stations, macs=macs, size=4)
            assert len(entries) <= self.work(switches) - work
            sizes.append(max(len(switch._hops) for switch in switches))
        assert max(sizes) <= 4
        assert sum(len(switch.fdb) for switch in switches) == 2 * 4 * 41

    def test_a_warm_delayed_hop_makes_no_python_call_into_addresses(self):
        # With a lookup delay every frame takes the general path: learn,
        # schedule the forward, look the destination up.  The group-bit
        # tests and the FDB's (vlan, MAC) keys are int work done in C.
        class Keep(Node):  # unlike Sink, never serialises what it gets
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.received = []

            def receive(self, port, frame):
                self.received.append(frame)

        sim = Simulator()
        switch = LegacySwitch(sim, "edge", num_ports=2, processing_delay_s=4e-6)
        here, there = Keep(sim, "here"), Keep(sim, "there")
        Link(here.add_port(1), switch.port(1), bandwidth_bps=1e10)
        Link(there.add_port(1), switch.port(2), bandwidth_bps=1e10)

        def frame(src, dst):
            return EthernetFrame(dst=dst, src=src, ethertype=0x0800, payload=b"x" * 46)

        there.port(1).send(frame(MACS[1], MACS[0]))
        here.port(1).send(frame(MACS[0], MACS[1]))
        sim.run()
        flooded, delivered = switch.counters.flooded, len(there.received)
        load = frame(MACS[0], MACS[1])

        def hop():
            here.port(1).send(load)
            sim.run()

        frames = TestEventWorkBudget.python_frames(hop)
        assert len(there.received) == delivered + 1 and switch.counters.flooded == flooded
        assert ("switch", "_general_path") in frames and ("switch", "_forward") in frames
        assert [name for module, name in frames if module == "addresses"] == []

    def test_a_warm_delayed_known_unicast_hop_is_five_legacy_python_frames(self):
        # Classification, the FDB's age test and the known-unicast
        # egress (filter, tag, count, send) are read inline: no helper
        # frame per hop, access -> trunk (tag pushed) and trunk ->
        # access (popped) alike.
        sim = Simulator()
        switch = LegacySwitch(sim, "edge", num_ports=2, processing_delay_s=4e-6)
        switch.config.set_access(1, 10)
        switch.config.set_trunk(2, {10})
        here, there = Sink(sim, "here"), Sink(sim, "there")
        Link(here.add_port(1), switch.port(1), bandwidth_bps=1e10)
        Link(there.add_port(1), switch.port(2), bandwidth_bps=1e10)

        def frame(src, dst, *vlans):
            return EthernetFrame(dst=dst, src=src, ethertype=0x0800, payload=b"x" * 46,
                                 tags=[Dot1QTag(vlan_id) for vlan_id in vlans])

        there.port(1).send(frame(MACS[1], MACS[0], 10))
        here.port(1).send(frame(MACS[0], MACS[1]))
        sim.run()
        flooded = switch.counters.flooded
        legacy = Path(sys.modules[LegacySwitch.__module__].__file__).parent
        for sender, load in ((here, frame(MACS[0], MACS[1])), (there, frame(MACS[1], MACS[0], 10))):
            entered = []

            def profile(py_frame, event, arg):
                code = py_frame.f_code
                if event == "call" and Path(code.co_filename).parent == legacy:
                    entered.append(code.co_qualname)

            sys.setprofile(profile)
            try:
                sender.port(1).send(load)
                sim.run()
            finally:
                sys.setprofile(None)
            assert entered == [
                "LegacySwitch.receive", "LegacySwitch._general_path",
                "ForwardingDatabase.learn", "LegacySwitch._forward",
                "ForwardingDatabase.lookup",
            ]
        assert switch.counters.flooded == flooded and not switch.drops
        assert there.frames[-1].vlan_id == 10 and here.frames[-1].vlan_id is None
