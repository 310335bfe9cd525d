"""Randomized differential proof for the specialized datapath.

The compiled program is only allowed to exist because it is
semantics-free: a switch with specialization enabled must produce
byte-identical emitted frames in identical order — and identical
packet-ins, flow/table/group counters and drop totals — to an
identically-provisioned switch running the reference interpreter.  Each case family drives both through ≥1000 randomly generated
churn-interleaved bursts along one eligibility dimension the compiler
now covers — goto-table chains, group execution (all / select /
indirect / dead references), idle- and hard-timeout expiry — plus the
mixed suite that flips between compiled execution, per-entry FALLBACK
windows (packet-ins, floods, transform-before-goto), recompiles
landing between bursts of live traffic, and — via a synchronous
reactive controller — mutations landing *mid-burst* while the
fallback interpreter is serving the remaining frames.

The ``incremental`` family (PR 14) is three-way: a switch whose
program is *patched in place* by every mutation that leaves its shape
intact, a switch forced to a fresh ``compile_datapath`` after every
mutation, and the seed ``linear_lookup`` interpreter.  It counts the
hazards patching has to survive (replacement ADDs, MODIFY into a
fallback shape, deleting a cached winner, entry-id reuse, an emptied
and re-created field-set, every shape break, a synchronous controller
reprogramming mid-burst) and fails if any of them did not occur.
The same ledger (PR 19) records the VLAN-rewrite shapes around the
compiler's one peephole — push + set-field ``vlan_vid`` folded into a
single step — as the compiled tier serves them: the folded pair in
apply-actions, in a group bucket and in a multi-table chain, and the
neighbours that must not fold or must fold only in part.
One scripted case rides with it: a shape break mid-stream between
32-frame bursts arriving over a `Link`, the next of which is already
served by the regenerated program.

Set ``DIFFERENTIAL_SCALE=<n>`` to multiply every family's case count
(the nightly job runs at 5×).  On any divergence the failing seed is
printed so the case reproduces standalone.
"""

import os
import random
import sys
from collections import Counter

from repro.net import EthernetFrame, IPv4Address, MACAddress
from repro.net.build import tcp_frame, udp_frame
from repro.net.tcp import TcpSegment
from repro.netsim import Simulator
from repro.netsim.link import wire
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
)
from repro.openflow import consts as c
from repro.openflow.messages import PacketIn, parse_message
from repro.softswitch import DatapathCostModel, ESWITCH_COST_MODEL, SoftSwitch
from repro.softswitch.compiler import (
    PLAN_CHAIN,
    STEP_GROUP_ALL,
    STEP_GROUP_ONE,
    entry_fallback_reason,
)
from repro.traffic import BurstSource

ZERO_COST = DatapathCostModel.zero()

#: Case-count multiplier; the nightly extended job sets this to 5.
SCALE = max(1, int(os.environ.get("DIFFERENTIAL_SCALE", "1")))

MACS = [MACAddress(0x020000000001 + i) for i in range(4)]
IPS = [IPv4Address(f"10.0.{i // 4}.{i % 4 + 1}") for i in range(8)]
PORTS = [53, 80, 443, 8080]


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, port, frame):
        self.received.append((self.sim.now, frame.to_bytes()))

    def receive_burst(self, port, arrivals):
        # A coalesced burst is handed over at its drain; what is
        # compared is each frame's own arrival time on the wire.
        self.received.extend((when, frame.to_bytes()) for when, frame in arrivals)


def random_frame(rng: random.Random) -> EthernetFrame:
    roll = rng.random()
    if roll < 0.1:  # non-IP: every L3/L4 flow-key slot is None
        return EthernetFrame(
            dst=rng.choice(MACS), src=rng.choice(MACS), ethertype=0x0806,
            payload=b"\x00" * 28,
        )
    src_mac, dst_mac = rng.choice(MACS), rng.choice(MACS)
    src_ip, dst_ip = rng.choice(IPS), rng.choice(IPS)
    vlan_id = rng.choice((None, None, 100, 101))
    if roll < 0.6:
        return udp_frame(
            src_mac, dst_mac, src_ip, dst_ip,
            rng.choice(PORTS), rng.choice(PORTS), b"x", vlan_id=vlan_id,
        )
    return tcp_frame(
        src_mac, dst_mac, src_ip, dst_ip,
        TcpSegment(rng.choice(PORTS), rng.choice(PORTS)), vlan_id=vlan_id,
    )


def random_match(rng: random.Random) -> Match:
    fields: dict = {}
    if rng.random() < 0.5:
        fields["in_port"] = rng.randint(1, 3)
    if rng.random() < 0.4:
        fields["eth_type"] = 0x0800
    if rng.random() < 0.3:
        fields["eth_dst"] = int(rng.choice(MACS))
    if rng.random() < 0.3:
        fields["vlan_vid"] = (
            0 if rng.random() < 0.3 else c.OFPVID_PRESENT | rng.randint(100, 101)
        )
    if rng.random() < 0.4:
        value = int(rng.choice(IPS))
        if rng.random() < 0.5:  # masked -> staged subtable probes
            bits = rng.choice((8, 16, 24))
            mask = (0xFFFFFFFF << (32 - bits)) & 0xFFFFFFFF
            fields["ipv4_dst"] = (value & mask, mask)
        else:
            fields["ipv4_dst"] = value
    if rng.random() < 0.3:
        name = rng.choice(("udp_dst", "udp_src", "tcp_dst", "tcp_src"))
        fields[name] = rng.choice(PORTS)
    return Match(**fields)


def vlan_rewrite_actions(rng: random.Random) -> list:
    """The neighbours of the translator's push + set-field ``vlan_vid``
    pair (which the compiler folds into one step): shapes that must not
    fold, fold only in part, or meet a frame with no tag to rewrite."""
    set_vid = SetFieldAction.vlan_vid(rng.randint(100, 101))
    set_dst = SetFieldAction(field="eth_dst", value=int(rng.choice(MACS)))
    return rng.choice((
        [PushVlanAction(), set_dst],  # a push whose set-field is not the VLAN's
        [set_vid],  # a no-op on an untagged frame, a rewrite on a tagged one
        [PushVlanAction(), PushVlanAction(), set_vid],  # only the inner pair folds
        [PopVlanAction(), PushVlanAction(), set_vid],
    ))


def compilable_instructions(rng: random.Random):
    """Instruction lists the compiler supports, weighted to each plan kind."""
    roll = rng.random()
    if roll < 0.12:
        return []  # matched-drop (no-op plan)
    if roll < 0.2:
        # Output to a port that does not exist: the drop-at-output path.
        return [ApplyActions(actions=(OutputAction(port=9),))]
    actions = [OutputAction(port=rng.randint(1, 3))]
    extra = rng.random()
    if extra < 0.2:
        actions.insert(
            0, SetFieldAction(field="eth_dst", value=int(rng.choice(MACS)))
        )
    elif extra < 0.35:
        actions = [
            PushVlanAction(),
            SetFieldAction.vlan_vid(rng.randint(100, 101)),
            OutputAction(port=rng.randint(1, 3)),
        ]
    elif extra < 0.45:
        actions = [PopVlanAction(), OutputAction(port=rng.randint(1, 3))]
    elif extra < 0.55:
        actions.append(OutputAction(port=rng.randint(1, 3)))  # two outputs
    elif extra < 0.67:
        actions = vlan_rewrite_actions(rng) + actions
    return [ApplyActions(actions=tuple(actions))]


def fallback_flow_mod(rng: random.Random) -> FlowMod:
    """An install the compiler must route through a FALLBACK decision.

    These shapes (packet-ins, floods, transforms before a goto) are the
    only per-entry escapes left now that chains, groups and timeouts
    compile; they keep the mixed suite flipping between tier 0 and the
    interpreter mid-traffic.
    """
    roll = rng.random()
    if roll < 0.4:  # packet-in
        return FlowMod(
            match=random_match(rng),
            priority=rng.randint(0, 30),
            instructions=[ApplyActions(actions=(OutputAction(port=c.OFPP_CONTROLLER),))],
        )
    if roll < 0.7:  # flood
        return FlowMod(
            match=random_match(rng),
            priority=rng.randint(0, 30),
            instructions=[ApplyActions(actions=(OutputAction(port=c.OFPP_FLOOD),))],
        )
    return FlowMod(  # frame transform before a table walk continues
        table_id=0,
        match=random_match(rng),
        priority=rng.randint(0, 30),
        instructions=[
            ApplyActions(
                actions=(SetFieldAction(field="eth_dst", value=int(rng.choice(MACS))),)
            ),
            GotoTable(table_id=1),
        ],
    )


def chain_churn_message(rng: random.Random):
    """Multi-table family: goto chains, later-table rules, mid-walk misses."""
    roll = rng.random()
    if roll < 0.3:  # a goto hop deeper into the pipeline
        src = rng.choice((0, 0, 0, 1))
        return FlowMod(
            table_id=src,
            match=random_match(rng),
            priority=rng.randint(0, 30),
            instructions=[GotoTable(table_id=rng.randint(src + 1, 3))],
        )
    if roll < 0.55:  # terminal rule in a later table
        return FlowMod(
            table_id=rng.randint(1, 3),
            match=random_match(rng),
            priority=rng.randint(0, 30),
            instructions=compilable_instructions(rng),
        )
    if roll < 0.65:  # an output before the hop (legal: no transform)
        return FlowMod(
            table_id=rng.choice((0, 1)),
            match=random_match(rng),
            priority=rng.randint(0, 30),
            instructions=[
                ApplyActions(actions=(OutputAction(port=rng.randint(1, 3)),)),
                GotoTable(table_id=rng.randint(2, 3)),
            ],
        )
    if roll < 0.75:  # transform-before-goto: per-entry fallback inside the family
        return fallback_flow_mod(rng)
    if roll < 0.88:  # wipe a later table: live chains start missing mid-walk
        return FlowMod(
            table_id=rng.randint(1, 3), command=c.OFPFC_DELETE, match=Match()
        )
    return FlowMod(
        table_id=rng.choice((0, 1, 2)),
        command=rng.choice((c.OFPFC_DELETE, c.OFPFC_DELETE_STRICT)),
        match=random_match(rng),
        priority=rng.randint(0, 30),
    )


def random_buckets(rng: random.Random) -> "list[Bucket]":
    buckets = []
    for _ in range(rng.randint(1, 3)):
        actions = [OutputAction(port=rng.randint(1, 3))]
        roll = rng.random()
        if roll < 0.4:  # rewrite-then-forward, as the LB use case does
            actions.insert(
                0, SetFieldAction(field="eth_dst", value=int(rng.choice(MACS)))
            )
        elif roll < 0.55:  # re-tag per bucket: the foldable pair
            actions[:0] = [PushVlanAction(), SetFieldAction.vlan_vid(rng.randint(100, 101))]
        buckets.append(Bucket(actions=actions, weight=rng.randint(1, 3)))
    return buckets


def group_churn_message(rng: random.Random):
    """Group family: all/select/indirect execution, remaps, dead references."""
    roll = rng.random()
    if roll < 0.4:  # point a flow at a group — sometimes one that never exists
        return FlowMod(
            match=random_match(rng),
            priority=rng.randint(0, 30),
            instructions=[
                ApplyActions(
                    actions=(GroupAction(group_id=rng.choice((1, 2, 3, 3, 9))),)
                )
            ],
        )
    if roll < 0.5:  # group execution at the end of a chain
        return FlowMod(
            table_id=rng.choice((0, 1)),
            match=random_match(rng),
            priority=rng.randint(0, 30),
            instructions=[GotoTable(table_id=rng.randint(1, 3))]
            if rng.random() < 0.5
            else [ApplyActions(actions=(GroupAction(group_id=rng.choice((1, 2)),),))],
        )
    if roll < 0.85:  # reshape a group (type flips included)
        group_type = rng.choice((c.OFPGT_ALL, c.OFPGT_SELECT, c.OFPGT_SELECT))
        buckets = random_buckets(rng)
        if group_type == c.OFPGT_INDIRECT:
            buckets = buckets[:1]
        return GroupMod(
            command=rng.choice((c.OFPGC_ADD, c.OFPGC_MODIFY, c.OFPGC_MODIFY)),
            group_type=group_type,
            group_id=rng.choice((1, 2, 3)),
            buckets=buckets,
        )
    if roll < 0.93:  # indirect group (single bucket by definition)
        return GroupMod(
            command=rng.choice((c.OFPGC_ADD, c.OFPGC_MODIFY)),
            group_type=c.OFPGT_INDIRECT,
            group_id=rng.choice((2, 3)),
            buckets=random_buckets(rng)[:1],
        )
    return GroupMod(  # delete: flows referencing it now drop (dead group)
        command=c.OFPGC_DELETE,
        group_type=c.OFPGT_ALL,
        group_id=rng.choice((2, 3)),
        buckets=[],
    )


def mortal_churn_message(rng: random.Random):
    """Timeout family: idle/hard expiry landing between live bursts."""
    roll = rng.random()
    if roll < 0.65:
        return FlowMod(
            table_id=rng.choice((0, 0, 0, 1)),
            match=random_match(rng),
            priority=rng.randint(0, 30),
            idle_timeout=rng.choice((0, 0, 1)),
            hard_timeout=rng.choice((0, 1, 1, 2)),
            instructions=compilable_instructions(rng),
        )
    if roll < 0.8:  # a mortal hop: the chain dies when the goto rule does
        return FlowMod(
            table_id=0,
            match=random_match(rng),
            priority=rng.randint(0, 30),
            hard_timeout=rng.choice((1, 2)),
            instructions=[GotoTable(table_id=1)],
        )
    if roll < 0.9:  # immortal churn mixed in: recompiles amid expiry
        return FlowMod(
            match=random_match(rng),
            priority=rng.randint(0, 30),
            instructions=compilable_instructions(rng),
        )
    return FlowMod(
        table_id=rng.choice((0, 1)),
        command=c.OFPFC_DELETE,
        match=random_match(rng),
        priority=rng.randint(0, 30),
    )


def random_churn_message(rng: random.Random):
    roll = rng.random()
    if roll < 0.45:
        return FlowMod(
            match=random_match(rng),
            priority=rng.randint(0, 30),
            instructions=compilable_instructions(rng),
        )
    if roll < 0.57:
        return fallback_flow_mod(rng)
    if roll < 0.68:  # purge the second table: flips goto pipelines back
        return FlowMod(
            table_id=1, command=c.OFPFC_DELETE, match=Match()
        )
    if roll < 0.8:  # random deletes (empty matches wipe whole tables)
        return FlowMod(
            table_id=rng.choice((0, 0, 0, 1)),
            command=rng.choice((c.OFPFC_DELETE, c.OFPFC_DELETE_STRICT)),
            match=random_match(rng),
            priority=rng.randint(0, 30),
        )
    if roll < 0.93:
        return FlowMod(
            command=rng.choice((c.OFPFC_MODIFY, c.OFPFC_MODIFY_STRICT)),
            match=random_match(rng),
            priority=rng.randint(0, 30),
            instructions=compilable_instructions(rng),
        )
    return GroupMod(
        command=c.OFPGC_MODIFY,
        group_type=c.OFPGT_SELECT,
        group_id=1,
        buckets=[
            Bucket(actions=[OutputAction(port=rng.randint(1, 3))], weight=1),
            Bucket(
                actions=[OutputAction(port=rng.randint(1, 3))],
                weight=rng.randint(1, 3),
            ),
        ],
    )


def build_rig(cost_model, specialize, num_ports=3, fast_path=True, base=None,
              bandwidth_bps=None, propagation_delay_s=0.0):
    sim = Simulator()
    switch = SoftSwitch(
        sim,
        "ss",
        datapath_id=1,
        cost_model=cost_model,
        enable_fast_path=fast_path,
        enable_specialization=specialize,
    )
    sinks = []
    for index in range(num_ports):
        sink = Sink(sim, f"sink{index}")
        wire(
            switch,
            sink,
            bandwidth_bps=bandwidth_bps,
            propagation_delay_s=propagation_delay_s,
            queue_frames=100_000,
        )
        sinks.append(sink)
    packet_ins: list[bytes] = []
    switch.to_controller = packet_ins.append
    base = base or [
        GroupMod(
            command=c.OFPGC_ADD,
            group_type=c.OFPGT_SELECT,
            group_id=1,
            buckets=[
                Bucket(actions=[OutputAction(port=2)], weight=1),
                Bucket(actions=[OutputAction(port=3)], weight=2),
            ],
        ),
        FlowMod(
            match=Match(in_port=1),
            priority=3,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        ),
        FlowMod(match=Match(), priority=0, instructions=[]),
    ]
    for message in base:
        assert switch.handle_message(message.to_bytes()) == []
    return sim, switch, sinks, packet_ins


def assert_identical(spec_rig, interp_rig):
    _, spec, sinks_a, pins_a = spec_rig
    _, interp, sinks_b, pins_b = interp_rig
    for index, (sink_a, sink_b) in enumerate(zip(sinks_a, sinks_b)):
        assert sink_a.received == sink_b.received, f"sink {index} diverged"
    assert pins_a == pins_b
    assert spec.packets_forwarded == interp.packets_forwarded
    assert spec.drops == interp.drops
    assert spec.packets_to_controller == interp.packets_to_controller
    assert spec.dump_pipeline() == interp.dump_pipeline()  # per-entry counters
    for table_a, table_b in zip(spec.tables, interp.tables):
        assert table_a.lookups == table_b.lookups
        assert table_a.matches == table_b.matches
    assert spec.groups.dump() == interp.groups.dump()
    for group_id in range(10):
        group_a, group_b = spec.groups.get(group_id), interp.groups.get(group_id)
        assert (group_a is None) == (group_b is None), f"group {group_id} presence"
        if group_a is not None:
            assert group_a.packet_count == group_b.packet_count, f"group {group_id}"
            assert group_a.bucket_packet_counts == group_b.bucket_packet_counts


def run_differential(
    seed,
    rounds,
    bursts_per_round,
    cost_model,
    churn=random_churn_message,
    churn_prob=0.3,
    clock_step=0.12,
):
    """Returns (bursts compared, aggregated specialization stats).

    *churn* picks the case family; on any divergence the seed and the
    family are printed so the failing case reproduces standalone.
    """
    rng = random.Random(seed)
    bursts_done = 0
    totals = {
        "specialized_frames": 0,
        "fallback_frames": 0,
        "compiles": 0,
        "compile_failures": 0,
        "invalidations": 0,
    }
    try:
        for _ in range(rounds):
            spec_rig = build_rig(cost_model, specialize=True)
            interp_rig = build_rig(cost_model, specialize=False)
            sim_a, spec, _, _ = spec_rig
            sim_b, interp, _, _ = interp_rig
            pool = [random_frame(rng) for _ in range(24)]
            clock = 0.0
            for _ in range(bursts_per_round):
                clock += rng.random() * clock_step  # lets mortal flows expire
                sim_a.run(until=clock)
                sim_b.run(until=clock)
                if rng.random() < churn_prob:
                    message = churn(rng).to_bytes()
                    assert spec.handle_message(message) == (
                        interp.handle_message(message)
                    )
                size = rng.choice((1, 2, 3, 4, 6, 8, 8, 12))
                frames = [pool[rng.randrange(len(pool))] for _ in range(size)]
                in_port = 1 if rng.random() < 0.7 else rng.randint(2, 3)
                if size == 1 and rng.random() < 0.5:
                    spec.inject(frames[0], in_port)
                    interp.inject(frames[0], in_port)
                else:
                    spec.process_batch(in_port, list(frames))
                    interp.process_batch(in_port, list(frames))
                bursts_done += 1
            sim_a.run()
            sim_b.run()
            assert_identical(spec_rig, interp_rig)
            stats = spec.stats()["specialization"]
            for key in totals:
                totals[key] += stats[key]
    except AssertionError:
        print(
            f"\nDIFFERENTIAL FAILURE: seed=0x{seed:X} family={churn.__name__} "
            f"rounds={rounds} bursts_per_round={bursts_per_round} "
            f"cost_model={'zero' if cost_model is ZERO_COST else 'eswitch'} "
            f"burst_index={bursts_done}"
        )
        raise
    return bursts_done, totals


# ---------------------------------------------------------------------------
# The incremental family: patched program vs fresh compile vs interpreter
# ---------------------------------------------------------------------------

#: Every hazard the family must have exercised at least once per run.
INCREMENTAL_HAZARDS = (
    "replacement_add",  # same match+priority, new instructions (DmzPolicyApp's ARP rule)
    "modify_into_fallback",  # MODIFY rewrites an entry into a packet-in/flood
    "modify_cached_winner",  # MODIFY of an entry with a live plan in the program
    "delete_cached_winner",  # the removed entry had a live plan in the program
    "id_reuse",  # a new FlowEntry landed on the id() of a removed one
    "recreated_field_set",  # ADD into a table-0 group that had emptied: patched
    "expiry_patch",  # the sweep removed entries under a kept program
    "group_patch",  # GroupMod absorbed without a regenerate
    "new_field_set",  # the shape breaks, each by its recorded reason
    "new_mask_set",
    "priority_above_bound",
    "first_mortal_entry",
    "select_group_after_compile",
    "slot_outside_used_slots",
    "mid_burst_patch",  # synchronous controller: patched, burst carries on compiled
    "mid_burst_discard",  # synchronous controller: shape broke, burst drains interpreted
    # VLAN-rewrite shapes, counted when a compiled decision holds them
    # (see rewrite_hazards): the folded push + set-field vlan_vid pair...
    "fold_in_apply_actions",
    "fold_in_group_bucket",
    "fold_in_chain",  # ...in an entry of a multi-table walk
    "push_then_other_set_field",  # push + set-field eth_dst: must not fold
    "set_vlan_on_untagged",  # nothing to rewrite: a no-op, not a push
    "push_push_set",  # only the inner pair folds
    "pop_then_push_set",  # pop (a no-op when untagged), then the folded pair
)

#: Chosen so that, at SCALE=1, every shape-intact condition with the
#: check switched off (mutation check, PR 14) diverges from the
#: interpreter in the comparisons themselves, not only in the hazard
#: bookkeeping; about one seed in eight does.
INCREMENTAL_SEED = 29

_REGENERATE_HAZARDS = (
    ("new field-set", "new_field_set"),
    ("new mask-set", "new_mask_set"),
    ("priority ", "priority_above_bound"),
    ("first mortal entry", "first_mortal_entry"),
    ("first select group", "select_group_after_compile"),
    ("table 1 reads slot outside", "slot_outside_used_slots"),
)

_PACKET_IN = [ApplyActions(actions=(OutputAction(port=c.OFPP_CONTROLLER),))]
_FLOOD = [ApplyActions(actions=(OutputAction(port=c.OFPP_FLOOD),))]


def stable_match(rng: random.Random) -> Match:
    """A match on one of five shapes the family keeps coming back to, so
    most mutations land inside what the program already bakes."""
    roll = rng.random()
    if roll < 0.3:
        return Match(in_port=rng.randint(1, 3))
    if roll < 0.55:
        return Match(eth_type=0x0800, ipv4_dst=int(rng.choice(IPS)))
    if roll < 0.75:
        return Match(ipv4_dst=(int(rng.choice(IPS)) & 0xFFFFFF00, 0xFFFFFF00))
    if roll < 0.9:
        return Match(eth_type=0x0800, udp_dst=rng.choice(PORTS))
    # A one-value field-set: any delete of it empties the whole group,
    # the next add re-creates it under the same shape.
    return Match(eth_type=0x0806)


def hot_match(rng: random.Random) -> Match:
    """A stable match that, installed at the top priority, actually
    carries traffic: most bursts arrive on one of three ports."""
    if rng.random() < 0.6:
        return Match(in_port=rng.randint(1, 3))
    return stable_match(rng)


def incremental_base():
    return [
        GroupMod(
            command=c.OFPGC_ADD,
            group_type=c.OFPGT_INDIRECT,
            group_id=1,
            buckets=[Bucket(actions=[OutputAction(port=2)])],
        ),
        FlowMod(match=Match(in_port=1), priority=30,
                instructions=[ApplyActions(actions=(OutputAction(port=2),))]),
        FlowMod(match=Match(eth_type=0x0800, ipv4_dst=int(IPS[0])), priority=30,
                instructions=[ApplyActions(actions=(OutputAction(port=3),))]),
        FlowMod(match=Match(ipv4_dst=(int(IPS[4]) & 0xFFFFFF00, 0xFFFFFF00)),
                priority=30,
                instructions=[ApplyActions(actions=(OutputAction(port=1),))]),
        FlowMod(match=Match(eth_type=0x0800, udp_dst=PORTS[0]), priority=30,
                instructions=[ApplyActions(actions=(OutputAction(port=2),))]),
        FlowMod(match=Match(eth_type=0x0806), priority=30,
                instructions=[ApplyActions(actions=(OutputAction(port=3),))]),
        FlowMod(table_id=1, match=Match(), priority=0,
                instructions=[ApplyActions(actions=(OutputAction(port=3),))]),
        FlowMod(match=Match(), priority=0, instructions=_PACKET_IN),
    ]


#: Relative weight of each kind of control-plane step.
_STEP_WEIGHTS = {
    "add": 30,  # within-shape ADD; small value space -> replacement ADDs
    "flip": 10,  # the operator's revoke-then-grant pairs
    "delete": 11,  # deletes that hit winners and empty whole groups
    "modify": 9,  # MODIFY, half the time into a shape only the interpreter runs
    "group_flow": 5,  # flows through groups (some of which never exist)
    "group_mod": 5,  # all/indirect group churn: content only
    "select_group": 3,  # the first select group needs hash slots in the key
    "mortal": 5,  # the first breaks the shape, the rest expire
    "above_bound": 3,  # above every bound the base rules baked
    "new_shape": 4,  # field-sets and mask-sets the program has never seen
    "goto": 5,  # a hop into table 1 from a known shape
    "later_table": 7,  # later-table rules: classified live, only slots matter
    "later_wipe": 3,
}

#: Each round leans on one theme (or none) and mutes the unrelated
#: shape breaks, so a program lives long enough for that theme's stale
#: decisions — had patching left any — to be replayed.
_ROUND_THEMES = (
    (),
    ("mortal",),
    ("goto", "later_table", "later_wipe"),
    ("group_flow", "group_mod", "select_group"),
)


def step_weights(theme: tuple) -> dict:
    weights = dict(_STEP_WEIGHTS)
    if theme:
        for name in theme:
            weights[name] *= 5
        for name in ("above_bound", "new_shape"):
            weights[name] = 0
    return weights


def incremental_churn(rng: random.Random, weights: dict) -> tuple:
    """One control-plane step: one message, or the revoke-then-grant
    pairs `DmzPolicyApp` churn and `bench_specialized`'s add/delete-
    strict rows send — which empty a field-set and re-create it, and
    hand a freed entry's id() to the next one."""
    (kind,) = rng.choices(list(weights), weights=list(weights.values()))
    priority = rng.choice((5, 10, 20, 30))
    if kind == "add":
        return (FlowMod(match=stable_match(rng), priority=priority,
                        instructions=compilable_instructions(rng)),)
    if kind == "flip":
        matches = [stable_match(rng) for _ in range(rng.randint(1, 3))]
        return tuple(
            FlowMod(command=c.OFPFC_DELETE, match=match) for match in matches
        ) + tuple(
            FlowMod(match=match, priority=rng.choice((5, 10, 20, 30)),
                    instructions=compilable_instructions(rng))
            for match in matches
        )
    if kind == "delete":
        return (FlowMod(
            command=rng.choice((c.OFPFC_DELETE, c.OFPFC_DELETE_STRICT)),
            match=stable_match(rng), priority=priority,
        ),)
    if kind == "modify":
        instructions = (
            compilable_instructions(rng) if rng.random() < 0.5
            else rng.choice((_PACKET_IN, _FLOOD))
        )
        return (FlowMod(
            command=rng.choice((c.OFPFC_MODIFY, c.OFPFC_MODIFY, c.OFPFC_MODIFY_STRICT)),
            match=hot_match(rng), priority=priority, instructions=instructions,
        ),)
    if kind == "group_flow":
        return (FlowMod(
            match=hot_match(rng), priority=30,
            instructions=[ApplyActions(
                actions=(GroupAction(group_id=rng.choice((1, 2, 3, 4, 4))),)
            )],
        ),)
    if kind == "group_mod":
        group_type = rng.choice((c.OFPGT_ALL, c.OFPGT_INDIRECT))
        buckets = random_buckets(rng)
        return (GroupMod(
            command=rng.choice((c.OFPGC_ADD, c.OFPGC_MODIFY, c.OFPGC_DELETE)),
            group_type=group_type,
            group_id=rng.choice((2, 3)),
            buckets=buckets[:1] if group_type == c.OFPGT_INDIRECT else buckets,
        ),)
    if kind == "select_group":
        return (GroupMod(
            command=rng.choice((c.OFPGC_ADD, c.OFPGC_MODIFY)),
            group_type=c.OFPGT_SELECT, group_id=4, buckets=random_buckets(rng),
        ),)
    if kind == "mortal":
        # Idle timeouts slide with traffic, so expiry lands between
        # two sweeps — the window where only revalidation catches it.
        idle = rng.choice((0, 1, 1))
        return (FlowMod(
            match=hot_match(rng), priority=rng.choice((priority, 30)),
            idle_timeout=idle, hard_timeout=rng.choice((0, 2) if idle else (1, 2)),
            instructions=compilable_instructions(rng),
        ),)
    if kind == "above_bound":
        return (FlowMod(match=stable_match(rng), priority=rng.randint(31, 60),
                        instructions=compilable_instructions(rng)),)
    if kind == "new_shape":
        match = random_match(rng)
        if rng.random() < 0.4:  # a mask-set rather than a field-set
            mask = (0xFFFFFFFF << rng.choice((8, 16, 24))) & 0xFFFFFFFF
            match = Match(ipv4_src=(int(rng.choice(IPS)) & mask, mask))
        return (FlowMod(match=match, priority=priority,
                        instructions=compilable_instructions(rng)),)
    if kind == "goto":
        return (FlowMod(match=hot_match(rng), priority=30,
                        instructions=[GotoTable(table_id=1)]),)
    if kind == "later_table":
        roll = rng.random()
        if roll < 0.4:
            match = stable_match(rng)
        elif roll < 0.7:  # one field no table-0 shape reads, wide enough to hit
            match = rng.choice((
                Match(eth_dst=int(rng.choice(MACS))),
                Match(eth_src=int(rng.choice(MACS))),
                Match(eth_type=0x0800, udp_src=rng.choice(PORTS)),
                Match(vlan_vid=c.OFPVID_PRESENT | rng.randint(100, 101)),
            ))
        else:
            match = random_match(rng)
        return (FlowMod(table_id=1, match=match, priority=priority,
                        instructions=compilable_instructions(rng)),)
    return (FlowMod(table_id=1, command=c.OFPFC_DELETE, match=stable_match(rng)),)


def incremental_prologue() -> list:
    """The first control-plane steps of every round, one per burst: each
    shape break and each content hazard once, on purpose, so that which
    hazards a run exercised does not hang on the seed.  The random
    churn that follows supplies the combinations."""
    out_3 = OutputAction(port=3)
    out = [ApplyActions(actions=(out_3,))]
    push, set_vid = PushVlanAction(), SetFieldAction.vlan_vid(100)

    def hot(*actions) -> tuple:
        return (FlowMod(match=Match(in_port=1), priority=30,
                        instructions=[ApplyActions(actions=actions)]),)

    arp = Match(eth_type=0x0806)
    select_group = dict(
        group_type=c.OFPGT_SELECT, group_id=4,
        buckets=[Bucket(actions=[OutputAction(port=1)], weight=1),
                 Bucket(actions=[OutputAction(port=2)], weight=1)],
    )
    return [
        (FlowMod(match=Match(ipv4_src=(int(IPS[0]) & 0xFFFF0000, 0xFFFF0000)),
                 priority=10, instructions=out),),  # new mask-set
        (FlowMod(match=Match(in_port=2), priority=45, instructions=out),),  # above bound
        (FlowMod(match=Match(eth_src=int(MACS[0])), priority=10,
                 instructions=out),),  # new field-set
        (FlowMod(table_id=1, match=Match(vlan_vid=c.OFPVID_PRESENT | 100),
                 priority=10, instructions=out),),  # slot outside used_slots
        (GroupMod(command=c.OFPGC_ADD, **select_group),),  # first select group
        # ...and gone again, like the mortal entry below within two
        # seconds: the random churn gets to bring both in afresh.
        (GroupMod(command=c.OFPGC_DELETE, **select_group),),
        (FlowMod(match=Match(in_port=3), priority=30, hard_timeout=1,
                 instructions=out),),  # first mortal entry
        (FlowMod(command=c.OFPFC_DELETE, match=arp),  # empties the ARP field-set...
         FlowMod(match=arp, priority=30, instructions=out)),  # ...and re-creates it
        (FlowMod(command=c.OFPFC_MODIFY, match=Match(in_port=1),
                 instructions=_FLOOD),),  # the hot rule, into a fallback shape
        (FlowMod(command=c.OFPFC_DELETE, match=Match(in_port=1)),),  # the cached winner
        (FlowMod(match=Match(in_port=1), priority=30, instructions=out),),
        # The VLAN-rewrite shapes, each on the hot port rule for a burst.
        hot(push, set_vid, out_3),  # the translator's pair: folded
        hot(push, SetFieldAction(field="eth_dst", value=int(MACS[3])), out_3),
        hot(push, push, set_vid, out_3),
        hot(PopVlanAction(), push, set_vid, out_3),
        (GroupMod(command=c.OFPGC_MODIFY, group_type=c.OFPGT_INDIRECT, group_id=1,
                  buckets=[Bucket(actions=[push, set_vid, OutputAction(port=2)])]),
         *hot(GroupAction(group_id=1))),  # folded inside a bucket
        (FlowMod(table_id=1, match=Match(), priority=0,
                 instructions=[ApplyActions(actions=(push, set_vid, out_3))]),
         FlowMod(match=Match(in_port=1), priority=30,
                 instructions=[GotoTable(table_id=1)])),  # folded down a chain
        # Untagged frames only (a new field-set): nothing to set.
        (FlowMod(match=Match(in_port=1, vlan_vid=0), priority=35,
                 instructions=[ApplyActions(actions=(set_vid, out_3))]),),
    ]


def rewrite_shapes(actions) -> set:
    """Which VLAN-rewrite shapes an action list contains."""
    kinds = " ".join(
        "push" if type(action) is PushVlanAction
        else "pop" if type(action) is PopVlanAction
        else "other" if type(action) is not SetFieldAction
        else "set_vid" if action.field == "vlan_vid"
        else "set_field"
        for action in actions
    )
    shapes = {
        name
        for name, pattern in (
            ("fold", "push set_vid"),
            ("push_then_other_set_field", "push set_field"),
            ("push_push_set", "push push set_vid"),
            ("pop_then_push_set", "pop push set_vid"),
        )
        if pattern in kinds
    }
    if kinds.startswith("set_vid"):
        shapes.add("leading_set_vid")  # rewrites the tag the frame arrived with
    return shapes


def rewrite_hazards(switch) -> set:
    """The VLAN-rewrite hazards among the decisions *switch*'s program
    holds — each built because a frame served compiled selected it."""
    program = switch.program
    hazards: set = set()
    if program is None:
        return hazards
    vlan_slot = (
        program.used_slots.index(4) if 4 in program.used_slots else None
    )  # FLOW_KEY_FIELDS[4] is vlan_vid: 0 in the key means untagged
    for key, decision in program.key_cache.items():
        kind, walked = decision[0], decision[1]
        if kind == PLAN_CHAIN:
            entries = [entry for _, entry in walked]
            for op, arg in decision[2][0]:
                buckets = ()
                if op == STEP_GROUP_ALL:
                    buckets = arg[0].buckets
                elif op == STEP_GROUP_ONE and arg[1] is not None:
                    buckets = (arg[0].buckets[arg[1]],)
                if any("fold" in rewrite_shapes(bucket.actions) for bucket in buckets):
                    hazards.add("fold_in_group_bucket")
        elif walked is not None:  # one terminal entry
            entries = [walked]
        else:  # table miss, fallback
            continue
        for entry in entries:
            shapes = rewrite_shapes([
                action
                for instruction in entry.instructions
                if isinstance(instruction, ApplyActions)
                for action in instruction.actions
            ])
            if "fold" in shapes:
                hazards.add("fold_in_chain" if len(entries) > 1 else "fold_in_apply_actions")
            if "leading_set_vid" in shapes and entry is entries[0]:
                if vlan_slot is not None and key[vlan_slot] == 0:
                    hazards.add("set_vlan_on_untagged")
            hazards.update(shapes - {"fold", "leading_set_vid"})
    return hazards


def reaction_script(rng: random.Random, length: int) -> list:
    """What the synchronous controller does on its n-th packet-in.

    Half the reactions aim at the very burst that raised the packet-in
    (its in_port, its destination), so the frames still queued behind
    it are the ones whose cached decisions the reaction outdates."""
    # Like the prologue: the first packet-ins of a round get one
    # shape-breaking and one shape-preserving answer for certain.
    script = [("learn", 3), ("repoint", 2), ("learn", 2), ("repoint", 1)]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.4:
            script.append(())
        elif roll < 0.65:  # re-point the ingress port's rule: a patch
            script.append(("repoint", rng.randint(1, 3)))
        elif roll < 0.85:  # revoke + grant inside known shapes: a patch
            script.append((
                FlowMod(command=c.OFPFC_DELETE_STRICT, match=stable_match(rng),
                        priority=rng.choice((5, 10, 20, 30))),
                FlowMod(match=stable_match(rng), priority=rng.choice((5, 10, 20)),
                        instructions=compilable_instructions(rng)),
            ))
        else:  # learn the destination: a new field-set the first time
            script.append(("learn", rng.randint(1, 3)))
    return script


def concrete_reaction(reaction: tuple, packet_in: PacketIn) -> tuple:
    if reaction[:1] == ("repoint",):
        in_port = packet_in.match.get("in_port").value
        # Above the base rules (and, once the prologue's priority-45
        # port rule is in, still under the port shape's bound): the
        # frames this burst already decided now belong to this rule.
        return (FlowMod(
            match=Match(in_port=in_port), priority=40,
            instructions=[ApplyActions(actions=(OutputAction(port=reaction[1]),))],
        ),)
    if reaction[:1] == ("learn",):
        dst = EthernetFrame.from_bytes(packet_in.data).dst
        return (FlowMod(
            match=Match(eth_dst=int(dst)), priority=50,
            instructions=[ApplyActions(actions=(OutputAction(port=reaction[1]),))],
        ),)
    return reaction


def _entry_ids(switch) -> set:
    return {id(entry) for table in switch.tables for entry in table}


def _probe_shape(match) -> tuple:
    """The table-0 probe group (field-set or mask-set) *match* indexes under."""
    exact = match.exact_key()
    return ("exact", exact[0]) if exact is not None else ("masked", match.mask_key()[0])


class IncrementalRig:
    """One of the three switches plus what the harness watches on it."""

    def __init__(self, cost_model, kind: str, script: list, hazards: Counter):
        self.kind = kind  # "patched" | "fresh" | "interpreter"
        interpreted = kind == "interpreter"
        self.rig = build_rig(
            cost_model,
            specialize=not interpreted,
            fast_path=not interpreted,  # the seed linear_lookup, no cache
            base=incremental_base(),
        )
        self.sim, self.switch, self.sinks, self.packet_ins = self.rig
        self.script = script
        self.cursor = 0
        self.in_burst = False
        self.hazards = hazards
        #: ids of FlowEntry objects this switch removed and has not
        #: (yet) handed out again — ints only, never the objects.
        self.freed_ids: set = set()
        self.switch.to_controller = self._controller

    # The controller is wired straight back into handle_message: its
    # reaction lands between two frames of the burst that raised it.
    def _controller(self, raw: bytes) -> None:
        self.packet_ins.append(raw)
        message = parse_message(raw)
        if not isinstance(message, PacketIn) or self.cursor >= len(self.script):
            return
        reaction = concrete_reaction(self.script[self.cursor], message)
        self.cursor += 1
        program = self.switch.program
        patches = self.switch.program_patches
        for mod in reaction:
            self.apply(mod)
        if self.kind == "patched" and self.in_burst and program is not None and reaction:
            if self.switch.program is not program:
                self.hazards["mid_burst_discard"] += 1
            elif self.switch.program_patches != patches:
                self.hazards["mid_burst_patch"] += 1

    def apply(self, message) -> list:
        if self.kind == "patched":
            replies = self._apply_observed(message)
        else:
            replies = self.switch.handle_message(message.to_bytes())
        if self.kind == "fresh":
            # A model "swap" discards the program: the next frame runs
            # a fresh compile_datapath.
            self.switch.cost_model = self.switch.cost_model
        return replies

    def _apply_observed(self, message) -> list:
        """handle_message on the patched switch, counting what it survived."""
        switch, hazards = self.switch, self.hazards
        program = switch.program
        before_ids = _entry_ids(switch)
        planned = set(program.plans) if program is not None else set()
        invalidations = switch.program_invalidations
        patches = switch.program_patches
        is_flow_mod = isinstance(message, FlowMod)
        replaced_other = recreated = False
        if is_flow_mod and message.command == c.OFPFC_ADD:
            table = switch.tables[message.table_id]
            replaced_other = any(
                entry.priority == message.priority
                and entry.match == message.match
                and entry.instructions != list(message.instructions)
                for entry in table
            )
            # No installed entry of the add's field-set / mask-set: the
            # table builds the group anew, and a kept program must
            # rebind its probe to the new bucket dict.
            recreated = message.table_id == 0 and _probe_shape(message.match) not in {
                _probe_shape(entry.match) for entry in table
            }
        replies = switch.handle_message(message.to_bytes())
        after_ids = _entry_ids(switch)
        removed, added = before_ids - after_ids, after_ids - before_ids
        if added & self.freed_ids:
            hazards["id_reuse"] += 1
        self.freed_ids = (self.freed_ids | removed) - added
        if program is None:
            return replies
        if switch.program is program:
            if switch.program_patches == patches:
                return replies  # a no-op (nothing deleted/modified)
            if replaced_other:
                hazards["replacement_add"] += 1
            if recreated:
                hazards["recreated_field_set"] += 1
            if removed & planned:
                hazards["delete_cached_winner"] += 1
            if isinstance(message, GroupMod):
                hazards["group_patch"] += 1
            if is_flow_mod and message.command in (c.OFPFC_MODIFY, c.OFPFC_MODIFY_STRICT):
                modified = [
                    entry for entry in switch.tables[message.table_id]
                    if entry.match == message.match
                    and entry.instructions == list(message.instructions)
                ]
                if any(entry_fallback_reason(entry, 0) for entry in modified):
                    hazards["modify_into_fallback"] += 1
                if any(id(entry) in planned for entry in modified):
                    hazards["modify_cached_winner"] += 1
        else:
            assert switch.program_invalidations == invalidations + 1
            reason = switch.stats()["specialization"]["last_regenerate_reason"]
            for prefix, hazard in _REGENERATE_HAZARDS:
                if reason.startswith(prefix):
                    hazards[hazard] += 1
                    break
            else:
                raise AssertionError(f"unexplained discard: {reason!r}")
        return replies

    def run_until(self, clock: float) -> None:
        switch = self.switch
        program, patches = switch.program, switch.program_patches
        before_ids = _entry_ids(switch)
        self.sim.run(until=clock)
        self.freed_ids |= before_ids - _entry_ids(switch)
        if (
            self.kind == "patched" and program is not None
            and switch.program is program and switch.program_patches != patches
        ):
            self.hazards["expiry_patch"] += 1

    def burst(self, in_port: int, frames: list, single: bool) -> None:
        self.in_burst = not single
        try:
            if single:
                self.switch.inject(frames[0], in_port)
            else:
                self.switch.process_batch(in_port, list(frames))
        finally:
            self.in_burst = False


def assert_same_state(rig_a: IncrementalRig, rig_b: IncrementalRig) -> None:
    """The cheap per-burst comparison; `assert_identical` runs per round."""
    a, b = rig_a.switch, rig_b.switch
    label = f"{rig_a.kind} vs {rig_b.kind}"
    assert a.busy_until == b.busy_until, label
    assert len(rig_a.packet_ins) == len(rig_b.packet_ins), label
    assert (a.packets_forwarded, a.drops, a.packets_to_controller) == (
        b.packets_forwarded, b.drops, b.packets_to_controller
    ), label
    assert a.dump_pipeline() == b.dump_pipeline(), label  # per-entry counters
    for table_a, table_b in zip(a.tables, b.tables):
        assert (table_a.lookups, table_a.matches) == (
            table_b.lookups, table_b.matches
        ), f"{label}: table {table_a.table_id}"


def run_incremental(seed, rounds, bursts_per_round, cost_model, churn_prob=0.5):
    """Returns (bursts compared, hazards seen, patched-switch stat totals)."""
    rng = random.Random(seed)
    hazards: Counter = Counter()
    totals: Counter = Counter()
    bursts_done = 0
    try:
        for round_index in range(rounds):
            weights = step_weights(_ROUND_THEMES[round_index % len(_ROUND_THEMES)])
            script = reaction_script(rng, 6 * bursts_per_round)
            rigs = [
                IncrementalRig(cost_model, kind, script, hazards)
                for kind in ("patched", "fresh", "interpreter")
            ]
            patched, fresh, interpreter = rigs
            pool = [random_frame(rng) for _ in range(24)]
            prologue = incremental_prologue()
            clock = 0.0
            for burst_index in range(bursts_per_round):
                clock += rng.random() * 0.3  # wide steps: timeouts land
                for rig in rigs:
                    rig.run_until(clock)
                step = ()
                if burst_index == 0:
                    pass  # the first burst compiles the base pipeline
                elif burst_index <= len(prologue):
                    step = prologue[burst_index - 1]
                elif rng.random() < churn_prob:
                    step = incremental_churn(rng, weights)
                for message in step:
                    replies = [rig.apply(message) for rig in rigs]
                    assert replies[0] == replies[1] == replies[2]
                size = rng.choice((1, 2, 3, 4, 6, 8, 8, 12))
                # Often few distinct flows per burst: the key cache is
                # what serves the repeats, and what a mid-burst
                # reaction has to have flushed.
                flows = rng.sample(pool, rng.choice((2, 3, 6, len(pool), len(pool))))
                frames = [rng.choice(flows) for _ in range(size)]
                in_port = 1 if rng.random() < 0.7 else rng.randint(2, 3)
                single = size == 1 and rng.random() < 0.5
                for rig in rigs:
                    rig.burst(in_port, frames, single)
                bursts_done += 1
                assert_same_state(patched, interpreter)
                assert_same_state(fresh, interpreter)
                hazards.update(rewrite_hazards(patched.switch))
                program = patched.switch.program
                if program is not None:
                    # Plans outlive a flush; a removed or replaced
                    # entry's must not (its id() is up for reuse).
                    assert set(program.plans) <= _entry_ids(patched.switch)
            for rig in rigs:
                rig.sim.run()
            assert_identical(patched.rig, interpreter.rig)
            assert_identical(fresh.rig, interpreter.rig)
            assert patched.switch.busy_until == interpreter.switch.busy_until
            stats = patched.switch.stats()["specialization"]
            for key in ("specialized_frames", "fallback_frames", "compiles",
                        "invalidations", "patches"):
                totals[key] += stats[key]
            totals["fresh_compiles"] += fresh.switch.program_compiles
    except AssertionError:
        print(
            f"\nDIFFERENTIAL FAILURE: seed=0x{seed:X} family=incremental "
            f"rounds={rounds} bursts_per_round={bursts_per_round} "
            f"cost_model={'zero' if cost_model is ZERO_COST else 'eswitch'} "
            f"burst_index={bursts_done} hazards={dict(hazards)}"
        )
        raise
    return bursts_done, hazards, totals


class TestSpecializedDifferential:
    def test_zero_cost_differential(self):
        """≥600 mixed bursts with immediate (coalesced) egress."""
        bursts, totals = run_differential(
            0x5BEC, rounds=4, bursts_per_round=150 * SCALE, cost_model=ZERO_COST
        )
        assert bursts == 600 * SCALE
        # Every phase was actually exercised (deterministic seed).
        assert totals["specialized_frames"] > 400
        assert totals["fallback_frames"] > 100  # packet-in / flood escapes
        assert totals["compiles"] >= 10
        assert totals["invalidations"] >= 10  # recompiles amid live traffic

    def test_eswitch_cost_deferred_emission(self):
        """≥400 bursts where every emission defers past the CPU charge."""
        bursts, totals = run_differential(
            0xE5C0DE,
            rounds=4,
            bursts_per_round=110 * SCALE,
            cost_model=ESWITCH_COST_MODEL,
        )
        assert bursts == 440 * SCALE
        assert totals["specialized_frames"] > 500
        assert totals["fallback_frames"] > 100

    def test_multi_table_chain_family(self):
        """≥1000 bursts of goto-chain churn: hops up to table 3, chains
        dying mid-walk as later tables are wiped, outputs before hops,
        and transform-before-goto entries falling back per entry."""
        bursts, totals = run_differential(
            0xC4A1,
            rounds=4,
            bursts_per_round=250 * SCALE,
            cost_model=ZERO_COST,
            churn=chain_churn_message,
            churn_prob=0.35,
        )
        assert bursts == 1000 * SCALE
        assert totals["specialized_frames"] > 1000
        assert totals["compiles"] >= 10

    def test_group_family(self):
        """≥1000 bursts of group churn: all/select/indirect execution,
        type flips, bucket remaps landing between bursts, and flows
        pointed at groups that never existed (dead-group drops)."""
        bursts, totals = run_differential(
            0x6B0B,
            rounds=4,
            bursts_per_round=250 * SCALE,
            cost_model=ZERO_COST,
            churn=group_churn_message,
            churn_prob=0.35,
        )
        assert bursts == 1000 * SCALE
        assert totals["specialized_frames"] > 1000
        assert totals["invalidations"] >= 10  # group mods mark stale

    def test_timeout_family(self):
        """≥1000 bursts with idle/hard timeouts armed: expiry lands
        between bursts while compiled decisions for the dead entries
        are still cached, forcing the mortal revalidation path."""
        bursts, totals = run_differential(
            0x7E0D,
            rounds=4,
            bursts_per_round=250 * SCALE,
            cost_model=ZERO_COST,
            churn=mortal_churn_message,
            churn_prob=0.35,
            clock_step=0.3,  # wider steps: timeouts actually land
        )
        assert bursts == 1000 * SCALE
        assert totals["specialized_frames"] > 1000
        assert totals["compiles"] >= 10

    def test_mid_burst_mutation_via_reactive_controller(self):
        """A zero-latency controller wired straight back into
        handle_message reacts to a packet-in *between frames of one
        burst*: it deletes the packet-in rule and installs a concrete
        forwarding flow on a new field-set, so the running program is
        discarded under the burst.  The burst hands its remaining
        frames back to the switch, which regenerates and serves them
        compiled — as injecting them one by one would.  Both switches
        must agree on every frame, packet-in and counter throughout."""
        rigs = []
        for specialize in (True, False):
            rig = build_rig(ZERO_COST, specialize=specialize)
            _, switch, _, packet_ins = rig

            def reactive(raw, switch=switch, log=packet_ins):
                log.append(raw)
                message = parse_message(raw)
                if not isinstance(message, PacketIn):
                    return
                frame = EthernetFrame.from_bytes(message.data)
                switch.handle_message(
                    FlowMod(
                        command=c.OFPFC_DELETE_STRICT,
                        match=Match(in_port=2),
                        priority=8,
                    ).to_bytes()
                )
                switch.handle_message(
                    FlowMod(
                        match=Match(eth_dst=int(frame.dst)),
                        priority=9,
                        instructions=[ApplyActions(actions=(OutputAction(port=3),))],
                    ).to_bytes()
                )

            switch.to_controller = reactive
            switch.handle_message(
                FlowMod(
                    match=Match(in_port=2),
                    priority=8,
                    instructions=[
                        ApplyActions(actions=(OutputAction(port=c.OFPP_CONTROLLER),))
                    ],
                ).to_bytes()
            )
            rigs.append(rig)

        spec_rig, interp_rig = rigs
        _, spec, _, _ = spec_rig
        _, interp, _, _ = interp_rig
        frame = udp_frame(MACS[0], MACS[1], IPS[0], IPS[1], 53, 80, b"x")
        burst = [frame] * 6
        for rig_switch in (spec, interp):
            rig_switch.process_batch(2, list(burst))  # packet-in at frame 1
        # Only the packet-in frame was interpreted; the other five went
        # through the program regenerated mid-burst.
        assert spec.program is not None and spec.program_invalidations == 1
        assert (spec.fallback_frames, spec.specialized_frames) == (1, 5)
        follow = [frame] * 6
        for rig_switch in (spec, interp):
            rig_switch.process_batch(2, list(follow))
        spec_rig[0].run()
        interp_rig[0].run()
        assert spec.program is not None
        assert (spec.fallback_frames, spec.specialized_frames) == (1, 11)
        assert_identical(spec_rig, interp_rig)

    def test_compiled_burst_equals_compiled_sequential(self):
        """A burst through the compiled tier must match the same frames
        pushed one at a time through it — both arms reach the one
        executor, ``run_burst``, a frame being a burst of one — and the
        ``linear_lookup`` interpreter fed frame by frame, the fixed
        oracle, across churn-driven recompiles."""
        rng = random.Random(0xB0B5)
        burst_rig = build_rig(ZERO_COST, specialize=True)
        seq_rig = build_rig(ZERO_COST, specialize=True)
        linear_rig = build_rig(ZERO_COST, specialize=False, fast_path=False)
        rigs = (burst_rig, seq_rig, linear_rig)
        burst_switch, seq_switch, linear_switch = (rig[1] for rig in rigs)
        pool = [random_frame(rng) for _ in range(16)]
        clock = 0.0
        for _ in range(200):
            clock += rng.random() * 0.05
            for rig in rigs:
                rig[0].run(until=clock)
            if rng.random() < 0.2:
                message = FlowMod(
                    match=random_match(rng),
                    priority=rng.randint(0, 30),
                    instructions=compilable_instructions(rng),
                ).to_bytes()
                replies = [rig[1].handle_message(message) for rig in rigs]
                assert replies[0] == replies[1] == replies[2]
            size = rng.choice((2, 3, 4, 6, 8, 12))
            frames = [pool[rng.randrange(len(pool))] for _ in range(size)]
            in_port = rng.randint(1, 3)
            burst_switch.process_batch(in_port, list(frames))
            for frame in frames:
                seq_switch.inject(frame, in_port)
                linear_switch.inject(frame, in_port)
        for rig in rigs:
            rig[0].run()
        # Both engines actually ran compiled (pipeline stays compilable).
        assert burst_switch.specialized_frames > 500
        assert seq_switch.specialized_frames == burst_switch.specialized_frames
        assert linear_switch.program is None
        assert_identical(burst_rig, seq_rig)
        assert_identical(burst_rig, linear_rig)

    def test_incremental_family(self):
        """≥1000 bursts, three-way: the program patched in place by
        every shape-preserving FlowMod/GroupMod/expiry must stay
        identical — frames and order, per-entry/table/group counters,
        packet-ins, ``busy_until`` — to a switch recompiled from
        scratch after every mutation and to the ``linear_lookup``
        interpreter, with every hazard patching has to survive seen at
        least once."""
        bursts, hazards, totals = run_incremental(
            INCREMENTAL_SEED, rounds=4, bursts_per_round=250 * SCALE,
            cost_model=ZERO_COST,
        )
        assert bursts == 1000 * SCALE
        missing = [
            name for name in INCREMENTAL_HAZARDS
            if not hazards[name]
            # id() reuse is the allocator's doing; only CPython promises it.
            and (name != "id_reuse" or sys.implementation.name == "cpython")
        ]
        assert not missing, f"hazards never exercised: {missing} (seen {dict(hazards)})"
        # Patching is the common case, regenerating the exception — and
        # the reference switch really did recompile throughout.
        assert totals["patches"] > 2 * totals["invalidations"]
        assert totals["fresh_compiles"] > 3 * totals["compiles"]
        assert totals["specialized_frames"] > 1000

    def test_incremental_shape_break_under_link_bursts(self):
        """A new table-0 field-set lands mid-stream and the next
        32-frame bursts reach the switch over a `Link`
        (``receive_burst``): there is no window — the first burst after
        the mod is served by the regenerated program, only its
        packet-in frames go through the interpreter — and every burst
        must equal the ``linear_lookup`` switch: bytes, order,
        per-frame arrival time at the far ports, flow/table/port
        counters, packet-ins."""
        shape_break = FlowMod(
            match=Match(eth_type=0x0800, tcp_dst=443), priority=40,
            instructions=[ApplyActions(actions=(OutputAction(port=1),))],
        ).to_bytes()
        for cost_model in (ZERO_COST, ESWITCH_COST_MODEL):
            rng = random.Random(0x5A9E)
            pool = [random_frame(rng) for _ in range(24)]
            # Every 10 ms from t=100 ms; the mod lands at 155 ms,
            # between bursts 5 and 6.
            bursts = [
                (0.1 + 0.01 * index, [rng.choice(pool) for _ in range(32)])
                for index in range(16)
            ]
            rigs = []
            for linear in (False, True):
                rig = build_rig(
                    cost_model, specialize=not linear, fast_path=not linear,
                    base=incremental_base(),
                    bandwidth_bps=10e9, propagation_delay_s=1e-6,
                )
                sim, switch = rig[0], rig[1]
                source = BurstSource(sim, "gen")
                wire(source, switch, bandwidth_bps=10e9, propagation_delay_s=1e-6,
                     queue_frames=100_000)
                source.start(bursts)
                rigs.append(rig)
            spec_rig, linear_rig = rigs
            spec = spec_rig[1]

            def checkpoint(until=None):
                for rig in rigs:
                    rig[0].run(until=until)
                assert_identical(spec_rig, linear_rig)
                assert spec.busy_until == linear_rig[1].busy_until
                for number in sorted(spec.ports):
                    port_a, port_b = spec.ports[number], linear_rig[1].ports[number]
                    for counter in ("rx_frames", "rx_bytes", "tx_frames",
                                    "tx_bytes", "tx_dropped"):
                        assert getattr(port_a, counter) == getattr(port_b, counter), (
                            f"port {number} {counter}"
                        )

            checkpoint(until=0.155)
            assert spec.program is not None and spec.program_compiles == 1
            compiled_before = spec.specialized_frames
            assert compiled_before > 0
            for rig in rigs:
                assert rig[1].handle_message(shape_break) == []
            assert spec.program is None
            assert spec.last_regenerate_reason.startswith("new field-set")

            handed_over_by = []  # the program active at each interpreted frame

            def interpret(frame, in_port, original=spec._interpret_one):
                handed_over_by.append(spec.program)
                original(frame, in_port)

            spec._interpret_one = interpret  # the regenerated program binds it
            served_before = compiled_before + spec.fallback_frames
            checkpoint(until=0.165)  # burst 6 alone
            assert spec.program is not None and spec.program_compiles == 2
            assert spec.specialized_frames + spec.fallback_frames == served_before + 32
            assert spec.specialized_frames > compiled_before

            checkpoint()
            assert spec.program_compiles == 2
            # Nothing was interpreted for want of a program: every frame
            # the interpreter saw was a FALLBACK decision of the new one.
            assert handed_over_by and set(handed_over_by) == {spec.program}
            assert sum(len(sink.received) for sink in spec_rig[2]) > 300
            assert spec_rig[3]  # the table-miss rule raised packet-ins throughout

    def test_incremental_family_deferred_emission(self):
        """The same three-way under the ESwitch cost model: every
        emission defers past the CPU charge, so ``busy_until`` and the
        emission timestamps carry the comparison."""
        bursts, hazards, totals = run_incremental(
            0xE14C8E, rounds=2, bursts_per_round=200 * SCALE,
            cost_model=ESWITCH_COST_MODEL,
        )
        assert bursts == 400 * SCALE
        # (No mid-burst hazards here: a charged packet-in is itself
        # deferred, so the controller reacts from its own event.)
        assert hazards["replacement_add"] and hazards["delete_cached_winner"]
        assert totals["patches"] > totals["invalidations"]

    def test_case_count_meets_acceptance(self):
        """Every new eligibility dimension gets ≥1000 compared bursts,
        and the mixed suites together add another 1000+."""
        assert 600 + 440 >= 1000  # mixed churn (zero-cost + eswitch-cost)
        for family_bursts in (1000, 1000, 1000):  # chains, groups, timeouts
            assert family_bursts * SCALE >= 1000
