"""The differential kit: what every bit-identity suite draws from.

A fast tier is allowed to exist only because it changes nothing a
controller or a neighbour can see.  The suites that prove it share
this module: seeded generators for frames, matches, instruction lists
and churn messages (a family is a parameter, not a copy), one recording
:class:`Sink`, one rig builder, one comparator and one seeded run loop
that prints a reproducible ``DIFFERENTIAL FAILURE: seed=…`` line.  Each
suite keeps only its own families, its oracle and its floors.

Set ``DIFFERENTIAL_SCALE=<n>`` to multiply every suite's case counts
(the nightly job runs at 5×).
"""

import os
import random
from contextlib import contextmanager
from functools import partial
from typing import NamedTuple

from repro.net import EthernetFrame, IPv4Address, MACAddress
from repro.net.addresses import GROUP_BIT
from repro.net.build import tcp_frame, udp_frame
from repro.net.tcp import TcpSegment
from repro.netsim import Simulator
from repro.netsim.link import wire
from repro.netsim.node import Node
from repro.openflow import (
    ApplyActions,
    Bucket,
    ClearActions,
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
from repro.openflow.match import FULL_MASKS
from repro.openflow.messages import parse_message
from repro.openflow.packetview import FIELD_INDEX
from repro.softswitch import DatapathCostModel, SoftSwitch

#: Case-count multiplier; the nightly extended job sets this to 5.
SCALE = max(1, int(os.environ.get("DIFFERENTIAL_SCALE", "1")))

ZERO_COST = DatapathCostModel.zero()


class HookedCostModel(DatapathCostModel):
    """A subclassed cost model, as a per-packet cost hook would be.  The
    compiler rejects it, so a switch with specialization on serves every
    frame through the interpreter on its fallback route."""


MACS = [MACAddress(0x020000000001 + i) for i in range(4)]
IPS = [IPv4Address(f"10.0.{i // 4}.{i % 4 + 1}") for i in range(8)]
PORTS = [53, 80, 443, 8080]
RESERVED_PORTS = (c.OFPP_CONTROLLER, c.OFPP_FLOOD, c.OFPP_ALL, c.OFPP_IN_PORT)


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------


def random_frame(rng, arp=0.1, malformed=0.0, udp=0.6, vids=(100, 101), ports=PORTS):
    """ARP below *arp*, a truncated IPv4 header up to *arp* + *malformed*,
    UDP up to *udp*, TCP above; tagged with one of *vids* half the time."""
    roll = rng.random()
    if roll < arp + malformed:  # non-IP, or an L3 decode error: L3/L4 slots None
        return EthernetFrame(
            dst=rng.choice(MACS), src=rng.choice(MACS),
            ethertype=0x0806 if roll < arp else 0x0800,
            payload=b"\x00" * 28 if roll < arp else b"\x45\x00",
        )
    src_mac, dst_mac = rng.choice(MACS), rng.choice(MACS)
    src_ip, dst_ip = rng.choice(IPS), rng.choice(IPS)
    vlan_id = rng.choice((None, None) + vids)
    if roll < udp:
        return udp_frame(
            src_mac, dst_mac, src_ip, dst_ip,
            rng.choice(ports), rng.choice(ports), b"x", vlan_id=vlan_id,
        )
    return tcp_frame(
        src_mac, dst_mac, src_ip, dst_ip,
        TcpSegment(rng.choice(ports), rng.choice(ports)), vlan_id=vlan_id,
    )


def whole(rng, name, value, spell=True):
    """*value*, or now and then the same whole-field constraint spelled
    ``(value, full mask)``: both must land in the field's bare probe."""
    if spell and rng.random() < 0.25:
        return (value, FULL_MASKS[FIELD_INDEX[name]])
    return value


def prefix(rng, value):
    mask = (0xFFFFFFFF << (32 - rng.choice((8, 16, 24)))) & 0xFFFFFFFF
    return (value & mask, mask)


#: Every field a match can draw, in draw order, with its probability.
MATCH_FIELDS = {
    "in_port": 0.5, "eth_type": 0.4, "eth_src": 0.3, "eth_dst": 0.3, "vlan_vid": 0.3,
    "ipv4_src": 0.4, "ipv4_dst": 0.4, "l4": 0.3, "vlan_pcp": 0.2, "ip_dscp": 0.2,
    "ip_proto": 0.2,
}
OTHER_VALUES = {"vlan_pcp": (0, 3), "ip_dscp": (0, 46), "ip_proto": (1, 6, 17)}
#: The match families the suites draw: ``random_match(rng, **family)``.
MATCH_FAMILIES = {
    "compiled": {},  # the specialized tier's fields, both spellings
    "plain": {"fields": ("in_port", "eth_type", "eth_dst", "ipv4_dst", "l4"), "spell": False},
    "classifier": {"fields": tuple(MATCH_FIELDS), "vids": (100, 103)},
}


def random_match(rng, fields=("in_port", "eth_type", "eth_dst", "vlan_vid", "ipv4_dst", "l4"),
                 vids=(100, 101), spell=True) -> Match:
    """A match on a random subset of *fields*.  With *spell*, whole-field
    constraints come in both spellings, ``eth_dst`` may be the group bit
    alone and ``vlan_vid`` ``OFPVID_PRESENT`` alone (partial masks)."""
    out: dict = {}
    for name in fields:
        if rng.random() >= MATCH_FIELDS[name]:
            continue
        if name == "in_port":
            out[name] = whole(rng, name, rng.randint(1, 3), spell)
        elif name == "eth_type":
            out[name] = whole(rng, name, 0x0800, spell)
        elif name == "eth_dst" and spell and rng.random() < 0.25:
            out[name] = (rng.choice((0, GROUP_BIT)), GROUP_BIT)
        elif name in ("eth_src", "eth_dst"):
            out[name] = whole(rng, name, int(rng.choice(MACS)), spell)
        elif name == "vlan_vid":
            roll = rng.random()
            if roll < 0.2:
                out[name] = (c.OFPVID_PRESENT, c.OFPVID_PRESENT)
            else:
                vid = 0 if roll < 0.45 else c.OFPVID_PRESENT | rng.randint(*vids)
                out[name] = whole(rng, name, vid)
        elif name in ("ipv4_src", "ipv4_dst"):
            value = int(rng.choice(IPS))
            out[name] = prefix(rng, value) if rng.random() < 0.5 else whole(rng, name, value, spell)
        elif name == "l4":
            l4 = rng.choice(("udp_dst", "udp_src", "tcp_dst", "tcp_src"))
            out[l4] = whole(rng, l4, rng.choice(PORTS), spell)
        else:  # vlan_pcp, ip_dscp, ip_proto: a value the frames carry, or not
            out[name] = rng.choice(OTHER_VALUES[name])
    return Match(**out)


def random_instructions(rng, table_id, packet_in=0.07, goto_after_rewrite=False):
    """A table-walk instruction list: drop, output, a set-field, the
    select group, a packet-in (*packet_in*), a goto deeper (a rewrite
    before it leaves the pipeline interpreted: *goto_after_rewrite*)."""
    if rng.random() < 0.15:
        return []  # explicit drop
    actions = [OutputAction(port=rng.randint(1, 3))]
    if rng.random() < 0.2:
        actions.insert(0, SetFieldAction(field="eth_dst", value=int(rng.choice(MACS))))
    if rng.random() < 0.15:
        actions = [GroupAction(group_id=1)]
    if packet_in and rng.random() < packet_in:
        actions = [OutputAction(port=c.OFPP_CONTROLLER)]
    instructions = [ApplyActions(actions=tuple(actions))]
    rewrites = type(actions[0]) is SetFieldAction and not goto_after_rewrite
    if table_id < 2 and rng.random() < 0.3 and not rewrites:
        instructions.append(GotoTable(table_id=rng.randint(table_id + 1, 2)))
    return instructions


def vlan_rewrite_actions(rng) -> list:
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


def compilable_instructions(rng, table_id=0):
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
        actions.insert(0, SetFieldAction(field="eth_dst", value=int(rng.choice(MACS))))
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


def edge_flow_mod(rng) -> FlowMod:
    """An install at the edge of what compiles.

    Reserved outputs (packet-in, flood, all, in-port) are steps of the
    program; the action set (write/clear-actions) and a frame transform
    before a goto or a group action make the compiler reject the whole
    pipeline, interpreted until a delete or a modify takes the rule away.
    """
    roll = rng.random()
    match, priority = random_match(rng), rng.randint(0, 30)
    set_dst = SetFieldAction(field="eth_dst", value=int(rng.choice(MACS)))
    if roll < 0.7:
        port = rng.choice(RESERVED_PORTS + (c.OFPP_CONTROLLER, c.OFPP_FLOOD))
        instructions = [ApplyActions(actions=(OutputAction(port=port),))]
    elif roll < 0.8:  # frame transform before a table walk continues
        instructions = [ApplyActions(actions=(set_dst,)), GotoTable(table_id=1)]
    elif roll < 0.9:  # frame transform before a group action
        instructions = [ApplyActions(actions=(set_dst, GroupAction(group_id=1)))]
    else:
        instructions = [WriteActions(actions=(OutputAction(port=rng.randint(1, 3)),))]
        if roll >= 0.95:
            instructions.insert(0, ClearActions())
    return FlowMod(match=match, priority=priority, instructions=instructions)


#: Churn mixes: (upper bound of the roll, kind of message).
WALK_CHURN = ((0.55, "add"), (0.75, "delete"), (0.92, "modify"), (1.0, "regroup"))
CLASSIFIER_CHURN = ((0.5, "add"), (0.7, "delete"), (0.9, "modify"), (1.0, "regroup"))
COMPILED_CHURN = (
    (0.45, "add"), (0.57, "edge"), (0.68, "purge"), (0.8, "delete"), (0.93, "modify"),
    (1.0, "regroup"),
)


def random_churn_message(rng, mix=COMPILED_CHURN, tables=None, match=None,
                         instructions=compilable_instructions, mortal=False):
    """One control-plane mutation drawn from *mix*: an ADD (with idle and
    hard timeouts when *mortal*), a DELETE, a MODIFY, an *edge* install,
    a *purge* of table 1, or a rewrite of select group 1.  Matches are
    of the *match* family (a :data:`MATCH_FAMILIES` value).  ADD and
    MODIFY go to a table of ``range(tables)``, or table 0 when *tables*
    is None (whose deletes reach table 1 one time in four)."""
    roll = rng.random()
    kind = next(kind for bound, kind in mix if roll < bound)
    if kind == "edge":
        return edge_flow_mod(rng)
    if kind == "purge":  # flips goto pipelines back
        return FlowMod(table_id=1, command=c.OFPFC_DELETE, match=Match())
    if kind == "regroup":
        return GroupMod(
            command=c.OFPGC_MODIFY, group_type=c.OFPGT_SELECT, group_id=1,
            buckets=[
                Bucket(actions=[OutputAction(port=rng.randint(1, 3))], weight=1),
                Bucket(actions=[OutputAction(port=rng.randint(1, 3))], weight=rng.randint(1, 3)),
            ],
        )
    if kind == "delete":  # an empty match wipes a whole table
        return FlowMod(
            table_id=rng.randint(0, tables - 1) if tables else rng.choice((0, 0, 0, 1)),
            command=rng.choice((c.OFPFC_DELETE, c.OFPFC_DELETE_STRICT)),
            match=random_match(rng, **(match or {})), priority=rng.randint(0, 30),
        )
    table_id = rng.randint(0, tables - 1) if tables else 0
    command = c.OFPFC_ADD if kind == "add" else rng.choice((c.OFPFC_MODIFY, c.OFPFC_MODIFY_STRICT))
    fields = dict(table_id=table_id, command=command, match=random_match(rng, **(match or {})),
                  priority=rng.randint(0, 30))
    if mortal and kind == "add":
        fields.update(idle_timeout=rng.choice((0, 0, 0, 1)), hard_timeout=rng.choice((0, 0, 1, 2)))
    return FlowMod(**fields, instructions=instructions(rng, table_id))


#: The churn families the suites draw: ``random_churn_message(rng, **family)``.
CHURN_FAMILIES = {
    "compiled": {},  # the specialized tier's mixed churn, one table
    "walk": {  # three tables, mortal adds, packet-ins, plain matches
        "mix": WALK_CHURN, "tables": 3, "match": MATCH_FAMILIES["plain"],
        "instructions": random_instructions, "mortal": True,
    },
    "classifier": {  # three tables, every field, rewrites before gotos
        "mix": CLASSIFIER_CHURN, "tables": 3, "match": MATCH_FAMILIES["classifier"],
        "instructions": partial(random_instructions, packet_in=0.0, goto_after_rewrite=True),
    },
}


# --------------------------------------------------------------------------
# Rigs
# --------------------------------------------------------------------------


class Sink(Node):
    """Records each frame it receives as ``(arrival time, wire bytes)``;
    a coalesced burst's frames each at their own arrival on the wire."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, port, frame):
        self.received.append((self.sim.now, frame.to_bytes()))

    def receive_burst(self, port, frames, arrivals):
        self.received.extend((when, frame.to_bytes()) for when, frame in zip(arrivals, frames))

    @property
    def frames(self):
        return [EthernetFrame.from_bytes(raw) for _, raw in self.received]


class Rig(NamedTuple):
    sim: Simulator
    switch: SoftSwitch
    sinks: list
    packet_ins: "list | None"


def output(port) -> list:
    """The instruction list that outputs to *port*."""
    return [ApplyActions(actions=(OutputAction(port=port),))]


#: Select group 1 over ports 2 and 3, weighted 1:2.
SELECT_GROUP = GroupMod(
    command=c.OFPGC_ADD, group_type=c.OFPGT_SELECT, group_id=1,
    buckets=[
        Bucket(actions=[OutputAction(port=2)], weight=1),
        Bucket(actions=[OutputAction(port=3)], weight=2),
    ],
)
#: The default pipeline: the select group, port 1 to port 2, everything
#: else dropped by a matched rule.
BASE = (
    SELECT_GROUP,
    FlowMod(match=Match(in_port=1), priority=3, instructions=output(2)),
    FlowMod(match=Match(), priority=0, instructions=[]),
)


def build_rig(base=(), *, sinks=3, cost_model=ZERO_COST, controller=False, ingress=None,
              bandwidth_bps=None, propagation_delay_s=0.0, **tier) -> Rig:
    """A ``SoftSwitch`` (*tier*: ``enable_specialization``) with a :class:`Sink` on each of the next
    *sinks* ports, packet-ins recorded when *controller*, and *base*
    installed.  ``ingress(sim)``, when given, builds a node wired to
    port 1 ahead of the sinks."""
    sim = Simulator()
    switch = SoftSwitch(sim, "ss", datapath_id=1, cost_model=cost_model, **tier)
    timing = dict(bandwidth_bps=bandwidth_bps, propagation_delay_s=propagation_delay_s,
                  queue_frames=100_000)
    if ingress is not None:
        wire(ingress(sim), switch, **timing)
    nodes = [Sink(sim, f"sink{index + 1}") for index in range(sinks)]
    for sink in nodes:
        wire(switch, sink, **timing)
    packet_ins = None
    if controller:
        packet_ins = []
        switch.to_controller = packet_ins.append
    provision(switch, base)
    return Rig(sim, switch, nodes, packet_ins)


def provision(switch, messages) -> None:
    """Send *messages* to *switch*, which must accept each without a reply."""
    for message in messages:
        replies = switch.handle_message(message.to_bytes())
        assert replies == [], [parse_message(reply) for reply in replies]


def install(switch, **flow_mod) -> None:
    """Provision the one ``FlowMod(**flow_mod)``."""
    provision(switch, (FlowMod(**flow_mod),))


def assert_identical(rig_a: Rig, rig_b: Rig) -> None:
    """Everything a neighbour or a controller can see, and every counter:
    frames and their arrival times at every sink, packet-ins, forwarding
    and drop counts by reason, ``busy_until``, per-port counters,
    ``stats()`` less its executor sub-dict, per-entry counters, per-table
    lookups and matches, the group table with group and bucket counters."""
    a, b = rig_a.switch, rig_b.switch
    for index, (sink_a, sink_b) in enumerate(zip(rig_a.sinks, rig_b.sinks)):
        assert sink_a.received == sink_b.received, f"sink {index + 1} diverged"
    assert rig_a.packet_ins == rig_b.packet_ins
    assert (a.packets_forwarded, dict(a.drops), a.packets_to_controller, a.busy_until) == (
        b.packets_forwarded, dict(b.drops), b.packets_to_controller, b.busy_until
    )
    assert port_counters(a) == port_counters(b)
    stats_a, stats_b = a.stats(), b.stats()
    del stats_a["specialization"], stats_b["specialization"]
    assert stats_a == stats_b
    assert a.dump_pipeline() == b.dump_pipeline()  # per-entry counters
    for table_a, table_b in zip(a.tables, b.tables):
        assert (table_a.lookups, table_a.matches) == (table_b.lookups, table_b.matches), (
            f"table {table_a.table_id}"
        )
    assert a.groups.dump() == b.groups.dump()
    assert group_counters(a) == group_counters(b)


def port_counters(switch) -> dict:
    return {
        number: (port.rx_frames, port.rx_bytes, port.tx_frames, port.tx_bytes, port.tx_dropped)
        for number, port in switch.ports.items()
    }


def group_counters(switch) -> dict:
    return {
        group.group_id: (group.packet_count, list(group.bucket_packet_counts))
        for group in switch.groups
    }


# --------------------------------------------------------------------------
# The seeded run loop
# --------------------------------------------------------------------------


@contextmanager
def reproducible(seed, **where):
    """On an assertion failure, print ``DIFFERENTIAL FAILURE: seed=…``
    with *where*, which the body may update as it goes."""
    try:
        yield where
    except AssertionError:
        detail = " ".join(f"{key}={value}" for key, value in where.items())
        print(f"\nDIFFERENTIAL FAILURE: seed=0x{seed:X} {detail}")
        raise


def feed_alike(rng, rigs, in_port, frames):
    """Every rig gets the burst the same way: a lone frame by ``inject``
    half the time, else ``process_batch``."""
    if len(frames) == 1 and rng.random() < 0.5:
        for rig in rigs:
            rig.switch.inject(frames[0], in_port)
    else:
        for rig in rigs:
            rig.switch.process_batch(in_port, list(frames))


def run_differential(seed, rounds, bursts_per_round, make_rigs, churn, churn_prob=0.3,
                     clock_step=0.12, feed=feed_alike, before_burst=None, after_round=None,
                     **where):
    """*rounds* × *bursts_per_round* seeded bursts from a pool of 24
    frames, with *churn* messages between them and the clock moving on,
    into the rigs *make_rigs* builds; :func:`assert_identical` after
    every round.  Returns the number of bursts compared."""
    rng = random.Random(seed)
    bursts = 0
    with reproducible(seed, rounds=rounds, bursts_per_round=bursts_per_round, **where) as at:
        for _ in range(rounds):
            rigs = make_rigs()
            pool = [random_frame(rng) for _ in range(24)]
            clock = 0.0
            for index in range(bursts_per_round):
                at["burst_index"] = bursts
                clock += rng.random() * clock_step  # lets timeouts land mid-run
                for rig in rigs:
                    rig.sim.run(until=clock)
                if before_burst:
                    before_burst(index, rigs)
                if rng.random() < churn_prob:
                    message = churn(rng).to_bytes()
                    replies = [rig.switch.handle_message(message) for rig in rigs]
                    assert all(reply == replies[0] for reply in replies)
                size = rng.choice((1, 2, 3, 4, 6, 8, 8, 12))
                frames = [pool[rng.randrange(len(pool))] for _ in range(size)]
                in_port = 1 if rng.random() < 0.7 else rng.randint(2, 3)
                feed(rng, rigs, in_port, frames)
                bursts += 1
            for rig in rigs:
                rig.sim.run()
            for rig in rigs[1:]:
                assert_identical(rigs[0], rig)
            if after_round:
                after_round(rigs)
    return bursts
