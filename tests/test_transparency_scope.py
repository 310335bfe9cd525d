"""Transparency in a small scope, checked exhaustively (ROADMAP item 19, slices i to iii).

The HARMLESS claim is that a controller cannot tell a migrated legacy
switch from a native OpenFlow switch.  Within a small scope this test
checks it for *every* case instead of a random sample: every
single-entry pipeline the scope's matches and actions make, installed
on a HARMLESS site (:func:`build_harmless_site`, where SS_2 is the
controller's switch) and on a native one (:func:`build_ideal_site`),
each fed every frame of the scope's alphabet.  Then the same for every
two-entry pipeline: two of those entries, one at priority 2 above one at
priority 1 (:func:`two_entry_pipelines`).  That scope is 19 460
pipelines, so the nightly job runs it whole (``DIFFERENTIAL_SCALE`` of
5 or more) and tier-1 a seeded sample of ``TWO_ENTRY_SAMPLE`` ×
``DIFFERENTIAL_SCALE``.  Each runs once per executor: every software
switch of both sides compiled, then every one interpreted
(specialization off).  One site per side and executor is reused:
between pipelines the controller deletes every entry and installs the
next ones.

Compared per pipeline, frame by frame:

* host deliveries — which host's port received which bytes, in order;
* packet-ins — in_port, reason and bytes;
* each entry's packet counter, read back through flow-stats.

The scope:

* 3 hosts;
* matches: match-all, ``in_port=p``, ``eth_dst`` in the hosts and
  broadcast, ``eth_type`` in {ARP, IPv4};
* actions: drop, ``output p``, ``IN_PORT``, ``FLOOD``, ``ALL``,
  ``CONTROLLER``, push VLAN (with its id set) then ``output p``, and
  pop VLAN then ``output p``;
* frames: every source host to every other host, to broadcast and to
  the link-local ``01:80:c2:00:00:0e`` (LLDP's nearest-bridge address),
  as an ARP request and as IPv4/UDP, untagged and tagged with VLAN 7
  (the host tagging its own frames on its access port).

The frames go in one at a time, each run to quiescence, so a reply a
host sends (an ARP answer) is part of the frame's outcome on both
sides.  Before each frame the legacy switch's forwarding database is
flushed and the hosts forget their ARP caches, so each frame is judged
alone.  The tagged frames go last, to the HARMLESS side only
(``tagged-at-access``).  ``OUT_OF_SCOPE`` is the claim's documented
boundary here.
"""

import itertools
import random

import pytest

from repro.controller.app import ControllerApp
from repro.core.verify import build_harmless_site, build_ideal_site
from repro.net.addresses import BROADCAST_MAC, IPv4Address, MACAddress
from repro.net.arp import ArpPacket
from repro.net.build import udp_frame
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, EthernetFrame
from repro.netsim.capture import Capture
from repro.openflow import (
    FlowStatsRequest,
    Match,
    OutputAction,
    PopVlanAction,
    PushVlanAction,
    SetFieldAction,
)
from repro.openflow import consts as c
from repro.softswitch.compiler import PLAN_EDIT

from differential import SCALE

HOSTS = 3
PORTS = tuple(range(1, HOSTS + 1))
#: The VLAN id a push-then-output pipeline sets.
PUSHED_VLAN = 7
#: The VLAN id a host tags its own frames with.
HOST_VLAN = 7
#: IEEE 802.1Q's nearest-bridge group address (LLDP's).
LINK_LOCAL = MACAddress(0x0180C200000E)
#: Simulated time one frame is given to settle: the HARMLESS detour and
#: an ARP answer's own trip take tens of microseconds.
SETTLE_S = 0.005

#: Where the two sides are known to differ, by name, with the reason.
#: All come from the legacy bridge that HARMLESS keeps in the path.  The
#: first two: it learns MACs in each access port's VLAN, whose only
#: other member is the trunk, and filters a frame whose destination it
#: learned on the port the frame arrived on (counted as a ``hairpin``
#: drop).  Making those VLANs non-learning would close both, but it
#: changes every migrated workload's ``sim_digest``; ROADMAP item 22
#: owns that.  The third is ROADMAP item 23.
OUT_OF_SCOPE = [
    ("self-addressed",
     "a unicast frame to its sender's own MAC: the bridge filters it at the "
     "access port, so SS_2 never sees it.  Left out of the alphabet."),
    ("learned-on-trunk",
     "a copy SS_2 sends out of access port q towards a host whose own frame SS_2 "
     "already sent out of q during the same exchange (a flood of its broadcast, say): "
     "the bridge learned that host on the trunk in q's VLAN and filters the copy.  A frame "
     "whose play on the HARMLESS side counted a hairpin drop is compared as a "
     "sub-list (HARMLESS delivers and escalates a subset of the native switch's "
     "frames, in the same order, and nothing else), and FILTERED pins how many "
     "such frames the scope holds."),
    ("tagged-at-access",
     "a frame the host tagged itself: the bridge's access port drops it "
     "(``ingress-filtered:vlan``, as 802.1Q has an access port do), so SS_2 never "
     "sees it, while a native switch hands it to the pipeline.  Carrying it would "
     "take a tunnelling (QinQ) access port, which changes the manager's config "
     "and so every migrated workload's ``sim_digest``.  Played on the HARMLESS "
     "side only, after the packet counter is read: it must deliver nothing, raise "
     "no packet-in and count exactly that drop."),
]
#: Frames of the scope whose HARMLESS play the bridge filtered in part,
#: per executor (72 of them untagged unicast and broadcast, 24 link-local).
FILTERED = 96
#: Two-entry pipelines per executor in tier-1, times DIFFERENTIAL_SCALE;
#: a scale of WHOLE_SCALE or more runs every one of them.
TWO_ENTRY_SAMPLE = 100
WHOLE_SCALE = 5


def macs_and_ips():
    """The hosts' addresses, as :func:`repro.core.verify.make_hosts` gives them."""
    return (
        [0x020000000001 + index for index in range(HOSTS)],
        [IPv4Address(f"10.0.0.{index + 1}") for index in range(HOSTS)],
    )


def frame_alphabet() -> "list[tuple[int, EthernetFrame]]":
    """(source port, frame) for every source host × {each other host,
    broadcast, link-local} × {ARP request, IPv4/UDP} × {untagged, tagged
    VLAN 7}, the untagged ones first ("self-addressed" is out of
    scope)."""
    macs, ips = macs_and_ips()
    frames = []
    for source in range(HOSTS):
        # (destination MAC, IP asked for): the group ones ask the next host.
        targets = [(macs[target], ips[target]) for target in range(HOSTS) if target != source]
        targets += [(group, ips[(source + 1) % HOSTS]) for group in (BROADCAST_MAC, LINK_LOCAL)]
        for dst, asked in targets:
            arp = ArpPacket.request(macs[source], ips[source], asked)
            frames.append((source + 1, EthernetFrame(
                dst=dst, src=macs[source], ethertype=ETHERTYPE_ARP, payload=arp.to_bytes()
            )))
            frames.append((source + 1, udp_frame(
                macs[source], dst, ips[source], asked, 4000 + source, 5000, b"scope"
            )))
    return frames + [(port, frame.push_vlan(HOST_VLAN)) for port, frame in frames]


def matches() -> "list[Match]":
    macs, _ = macs_and_ips()
    return [
        Match(),
        *(Match(in_port=port) for port in PORTS),
        *(Match(eth_dst=mac) for mac in [*macs, int(BROADCAST_MAC)]),
        Match(eth_type=ETHERTYPE_ARP),
        Match(eth_type=ETHERTYPE_IPV4),
    ]


def action_lists() -> "list[tuple]":
    reserved = (c.OFPP_IN_PORT, c.OFPP_FLOOD, c.OFPP_ALL, c.OFPP_CONTROLLER)
    return [
        (),
        *((OutputAction(port=port),) for port in PORTS),
        *((OutputAction(port=port),) for port in reserved),
        *(
            (PushVlanAction(), SetFieldAction.vlan_vid(PUSHED_VLAN), OutputAction(port=port))
            for port in PORTS
        ),
        *((PopVlanAction(), OutputAction(port=port)) for port in PORTS),
    ]


def pipelines() -> "list[tuple[Match, tuple]]":
    return list(itertools.product(matches(), action_lists()))


def two_entry_pipelines() -> "list[tuple[tuple, tuple]]":
    """Every ordered pair of two different single-entry pipelines: the
    first installed at priority 2, the second at priority 1.  Two
    entries at one priority are left out: OpenFlow leaves the order of
    overlapping equal-priority entries undefined."""
    return list(itertools.permutations(pipelines(), 2))


def two_entry_scope() -> "list[tuple[tuple, tuple]]":
    """What this run plays: all of :func:`two_entry_pipelines` at a
    scale of ``WHOLE_SCALE`` or more, else a seeded sample."""
    every = two_entry_pipelines()
    if SCALE >= WHOLE_SCALE:
        return every
    return random.Random(0x2E17).sample(every, TWO_ENTRY_SAMPLE * SCALE)


class Recorder(ControllerApp):
    """Installs nothing; records every packet-in and consumes it."""

    def __init__(self) -> None:
        super().__init__()
        self.packet_ins: list = []

    def on_packet_in(self, datapath, message) -> bool:
        self.packet_ins.append((message.in_port, message.reason, bytes(message.data)))
        return True


class Side:
    """One site, reused for every pipeline, its software switches all on
    one executor."""

    def __init__(self, kind: str, executor: str) -> None:
        self.kind = kind
        self.app = Recorder()
        if kind == "harmless":
            sim, hosts, deployment, controller = build_harmless_site(HOSTS, [self.app])
            self.switch = deployment.s4.ss2
            self.legacy = deployment.legacy_switch
            softswitches = (deployment.s4.ss1, deployment.s4.ss2)
        else:
            sim, hosts, self.switch, controller = build_ideal_site(HOSTS, [self.app])
            self.legacy = None
            softswitches = (self.switch,)
        for switch in softswitches:
            switch.specialize = executor == "compiled"
        self.sim, self.hosts = sim, hosts
        (self.datapath,) = controller.datapaths.values()
        self.capture = Capture(f"{kind}-hosts").attach(*(host.port0 for host in hosts))
        self.port_names = {host.port0.name: host.name for host in hosts}

    def settle(self) -> None:
        self.sim.run(until=self.sim.now + SETTLE_S)

    def install(self, *entries: "tuple[Match, tuple, int]") -> None:
        """Replace the pipeline by *entries*: (match, actions, priority)."""
        self.datapath.flow_delete(Match())
        for match, actions, priority in entries:
            self.datapath.flow_add(match, actions=list(actions), priority=priority)
        self.settle()
        assert len(self.switch.tables[0]) == len(entries), self.kind

    def play(self, port: int, frame: EthernetFrame) -> tuple:
        """What *frame*, sent by the host on *port*, leads to:
        (deliveries, packet-ins, the bridge's drops on the way by reason)."""
        drops = {}
        if self.legacy is not None:
            self.legacy.fdb.flush_dynamic()
            drops = dict(self.legacy.drops)
        for host in self.hosts:
            host.arp_table.clear()
        self.capture.clear()
        del self.app.packet_ins[:]
        self.hosts[port - 1].port0.send(frame)
        self.settle()
        deliveries = [
            (self.port_names[entry.port_name], entry.frame.to_bytes())
            for entry in self.capture
            if entry.direction == "rx"
        ]
        if self.legacy is not None:
            drops = {
                reason: count - drops.get(reason, 0)
                for reason, count in self.legacy.drops.items()
                if count != drops.get(reason, 0)
            }
        return deliveries, list(self.app.packet_ins), drops

    def packet_counts(self) -> "list[tuple[int, int]]":
        """(priority, packet count) of every entry, by priority."""
        replies = []
        self.datapath.send_with_reply(FlowStatsRequest(), replies.append)
        self.settle()
        (reply,) = replies
        return sorted((entry.priority, entry.packet_count) for entry in reply.entries)


EXECUTORS = ("compiled", "interpreted")


@pytest.fixture(scope="module", params=EXECUTORS)
def sides(request):
    return [Side("harmless", request.param), Side("ideal", request.param)]


def is_sublist(short: list, long: list) -> bool:
    """*short* is *long* with some items left out, order kept."""
    rest = iter(long)
    return all(any(item == other for other in rest) for item in short)


def test_the_scope_is_what_the_docstring_says():
    assert len(matches()) == 10 and len(action_lists()) == 14
    alphabet = frame_alphabet()
    assert len(pipelines()) == 140 and len(alphabet) == 48
    assert [name for name, _ in OUT_OF_SCOPE] == [
        "self-addressed", "learned-on-trunk", "tagged-at-access"
    ]
    assert all(frame.dst != frame.src for _, frame in alphabet)
    # Untagged first, then the same 24 frames tagged by their host.
    assert [frame.tags for _, frame in alphabet[:24]] == [()] * 24
    assert [frame.pop_vlan() for _, frame in alphabet[24:]] == [f for _, f in alphabet[:24]]
    assert {frame.vlan_id for _, frame in alphabet[24:]} == {HOST_VLAN}
    assert sum(frame.dst == LINK_LOCAL for _, frame in alphabet) == 12
    assert is_sublist([1, 3], [1, 2, 3]) and not is_sublist([3, 1], [1, 2, 3])


def describe(entries) -> str:
    return " over ".join(f"[{match}] {[str(a) for a in actions]}" for match, actions in entries)


def look_alike(sides, where: str) -> "tuple[list[str], int, list]":
    """Play the alphabet on both sides under the pipeline they hold:
    the mismatches, how many plays were ``learned-on-trunk`` and the
    ideal side's (priority, packet count) per entry."""
    harmless, ideal = sides
    mismatches, filtered = [], 0
    alphabet = frame_alphabet()
    untagged = [(port, frame) for port, frame in alphabet if not frame.tags]
    tagged = [(port, frame) for port, frame in alphabet if frame.tags]
    for port, frame in untagged:
        deliveries, packet_ins, drops = harmless.play(port, frame)
        seen = ideal.play(port, frame)
        if drops.get("hairpin"):  # "learned-on-trunk"
            filtered += 1
            alike = is_sublist(deliveries, seen[0]) and is_sublist(packet_ins, seen[1])
        else:
            alike = (deliveries, packet_ins) == seen[:2]
        if not alike or set(drops) - {"hairpin"}:
            mismatches.append(
                f"{where} h{port} sends {frame}:\n"
                f"  harmless {(deliveries, packet_ins, drops)}\n  ideal    {seen}"
            )
    counts = [side.packet_counts() for side in sides]
    if counts[0] != counts[1]:
        mismatches.append(f"{where}: packet counts {counts}")
    for port, frame in tagged:  # "tagged-at-access"
        outcome = harmless.play(port, frame)
        if outcome != ([], [], {"ingress-filtered:vlan": 1}):
            mismatches.append(f"{where} h{port} sends {frame}: harmless {outcome}")
    return mismatches, filtered, counts[1]


def executor_of(sides) -> str:
    return "compiled" if sides[1].switch.specialize else "interpreted"


def check_executor(sides, executor: str) -> None:
    if executor == "compiled":
        # Every frame was served compiled on both sides.
        for side in sides:
            assert side.switch.specialized_frames > 0
            assert side.switch.fallback_frames == 0
    else:
        # Not one frame reached a compiled program on either side.
        for side in sides:
            assert side.switch.specialized_frames == 0 and side.switch.program is None


def test_every_single_entry_pipeline_looks_alike(sides):
    executor = executor_of(sides)
    mismatches, edit_pipelines, filtered = [], 0, 0
    for match, actions in pipelines():
        for side in sides:
            side.install((match, actions, 10))
        found, played_filtered, counts = look_alike(
            sides, f"{executor} {describe([(match, actions)])}"
        )
        mismatches += found
        filtered += played_filtered
        if executor == "compiled" and len(actions) > 1 and counts[0][1]:
            # A push or pop then an output is a one-edit plan on both sides.
            for side in sides:
                plans = side.switch.program.plans.values()
                assert [plan[0] for plan in plans] == [PLAN_EDIT], side.kind
            edit_pipelines += 1
    assert not mismatches, f"{len(mismatches)} mismatches:\n" + "\n".join(mismatches[:5])
    assert filtered == FILTERED
    check_executor(sides, executor)
    if executor == "compiled":
        # Every pipeline of an edit and an output (6 action lists x 10
        # matches) ran the one-edit plan on both sides.
        assert edit_pipelines == 6 * 10


def test_every_two_entry_pipeline_looks_alike(sides):
    executor = executor_of(sides)
    scope = two_entry_scope()
    assert len(two_entry_pipelines()) == 140 * 139
    assert len(scope) == (140 * 139 if SCALE >= WHOLE_SCALE else TWO_ENTRY_SAMPLE * SCALE)
    mismatches = []
    for high, low in scope:
        for side in sides:
            side.install((*high, 2), (*low, 1))
        mismatches += look_alike(sides, f"{executor} {describe([high, low])}")[0]
    assert not mismatches, f"{len(mismatches)} mismatches:\n" + "\n".join(mismatches[:5])
    check_executor(sides, executor)
