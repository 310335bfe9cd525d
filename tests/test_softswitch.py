"""Tests for the software OpenFlow datapath."""

import struct

import pytest

from repro.net import EthernetFrame, IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.openflow import (
    ApplyActions,
    Bucket,
    ErrorMsg,
    FlowMod,
    FlowStatsRequest,
    GotoTable,
    GroupAction,
    GroupMod,
    Hello,
    Match,
    OFPP_CONTROLLER,
    OFPP_FLOOD,
    OutputAction,
    PacketOut,
    PopVlanAction,
    PortStatsRequest,
    PushVlanAction,
    SetFieldAction,
    parse_message,
)
from repro.openflow import consts as c
from repro.openflow.messages import EchoRequest, FeaturesRequest, PacketIn
from repro.softswitch import DatapathCostModel

from differential import HookedCostModel, build_rig, install

MAC_A = MACAddress("02:00:00:00:00:01")
MAC_B = MACAddress("02:00:00:00:00:02")
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")


def frame_ab(vlan_id=None, payload=b"x" * 64):
    return udp_frame(MAC_A, MAC_B, IP_A, IP_B, 1000, 2000, payload, vlan_id=vlan_id)


class TestHandshake:
    def test_hello_and_features(self):
        _, switch, _, _ = build_rig()
        (hello_reply,) = switch.handle_message(Hello(xid=1).to_bytes())
        assert isinstance(parse_message(hello_reply), Hello)
        (features,) = switch.handle_message(FeaturesRequest(xid=2).to_bytes())
        parsed = parse_message(features)
        assert parsed.datapath_id == 0x1
        assert parsed.n_tables == 4

    def test_echo(self):
        _, switch, _, _ = build_rig()
        (reply,) = switch.handle_message(EchoRequest(xid=3, payload=b"hi").to_bytes())
        assert parse_message(reply).payload == b"hi"


class TestMatching:
    def test_output_action(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert len(sinks[1].received) == 1
        assert sinks[0].received == []

    def test_table_miss_drops(self):
        sim, switch, sinks, _ = build_rig()
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert all(sink.received == [] for sink in sinks)
        assert switch.packets_dropped == 1

    def test_priority_order(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(),
            priority=1,
            instructions=[ApplyActions(actions=(OutputAction(port=1),))],
        )
        install(
            switch,
            match=Match(eth_type=0x0800),
            priority=100,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=3)
        sim.run()
        assert len(sinks[1].received) == 1
        assert sinks[0].received == []

    def test_flood(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(OutputAction(port=OFPP_FLOOD),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert sinks[0].received == []  # not reflected
        assert len(sinks[1].received) == 1
        assert len(sinks[2].received) == 1

    def test_output_to_unknown_port_drops(self):
        sim, switch, _, _ = build_rig()
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(OutputAction(port=99),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert switch.packets_dropped == 1


class TestVlanActions:
    def test_push_set_output(self):
        """The translator's patch->trunk rule shape."""
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            instructions=[
                ApplyActions(
                    actions=(
                        PushVlanAction(),
                        SetFieldAction.vlan_vid(102),
                        OutputAction(port=2),
                    )
                )
            ],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert sinks[1].frames[0].vlan_id == 102

    def test_pop_output(self):
        """The translator's trunk->patch rule shape."""
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match.vlan(101),
            instructions=[
                ApplyActions(actions=(PopVlanAction(), OutputAction(port=3)))
            ],
        )
        switch.inject(frame_ab(vlan_id=101), in_port=1)
        sim.run()
        assert sinks[2].frames[0].vlan is None

    def test_vlan_match_isolation(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match.vlan(101),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(vlan_id=102), in_port=1)
        sim.run()
        assert sinks[1].received == []
        assert switch.packets_dropped == 1


class TestSetFieldLeavesTheTemplateAlone:
    """A per-flow template is shared by every frame of a burst: a
    rewrite builds a new frame and never assigns into the one it got."""

    @pytest.mark.parametrize(
        "action, changed",
        [
            (SetFieldAction(field="eth_dst", value=0x02_00_00_00_00_99), "dst"),
            (SetFieldAction(field="eth_src", value=0x02_00_00_00_00_98), "src"),
            (SetFieldAction(field="ipv4_dst", value=int(IPv4Address("10.9.9.9"))), "payload"),
            (SetFieldAction(field="ipv4_src", value=int(IPv4Address("10.8.8.8"))), "payload"),
            (SetFieldAction.vlan_vid(300), "tags"),
        ],
    )
    def test_apply_returns_a_new_frame(self, action, changed):
        template = frame_ab(vlan_id=101)
        before = template.to_bytes()
        rewritten = action.apply(template)
        assert rewritten is not template
        assert template.to_bytes() == before
        assert getattr(rewritten, changed) != getattr(template, changed)
        assert EthernetFrame.from_bytes(rewritten.to_bytes()) == rewritten

    def test_template_survives_a_burst_through_a_rewriting_pipeline(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            instructions=[
                ApplyActions(
                    actions=(
                        SetFieldAction(field="eth_dst", value=0x02_00_00_00_00_99),
                        SetFieldAction(field="ipv4_dst", value=int(IPv4Address("10.9.9.9"))),
                        OutputAction(port=2),
                    )
                )
            ],
        )
        template = frame_ab()
        before = template.to_bytes()
        switch.process_batch(1, [template] * 4)
        sim.run()
        assert template.to_bytes() == before
        assert len(sinks[1].received) == 4
        for received in sinks[1].frames:
            assert received.dst == MACAddress(0x02_00_00_00_00_99)
            assert received.src == template.src


class TestMultiTable:
    def test_goto_table(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            table_id=0,
            match=Match(in_port=1),
            instructions=[GotoTable(table_id=1)],
        )
        install(
            switch,
            table_id=1,
            match=Match(eth_type=0x0800),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert len(sinks[1].received) == 1

    def test_miss_in_second_table_drops(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            table_id=0,
            match=Match(),
            instructions=[GotoTable(table_id=2)],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert switch.packets_dropped == 1

    def test_write_actions_execute_at_end(self):
        from repro.openflow import WriteActions

        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            table_id=0,
            match=Match(),
            instructions=[
                WriteActions(actions=(OutputAction(port=2),)),
                GotoTable(table_id=1),
            ],
        )
        install(
            switch,
            table_id=1,
            match=Match(),
            instructions=[],  # no goto: pipeline ends, action set runs
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert len(sinks[1].received) == 1

    def test_clear_actions_empties_set(self):
        from repro.openflow import ClearActions, WriteActions

        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            table_id=0,
            match=Match(),
            instructions=[
                WriteActions(actions=(OutputAction(port=2),)),
                GotoTable(table_id=1),
            ],
        )
        install(
            switch,
            table_id=1,
            match=Match(),
            instructions=[ClearActions()],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert sinks[1].received == []


class TestGroups:
    def add_select_group(self, switch, group_id=1, ports=(1, 2), weights=None):
        weights = weights or [1] * len(ports)
        buckets = [
            Bucket(actions=[OutputAction(port=port)], weight=weight)
            for port, weight in zip(ports, weights)
        ]
        responses = switch.handle_message(
            GroupMod(
                command=c.OFPGC_ADD,
                group_type=c.OFPGT_SELECT,
                group_id=group_id,
                buckets=buckets,
            ).to_bytes()
        )
        assert responses == []

    def test_select_group_deterministic_per_flow(self):
        sim, switch, sinks, _ = build_rig()
        self.add_select_group(switch, ports=(2, 3))
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(GroupAction(group_id=1),))],
        )
        for _ in range(5):
            switch.inject(frame_ab(), in_port=1)
        sim.run()
        # Same flow key -> same bucket every time.
        counts = (len(sinks[1].received), len(sinks[2].received))
        assert sorted(counts) == [0, 5]

    def test_select_group_spreads_flows(self):
        sim, switch, sinks, _ = build_rig()
        self.add_select_group(switch, ports=(2, 3))
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(GroupAction(group_id=1),))],
        )
        for index in range(64):
            frame = udp_frame(
                MAC_A, MAC_B, IPv4Address(int(IP_A) + index), IP_B, 1000, 2000, b"y"
            )
            switch.inject(frame, in_port=1)
        sim.run()
        assert len(sinks[1].received) > 5
        assert len(sinks[2].received) > 5

    def test_all_group_copies(self):
        sim, switch, sinks, _ = build_rig()
        buckets = [
            Bucket(actions=[OutputAction(port=2)]),
            Bucket(actions=[OutputAction(port=3)]),
        ]
        switch.handle_message(
            GroupMod(
                command=c.OFPGC_ADD,
                group_type=c.OFPGT_ALL,
                group_id=9,
                buckets=buckets,
            ).to_bytes()
        )
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(GroupAction(group_id=9),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert len(sinks[1].received) == 1
        assert len(sinks[2].received) == 1

    def test_missing_group_drops(self):
        sim, switch, _, _ = build_rig()
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(GroupAction(group_id=404),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert switch.packets_dropped == 1

    def test_duplicate_group_add_errors(self):
        _, switch, _, _ = build_rig()
        self.add_select_group(switch, group_id=5)
        message = GroupMod(
            command=c.OFPGC_ADD, group_type=c.OFPGT_SELECT, group_id=5, buckets=[]
        )
        responses = switch.handle_message(message.to_bytes())
        assert len(responses) == 1


class TestControllerInteraction:
    def test_packet_in_on_output_to_controller(self):
        sim, switch, _, _ = build_rig()
        inbox = []
        switch.to_controller = inbox.append
        install(
            switch,
            match=Match(),
            instructions=[
                ApplyActions(actions=(OutputAction(port=OFPP_CONTROLLER),))
            ],
        )
        original = frame_ab()
        switch.inject(original, in_port=2)
        sim.run()
        assert len(inbox) == 1
        packet_in = parse_message(inbox[0])
        assert isinstance(packet_in, PacketIn)
        assert packet_in.in_port == 2
        assert EthernetFrame.from_bytes(packet_in.data) == original

    def test_packet_out_executes_actions(self):
        sim, switch, sinks, _ = build_rig()
        message = PacketOut(
            actions=[OutputAction(port=3)], data=frame_ab().to_bytes()
        )
        switch.handle_message(message.to_bytes())
        sim.run()
        assert len(sinks[2].received) == 1

    def test_flow_stats(self):
        sim, switch, _, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            priority=7,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        (reply_raw,) = switch.handle_message(FlowStatsRequest(xid=5).to_bytes())
        reply = parse_message(reply_raw)
        assert len(reply.entries) == 1
        assert reply.entries[0].packet_count == 1
        assert reply.entries[0].priority == 7

    def test_port_stats(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        (reply_raw,) = switch.handle_message(PortStatsRequest(xid=6).to_bytes())
        reply = parse_message(reply_raw)
        by_port = {entry.port_no: entry for entry in reply.entries}
        assert by_port[2].tx_packets == 1


class TestFlowLifecycle:
    def test_delete_flows(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.handle_message(
            FlowMod(command=c.OFPFC_DELETE, match=Match()).to_bytes()
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert sinks[1].received == []

    def test_strict_delete_needs_exact_match(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            priority=10,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.handle_message(
            FlowMod(
                command=c.OFPFC_DELETE_STRICT, match=Match(in_port=1), priority=11
            ).to_bytes()
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert len(sinks[1].received) == 1  # priority mismatch -> survived

    def test_modify_rewrites_instructions(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.handle_message(
            FlowMod(
                command=c.OFPFC_MODIFY,
                match=Match(in_port=1),
                instructions=[ApplyActions(actions=(OutputAction(port=3),))],
            ).to_bytes()
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert sinks[1].received == []
        assert len(sinks[2].received) == 1

    def test_idle_timeout_expires(self):
        sim, switch, sinks, _ = build_rig()
        install(
            switch,
            match=Match(in_port=1),
            idle_timeout=2,
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run(until=0.1)
        assert len(sinks[1].received) == 1
        sim.schedule(5.0, lambda: switch.inject(frame_ab(), in_port=1))
        sim.run(until=6.0)
        assert len(sinks[1].received) == 1  # flow aged out, second inject dropped

    def test_flow_removed_notification(self):
        sim, switch, _, _ = build_rig()
        inbox = []
        switch.to_controller = inbox.append
        install(
            switch,
            match=Match(in_port=1),
            hard_timeout=1,
            flags=1,  # OFPFF_SEND_FLOW_REM
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        sim.run(until=3.0)
        removed = [
            parse_message(raw)
            for raw in inbox
            if parse_message(raw).msg_type == c.OFPT_FLOW_REMOVED
        ]
        assert len(removed) == 1
        assert removed[0].reason == c.OFPRR_HARD_TIMEOUT

    def test_add_to_bad_table_errors(self):
        _, switch, _, _ = build_rig()
        responses = switch.handle_message(FlowMod(table_id=99).to_bytes())
        assert len(responses) == 1

    def test_identical_match_priority_replaces(self):
        sim, switch, sinks, _ = build_rig()
        for port in (2, 3):
            install(
                switch,
                match=Match(in_port=1),
                priority=5,
                instructions=[ApplyActions(actions=(OutputAction(port=port),))],
            )
        assert len(switch.tables[0]) == 1
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        assert len(sinks[2].received) == 1


#: How each executor is selected: the reference interpreter (a linear
#: scan of each table), the same interpreter on the fallback route of a
#: switch whose pipeline the compiler rejects, and, by default, the
#: compiled program.
TIERS = {
    "linear": {"enable_specialization": False},
    "fallback": {"cost_model": HookedCostModel.zero()},
    "compiled": {},
}


class TestFlowModSelection:
    """MODIFY acts on the entries DELETE would (OpenFlow 1.3 §6.4): a
    non-strict request on every entry its match covers, a strict one on
    the exact (match, priority), and a non-zero cookie mask keeps only
    the entries whose cookie agrees under it."""

    #: (match, priority, cookie), each installed to output on port 2.
    RULES = (
        (Match(in_port=1), 5, 0x10),
        (Match(in_port=1, eth_type=0x0800), 7, 0x21),  # covered by in_port=1
        (Match(in_port=2), 5, 0x10),
        (Match(in_port=3), 5, 0x10),
        (Match(in_port=3), 6, 0x20),
    )

    @staticmethod
    def modify(switch, command, match, priority=0, **cookie):
        install(switch, command=command, match=match, priority=priority,
                instructions=[ApplyActions(actions=(OutputAction(port=3),))], **cookie)

    @pytest.mark.parametrize("tier", TIERS)
    def test_modify_selects_like_delete(self, tier):
        sim, switch, sinks, _ = build_rig(**TIERS[tier])
        for match, priority, cookie in self.RULES:
            install(switch, match=match, priority=priority, cookie=cookie,
                    instructions=[ApplyActions(actions=(OutputAction(port=2),))])
        switch.inject(frame_ab(), in_port=1)  # compiled tier: a program is live
        # A wildcard MODIFY rewrites the more specific entry as well...
        self.modify(switch, c.OFPFC_MODIFY, Match(in_port=1))
        # ...and a cookie-masked one only the entries whose cookie agrees.
        self.modify(switch, c.OFPFC_MODIFY, Match(in_port=3), cookie=0x10, cookie_mask=0xF0)
        self.modify(switch, c.OFPFC_MODIFY_STRICT, Match(in_port=2), priority=5,
                    cookie=0x20, cookie_mask=0xF0)
        ports = [
            next(
                entry for entry in switch.tables[0]
                if entry.match == match and entry.priority == priority
            ).instructions[0].actions[0].port
            for match, priority, _ in self.RULES
        ]
        assert ports == [3, 3, 2, 3, 2]
        for in_port in (1, 2, 3):  # every tier forwards by the new tables
            switch.inject(frame_ab(), in_port=in_port)
        sim.run()
        assert [len(sink.received) for sink in sinks] == [0, 3, 1]


class TestHostileControllerBytes:
    """Controller bytes never raise out of the simulation: a message
    that does not parse, and a packet-out whose data is no Ethernet
    frame, come back as an OFPET_BAD_REQUEST error carrying the first
    64 bytes, and the run goes on."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_truncated_and_undecodable_messages_are_refused(self, tier):
        from repro.controller.channel import ControllerChannel

        sim, switch, sinks, _ = build_rig(**TIERS[tier])
        channel = ControllerChannel(sim, switch)
        replies = []
        channel.to_controller_handler = replies.append
        truncated = struct.pack("!BBHI", c.OFP_VERSION, c.OFPT_FLOW_MOD, 8, 41)
        runt = PacketOut(xid=42, data=b"\x02" * 6,
                         actions=[OutputAction(port=2)]).to_bytes()
        for raw in (truncated, runt, Hello(xid=43).to_bytes()):
            channel.send_to_switch(raw)
        alive = []
        sim.schedule(1.0, alive.append, "still running")
        sim.run()
        assert alive == ["still running"]
        errors = [parse_message(raw) for raw in replies]
        assert [(type(m).__name__, m.xid) for m in errors] == [
            ("ErrorMsg", 41), ("ErrorMsg", 42), ("Hello", 43)
        ]
        # OFPBRC_BAD_LEN, then OFPBRC_BAD_PACKET; nothing was emitted.
        assert [(m.error_type, m.code, m.data) for m in errors[:2]] == [
            (1, 6, truncated), (1, 12, runt[:64])
        ]
        assert switch.packets_forwarded == 0 and not sinks[1].received


class TestGotoTableValidation:
    """A goto that does not increase, or leaves the pipeline, is refused
    on the wire — it can never reach the packet path."""

    def _chain(self, switch):
        """in_port 1 walks tables 0 -> 1 -> 2 -> 3 -> port 2."""
        install(switch, match=Match(in_port=1), instructions=[GotoTable(table_id=1)])
        for table_id in (1, 2):
            install(
                switch,
                table_id=table_id,
                match=Match(),
                instructions=[GotoTable(table_id=table_id + 1)],
            )
        install(
            switch,
            table_id=3,
            match=Match(),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize(
        "command", [c.OFPFC_ADD, c.OFPFC_MODIFY], ids=["add", "modify"]
    )
    @pytest.mark.parametrize(
        "table_id, target",
        [(1, 1), (2, 1), (0, 0), (0, 4), (3, 200)],
        ids=["self", "backwards", "self-table0", "one-past-last", "far-past-last"],
    )
    def test_bad_goto_is_refused_and_traffic_flows(
        self, tier, command, table_id, target
    ):
        sim, switch, sinks, _ = build_rig(**TIERS[tier])
        self._chain(switch)
        switch.inject(frame_ab(), in_port=1)
        assert (switch.program is not None) == (tier == "compiled")
        pipeline = switch.dump_pipeline()
        program = switch.program
        mutations = (switch.program_invalidations, switch.program_patches)
        attempts = (switch.program_compiles, switch.program_compile_failures)

        bad = FlowMod(
            xid=77,
            command=command,
            table_id=table_id,
            match=Match(in_port=1) if table_id == 0 else Match(),
            instructions=[
                ApplyActions(actions=(OutputAction(port=3),)),
                GotoTable(table_id=target),
            ],
        )
        (raw,) = switch.handle_message(bad.to_bytes())
        error = parse_message(raw)
        assert isinstance(error, ErrorMsg)
        # OFPET_BAD_INSTRUCTION / OFPBIC_BAD_TABLE_ID
        assert (error.xid, error.error_type, error.code) == (77, 3, 2)
        assert switch.dump_pipeline() == pipeline  # nothing installed
        assert switch.program is program
        assert (switch.program_invalidations, switch.program_patches) == mutations

        port = switch.port(1)
        switch.inject(frame_ab(), in_port=1)
        switch.receive(port, frame_ab())
        switch.receive_burst(port, [frame_ab(), frame_ab()], [sim.now, sim.now])
        sim.run()
        assert len(sinks[1].received) == 5
        assert not sinks[2].received
        # The refused FlowMod left nothing to recompile (or to reject).
        assert (switch.program_compiles, switch.program_compile_failures) == attempts

    def test_increasing_goto_inside_the_pipeline_is_accepted(self):
        _, switch, _, _ = build_rig()
        install(switch, table_id=2, match=Match(), instructions=[GotoTable(table_id=3)])
        assert len(switch.tables[2]) == 1


class TestDropReasons:
    """Every place a frame (or one output of a frame) dies in the
    softswitch says why in ``switch.drops``, identically on the linear
    interpreter, on its fallback route and on the compiled program, one
    frame at a time and as a burst; ``packets_dropped`` stays the sum of the
    reasons it always summed."""

    #: in_port -> (what the rule for that port does, the reason one
    #: frame on it is counted under).  Port 1 forwards.
    SITES = {
        2: ("output to a missing port", "no-such-port"),
        3: ("push + set-field, then a missing port", "no-such-port"),
        4: ("goto table 1, which outputs to a missing port", "no-such-port"),
        5: ("indirect group whose bucket outputs to a missing port", "no-such-port"),
        6: ("all group with one bucket on a missing port", "no-such-port"),
        7: ("a group that does not exist", "no-such-group"),
        8: ("select group without buckets", "empty-group"),
        10: ("goto table 1, nothing there for it", "table-miss"),
        11: ("nothing in table 0", "table-miss"),
        12: ("matched, no instructions", "action-drop"),
        13: ("matched, transforms only", "action-drop"),
        14: ("goto table 1, matched there with no instructions", "action-drop"),
        15: ("all group with no buckets", "action-drop"),
    }

    def provision(self, switch):
        def group(group_id, group_type, *ports):
            buckets = [Bucket(actions=[OutputAction(port=port)]) for port in ports]
            message = GroupMod(command=c.OFPGC_ADD, group_type=group_type,
                               group_id=group_id, buckets=buckets)
            assert switch.handle_message(message.to_bytes()) == []

        def apply(*actions):
            return [ApplyActions(actions=actions)]

        group(1, c.OFPGT_INDIRECT, 99)
        group(2, c.OFPGT_ALL, 99)
        group(3, c.OFPGT_SELECT)
        group(5, c.OFPGT_ALL)
        rules = {
            1: apply(OutputAction(port=2)),
            2: apply(OutputAction(port=99)),
            3: apply(PushVlanAction(), SetFieldAction.vlan_vid(7), OutputAction(port=99)),
            4: [GotoTable(table_id=1)],
            5: apply(GroupAction(group_id=1)),
            6: apply(GroupAction(group_id=2)),
            7: apply(GroupAction(group_id=77)),
            8: apply(GroupAction(group_id=3)),
            10: [GotoTable(table_id=1)],
            12: [],
            13: apply(PushVlanAction(), SetFieldAction.vlan_vid(7)),
            14: [GotoTable(table_id=1)],
            15: apply(GroupAction(group_id=5)),
        }
        for in_port, instructions in rules.items():
            install(switch, match=Match(in_port=in_port), priority=5,
                    instructions=instructions)
        install(switch, table_id=1, match=Match(in_port=4),
                instructions=apply(OutputAction(port=99)))
        install(switch, table_id=1, match=Match(in_port=14), instructions=[])

    @pytest.mark.parametrize("burst", [False, True], ids=["single", "burst"])
    @pytest.mark.parametrize("tier", TIERS)
    def test_every_site_names_its_reason(self, tier, burst):
        sim, switch, sinks, _ = build_rig(**TIERS[tier])
        self.provision(switch)
        expected = {}
        for in_port, (what, reason) in self.SITES.items():
            frames = [frame_ab(payload=bytes([n]) * 32) for n in range(3 if burst else 1)]
            if burst:
                switch.process_batch(in_port, frames)
                switch.process_batch(1, [frame_ab(), frame_ab()])  # forwarded
            else:
                switch.inject(frames[0], in_port)
                switch.inject(frame_ab(), 1)  # forwarded
            expected[reason] = expected.get(reason, 0) + len(frames)
            assert dict(switch.drops) == expected, what
        sim.run()
        assert switch.packets_dropped == sum(
            expected[reason]
            for reason in ("table-miss", "no-such-port", "no-such-group", "empty-group")
        )
        assert switch.packets_forwarded == len(sinks[1].received) > 0
        if tier == "compiled":  # every site compiled
            assert switch.fallback_frames == 0
            assert switch.specialized_frames > len(self.SITES)
        if tier == "fallback":  # every frame interpreted, each one counted
            assert switch.specialized_frames == 0
            assert switch.fallback_frames == len(self.SITES) * (5 if burst else 2)

    @pytest.mark.parametrize("tier", TIERS)
    def test_every_packet_in_reaches_the_channel(self, tier):
        from repro.controller.channel import ControllerChannel

        sim, switch, _, _ = build_rig(**TIERS[tier])
        install(switch, match=Match(), priority=0,
                instructions=[ApplyActions(actions=(OutputAction(port=OFPP_CONTROLLER),))])
        channel = ControllerChannel(sim, switch)
        for in_port in (1, 2, 3, 3):  # a repeat on port 3 is a packet-in too
            switch.inject(frame_ab(), in_port)
        assert switch.packets_to_controller == channel.messages_to_controller == 4
        assert dict(switch.drops) == {} and dict(channel.drops) == {}
        assert switch.packets_dropped == 0

    @pytest.mark.parametrize("cost", ["zero", "deferred"])
    @pytest.mark.parametrize("tier", TIERS)
    def test_a_packet_in_with_no_controller_is_counted_lost(self, tier, cost):
        tier_kwargs = dict(TIERS[tier])
        kind = type(tier_kwargs.pop("cost_model", DatapathCostModel()))
        model = kind() if cost == "deferred" else kind.zero()
        sim, switch, sinks, _ = build_rig(cost_model=model, **tier_kwargs)
        install(switch, match=Match(in_port=1), priority=0, instructions=[ApplyActions(
            actions=(OutputAction(port=OFPP_CONTROLLER), OutputAction(port=2)))])
        assert switch.to_controller is None
        for _ in range(3):
            switch.inject(frame_ab(), 1)
        sim.run()
        assert switch.packets_to_controller == 3
        assert dict(switch.drops) == {"to-controller:unattached": 3}
        assert len(sinks[1].received) == switch.packets_forwarded == 3
        assert switch.packets_dropped == 0


class TestCostModel:
    def test_processing_delay_applied(self):
        model = DatapathCostModel(
            base_ns=1000.0, lookup_ns=0, action_ns=0, vlan_op_ns=0, group_ns=0, patch_ns=0
        )
        sim, switch, sinks, _ = build_rig(cost_model=model)
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        (arrival, _) = sinks[1].received[0]
        assert arrival == pytest.approx(1e-6)

    def test_busy_core_serialises(self):
        model = DatapathCostModel(
            base_ns=1000.0, lookup_ns=0, action_ns=0, vlan_op_ns=0, group_ns=0, patch_ns=0
        )
        sim, switch, sinks, _ = build_rig(cost_model=model)
        install(
            switch,
            match=Match(),
            instructions=[ApplyActions(actions=(OutputAction(port=2),))],
        )
        switch.inject(frame_ab(), in_port=1)
        switch.inject(frame_ab(), in_port=1)
        sim.run()
        arrivals = [t for t, _ in sinks[1].received]
        assert arrivals[0] == pytest.approx(1e-6)
        assert arrivals[1] == pytest.approx(2e-6)

    @pytest.mark.parametrize("burst", [False, True], ids=["single", "burst"])
    def test_a_cost_hook_charges_every_frame(self, burst):
        """A subclassed model's ``cost_s`` is a per-packet hook: the
        compiler leaves such a switch interpreted, and every frame is
        charged by the hook, serialised on the one core."""
        calls = []

        class CountingModel(HookedCostModel):
            def cost_s(self, *args, **kwargs):
                calls.append(kwargs)
                return 1e-6 * len(calls)

        sim, switch, sinks, _ = build_rig(cost_model=CountingModel())
        install(switch, match=Match(), instructions=[ApplyActions(actions=(OutputAction(port=2),))])
        frames = [frame_ab(payload=bytes([n]) * 32) for n in range(3)]
        if burst:
            switch.process_batch(1, frames)
        else:
            for frame in frames:
                switch.inject(frame, in_port=1)
        sim.run()
        assert switch.program is None and switch.fallback_frames == 3
        assert [call["lookups"] for call in calls] == [1, 1, 1]
        arrivals = [t for t, _ in sinks[1].received]
        assert arrivals == pytest.approx([1e-6, 3e-6, 6e-6])

    def test_peak_pps(self):
        from repro.softswitch import ESWITCH_COST_MODEL

        pps = ESWITCH_COST_MODEL.peak_pps(lookups=1, actions=1)
        assert 10e6 < pps < 20e6  # ESwitch-calibrated ballpark
