"""Tests for the controller framework and the learning-switch app."""

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.net import IPv4Address, MACAddress
from repro.netsim import Host, Link, Simulator
from repro.openflow import FlowStatsRequest, Match, OutputAction
from repro.openflow.messages import FlowStatsReply
from repro.softswitch import DatapathCostModel, SoftSwitch

ZERO_COST = DatapathCostModel.zero()


def build(num_hosts=3, latency_s=10e-6):
    sim = Simulator()
    switch = SoftSwitch(sim, "of1", datapath_id=0xABCD, cost_model=ZERO_COST)
    hosts = []
    for index in range(num_hosts):
        host = Host(
            sim,
            f"h{index + 1}",
            MACAddress(0x020000000001 + index),
            IPv4Address(f"10.0.0.{index + 1}"),
        )
        Link(host.port0, switch.add_port(index + 1))
        hosts.append(host)
    controller = Controller(sim)
    return sim, switch, hosts, controller, latency_s


class TestHandshake:
    def test_datapath_becomes_ready(self):
        sim, switch, _, controller, latency = build()
        datapath = controller.connect(switch, latency_s=latency)
        sim.run(until=0.01)
        assert datapath.ready
        assert datapath.dpid == 0xABCD
        assert controller.datapaths[0xABCD] is datapath
        assert datapath.n_tables == 4

    def test_apps_notified_on_ready(self):
        sim, switch, _, controller, latency = build()
        app = LearningSwitchApp()
        controller.add_app(app)
        controller.connect(switch, latency_s=latency)
        sim.run(until=0.01)
        # Table-miss flow installed by the app.
        assert len(switch.tables[0]) == 1

    def test_app_added_after_connect_still_notified(self):
        sim, switch, _, controller, latency = build()
        controller.connect(switch, latency_s=latency)
        sim.run(until=0.01)
        controller.add_app(LearningSwitchApp())
        sim.run(until=0.02)
        assert len(switch.tables[0]) == 1


class TestLearningSwitch:
    def test_ping_works_and_flows_installed(self):
        sim, switch, (h1, h2, h3), controller, latency = build()
        app = LearningSwitchApp()
        controller.add_app(app)
        controller.connect(switch, latency_s=latency)
        sim.run(until=0.01)

        h1.ping(h2.ip)
        sim.run(until=0.5)
        assert len(h1.rtts()) == 1
        assert app.flows_installed >= 2  # one per direction

    def test_second_ping_stays_in_dataplane(self):
        sim, switch, (h1, h2, _), controller, latency = build()
        app = LearningSwitchApp()
        controller.add_app(app)
        controller.connect(switch, latency_s=latency)
        sim.run(until=0.01)
        h1.ping(h2.ip)
        sim.run(until=0.5)
        packet_ins_before = app.packet_ins_handled
        h1.ping(h2.ip)
        sim.run(until=1.0)
        assert len(h1.rtts()) == 2
        # Echo req/reply now match installed flows; no new packet-ins.
        assert app.packet_ins_handled == packet_ins_before

    def test_reactive_latency_includes_controller(self):
        """First packet pays the controller RTT; later ones don't."""
        sim, switch, (h1, h2, _), controller, _ = build()
        controller.add_app(LearningSwitchApp())
        controller.connect(switch, latency_s=500e-6)
        sim.run(until=0.01)
        h1.ping(h2.ip)
        sim.run(until=0.5)
        h1.ping(h2.ip)
        sim.run(until=1.0)
        first, second = h1.rtts()
        assert first > second
        assert first >= 1e-3  # at least one control RTT in there

    def test_flows_learned_per_datapath(self):
        sim, switch, (h1, h2, _), controller, latency = build()
        app = LearningSwitchApp()
        controller.add_app(app)
        controller.connect(switch, latency_s=latency)
        sim.run(until=0.01)
        h1.ping(h2.ip)
        sim.run(until=0.5)
        table = app.tables[0xABCD]
        assert table[h1.mac] == 1
        assert table[h2.mac] == 2


class TestRequestReply:
    def test_flow_stats_round_trip(self):
        sim, switch, (h1, h2, _), controller, latency = build()
        controller.add_app(LearningSwitchApp())
        datapath = controller.connect(switch, latency_s=latency)
        sim.run(until=0.01)
        h1.ping(h2.ip)
        sim.run(until=0.5)

        replies = []
        datapath.send_with_reply(FlowStatsRequest(), replies.append)
        sim.run(until=1.0)
        assert len(replies) == 1
        assert isinstance(replies[0], FlowStatsReply)
        assert len(replies[0].entries) >= 3  # table-miss + 2 learned flows

    def test_error_collected(self):
        from repro.openflow import FlowMod

        sim, switch, _, controller, latency = build()
        datapath = controller.connect(switch, latency_s=latency)
        sim.run(until=0.01)
        datapath.send(FlowMod(table_id=99, match=Match()))
        sim.run(until=0.1)
        assert len(controller.errors_received) == 1

    def test_channel_schedules_bound_methods_not_closures(self):
        from repro.openflow import ApplyActions, BarrierRequest, FlowMod
        from repro.openflow.messages import BarrierReply

        sim, switch, _, controller, latency = build()
        datapath = controller.connect(switch, latency_s=latency)
        sim.run(until=0.01)
        channel = datapath.channel
        queued = []
        schedule = sim.schedule

        def recording_schedule(delay, callback, *args):
            queued.append(callback)
            return schedule(delay, callback, *args)

        sim.schedule = recording_schedule
        replies = []
        datapath.send(FlowMod(
            match=Match(in_port=1),
            instructions=[ApplyActions([OutputAction(2)])],
        ))
        datapath.send_with_reply(BarrierRequest(), replies.append)
        sim.run(until=0.02)
        assert len(replies) == 1 and isinstance(replies[0], BarrierReply)
        assert len(switch.tables[0]) == 1
        assert len(queued) == 3  # FlowMod, barrier, barrier reply
        for callback in queued:
            assert callback.__self__ is channel
            assert "<locals>" not in callback.__qualname__


class TestChannelLossAtDelivery:
    """The channel checks that it is up when a message is sent and again
    when it would land: an outage covering the delivery instant loses
    the message in flight, one that clears before it loses nothing."""

    def connect(self):
        from repro.openflow import BarrierRequest

        sim, switch, _, controller, latency = build()
        datapath = controller.connect(switch, latency_s=latency)
        sim.run(until=0.01)
        replies = []

        def barrier():
            datapath.send_with_reply(BarrierRequest(), replies.append)

        return sim, switch, datapath.channel, latency, barrier, replies

    def test_request_in_flight_dies_with_the_channel(self):
        sim, switch, channel, latency, barrier, replies = self.connect()
        sent = channel.messages_to_switch
        barrier()
        sim.schedule(latency / 2, channel.set_down)
        sim.run(until=0.02)
        assert channel.messages_to_switch == sent + 1
        assert channel.dropped_to_switch == 1
        assert channel.dropped_to_controller == 0
        assert replies == []

    def test_reply_in_flight_dies_with_the_channel(self):
        sim, switch, channel, latency, barrier, replies = self.connect()
        answered = channel.messages_to_controller
        barrier()
        sim.schedule(latency * 1.5, channel.set_down)
        sim.run(until=0.02)
        assert channel.messages_to_controller == answered + 1
        assert channel.dropped_to_switch == 0
        assert channel.dropped_to_controller == 1
        assert replies == []

    def test_outage_cleared_before_delivery_loses_nothing(self):
        sim, switch, channel, latency, barrier, replies = self.connect()
        barrier()
        sim.schedule(latency / 4, channel.set_down)
        sim.schedule(latency / 2, channel.set_up)
        sim.run(until=0.02)
        assert len(replies) == 1
        assert (channel.dropped_to_switch, channel.dropped_to_controller) == (0, 0)

    def test_send_while_down_schedules_nothing(self):
        sim, switch, channel, latency, barrier, replies = self.connect()
        sent = channel.messages_to_switch
        pending = sim.pending_events
        channel.set_down()
        barrier()
        assert sim.pending_events == pending
        assert channel.messages_to_switch == sent
        assert channel.dropped_to_switch == 1
        sim.run(until=0.02)
        assert replies == []


class TestDropReasons:
    """Every way the channel loses a message says why in
    ``channel.drops``, one reason per site; ``dropped_to_switch`` and
    ``dropped_to_controller`` stay the sums of their direction's."""

    @staticmethod
    def walk(sim, channel, act, reason):
        before = dict(channel.drops)
        act()
        sim.run(until=sim.now + 0.01)
        channel.set_up()
        moved = {name: count - before.get(name, 0)
                 for name, count in channel.drops.items() if count != before.get(name, 0)}
        assert moved == {reason: 1}

    def test_every_drop_site_counts_its_reason(self):
        from repro.net.build import udp_frame
        from repro.openflow import BarrierRequest

        sim, switch, (h1, h2, _), controller, latency = build()
        controller.add_app(LearningSwitchApp())  # a table miss is a packet-in
        datapath = controller.connect(switch, latency_s=latency)
        sim.run(until=0.01)
        channel, replies = datapath.channel, []

        def barrier(set_down_after=None):
            def act():
                if set_down_after is None:
                    channel.set_down()
                else:
                    sim.schedule(set_down_after, channel.set_down)
                datapath.send_with_reply(BarrierRequest(), replies.append)
            return act

        def packet_in_while_down():
            channel.set_down()
            h1.port0.send(udp_frame(h1.mac, h2.mac, h1.ip, h2.ip, 4000, 53, b"x"))

        self.walk(sim, channel, barrier(), "to-switch:channel-down")
        self.walk(sim, channel, barrier(latency / 2), "to-switch:lost-in-flight")
        self.walk(sim, channel, barrier(latency * 1.5), "to-controller:lost-in-flight")
        self.walk(sim, channel, packet_in_while_down, "to-controller:channel-down")
        assert replies == []
        assert len(channel.drops) == 4
        assert (channel.dropped_to_switch, channel.dropped_to_controller) == (2, 2)


class TestMultiSwitch:
    def test_two_switches_one_controller(self):
        sim = Simulator()
        controller = Controller(sim)
        app = LearningSwitchApp()
        controller.add_app(app)

        switches = []
        host_pairs = []
        for index in range(2):
            switch = SoftSwitch(
                sim, f"of{index}", datapath_id=index + 1, cost_model=ZERO_COST
            )
            a = Host(
                sim,
                f"a{index}",
                MACAddress(0x02AA00000000 + index),
                IPv4Address(f"10.{index}.0.1"),
            )
            b = Host(
                sim,
                f"b{index}",
                MACAddress(0x02BB00000000 + index),
                IPv4Address(f"10.{index}.0.2"),
            )
            Link(a.port0, switch.add_port(1))
            Link(b.port0, switch.add_port(2))
            controller.connect(switch, latency_s=10e-6)
            switches.append(switch)
            host_pairs.append((a, b))
        sim.run(until=0.01)
        for a, b in host_pairs:
            a.ping(b.ip)
        sim.run(until=0.5)
        for a, _ in host_pairs:
            assert len(a.rtts()) == 1
        assert set(app.tables) == {1, 2}
