"""Tests for the discrete-event loop, nodes and links."""

import heapq
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.legacy import LegacySwitch
from repro.net import EthernetFrame, IPv4Address, MACAddress
from repro.netsim import Capture, Host, Link, Node, Simulator
from repro.netsim.link import wire


class Sink(Node):
    """A node that just records what it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, port, frame):
        self.received.append((self.sim.now, port.number, frame))


def make_frame(payload=b"x" * 100):
    return EthernetFrame(
        dst=MACAddress(2), src=MACAddress(1), ethertype=0x0800, payload=payload
    )


class TestSimulator:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_are_fifo(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_ties_never_compare_the_payload(self):
        """Heap entries order on (time, seq) alone: same-instant events
        from all three entry points run in schedule order although the
        callbacks cannot be compared, and comparing two entries settles
        on ``seq`` before it reaches one."""

        class Uncomparable:
            def __init__(self, tag):
                self.tag = tag

            def __call__(self):
                order.append(self.tag)

            def __eq__(self, other):
                raise AssertionError("callback compared")

            __lt__ = __le__ = __gt__ = __ge__ = __eq__

        sim = Simulator()
        order = []
        first = sim.schedule(1.0, Uncomparable(0))
        second = sim.schedule_at(1.0, Uncomparable(1))
        sim.schedule_many([(1.0, Uncomparable(2)), (1.0, Uncomparable(3))])
        sim.schedule(1.0, Uncomparable(4))
        assert first < second and not second < first
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.25]
        assert sim.now == 0.25

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        processed = sim.run(until=2.0)
        assert processed == 1
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        sim.cancel(event)
        sim.run()
        assert fired == ["kept"]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.schedule(0.1, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3]

    def test_max_events_bound(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.0, forever)
        processed = sim.run(max_events=50)
        assert processed == 50

    def test_run_until_idle_raises_on_runaway(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            sim.run_until_idle(max_events=100)

    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(event)
        assert sim.pending_events == 1

    def test_pending_events_is_a_live_counter(self):
        """Maintained by schedule/cancel/pop — not an O(n) heap scan."""
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        sim.cancel(events[0])
        sim.cancel(events[0])  # double-cancel must not double-decrement
        assert sim.pending_events == 4
        sim.run(until=3.0)  # runs events at t=2 and t=3 (t=1 cancelled)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_after_run_is_harmless(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending_events == 0
        sim.cancel(event)  # already executed and popped
        assert sim.pending_events == 0

    def test_schedule_many_matches_sequential_semantics(self):
        sim = Simulator()
        order = []
        events = sim.schedule_many(
            [
                (2.0, lambda: order.append("late")),
                (1.0, lambda: order.append("early")),
                (1.0, lambda: order.append("early-tie")),
            ]
        )
        assert len(events) == 3
        assert sim.pending_events == 3
        sim.run()
        assert order == ["early", "early-tie", "late"]
        assert sim.pending_events == 0

    def test_schedule_many_interleaves_with_schedule_at(self):
        """Ties between the two entry points resolve in call order."""
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, lambda: order.append("single"))
        sim.schedule_many([(1.0, lambda: order.append("batch"))])
        sim.run()
        assert order == ["single", "batch"]

    def test_schedule_many_rejects_past_times(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_many([(2.0, lambda: None), (0.5, lambda: None)])
        # The valid first pair was queued before the bad one raised.
        assert sim.pending_events == 1

    def test_schedule_many_events_cancellable(self):
        sim = Simulator()
        fired = []
        events = sim.schedule_many(
            [(1.0, lambda: fired.append(1)), (2.0, lambda: fired.append(2))]
        )
        sim.cancel(events[0])
        sim.run()
        assert fired == [2]


class TestNodePorts:
    def test_auto_numbering_starts_at_one(self):
        sim = Simulator()
        node = Sink(sim, "s")
        assert node.add_port().number == 1
        assert node.add_port().number == 2

    def test_explicit_number(self):
        node = Sink(Simulator(), "s")
        assert node.add_port(7).number == 7
        assert node.add_port().number == 8

    def test_duplicate_number_rejected(self):
        node = Sink(Simulator(), "s")
        node.add_port(1)
        with pytest.raises(ValueError):
            node.add_port(1)

    def test_port_lookup_error_names_node(self):
        node = Sink(Simulator(), "switch9")
        with pytest.raises(KeyError, match="switch9"):
            node.port(3)

    def test_iter_ports_sorted(self):
        node = Sink(Simulator(), "s")
        node.add_port(5)
        node.add_port(2)
        node.add_port(9)
        assert [p.number for p in node.iter_ports()] == [2, 5, 9]

    def test_send_on_dangling_port_drops(self):
        node = Sink(Simulator(), "s")
        port = node.add_port()
        assert port.send(make_frame()) is False
        assert port.tx_dropped == 1


class TestLink:
    def make_pair(self, **kwargs):
        sim = Simulator()
        a = Sink(sim, "a")
        b = Sink(sim, "b")
        link = wire(a, b, **kwargs)
        return sim, a, b, link

    def test_frame_delivered(self):
        sim, a, b, _ = self.make_pair()
        a.port(1).send(make_frame())
        sim.run()
        assert len(b.received) == 1

    def test_delivery_time_includes_serialization_and_propagation(self):
        sim, a, b, link = self.make_pair(
            bandwidth_bps=1_000_000_000, propagation_delay_s=10e-6
        )
        frame = make_frame(payload=b"z" * 986)  # 1000B on the wire
        a.port(1).send(frame)
        sim.run()
        arrival_time = b.received[0][0]
        assert arrival_time == pytest.approx(1000 * 8 / 1e9 + 10e-6)

    def test_ideal_link_has_no_serialization(self):
        sim, a, b, _ = self.make_pair(bandwidth_bps=None, propagation_delay_s=1e-9)
        a.port(1).send(make_frame(payload=b"z" * 1400))
        sim.run()
        assert b.received[0][0] == pytest.approx(1e-9)

    def test_back_to_back_frames_queue_behind_each_other(self):
        sim, a, b, link = self.make_pair(
            bandwidth_bps=8_000_000, propagation_delay_s=0.0
        )  # 1 byte/us
        frame = make_frame(payload=b"z" * 86)  # 100B -> 100us each
        a.port(1).send(frame)
        a.port(1).send(frame)
        sim.run()
        times = [t for t, _, _ in b.received]
        assert times[0] == pytest.approx(100e-6)
        assert times[1] == pytest.approx(200e-6)

    def test_full_duplex_no_interference(self):
        sim, a, b, link = self.make_pair(
            bandwidth_bps=8_000_000, propagation_delay_s=0.0
        )
        frame = make_frame(payload=b"z" * 86)
        a.port(1).send(frame)
        b.port(1).send(frame)
        sim.run()
        assert a.received[0][0] == pytest.approx(100e-6)
        assert b.received[0][0] == pytest.approx(100e-6)

    def test_queue_overflow_drops(self):
        sim, a, b, link = self.make_pair(
            bandwidth_bps=8_000_000, propagation_delay_s=0.0, queue_frames=2
        )
        for _ in range(5):
            a.port(1).send(make_frame())
        sim.run()
        assert len(b.received) == 2
        assert link.stats(a.port(1)).drops == 3

    def test_stats_track_frames_and_bytes(self):
        sim, a, b, link = self.make_pair()
        frame = make_frame()
        a.port(1).send(frame)
        sim.run()
        stats = link.stats(a.port(1))
        assert stats.frames == 1
        assert stats.bytes == frame.wire_length

    def test_port_down_drops_tx(self):
        sim, a, b, _ = self.make_pair()
        a.port(1).up = False
        assert a.port(1).send(make_frame()) is False
        sim.run()
        assert b.received == []

    def test_port_down_drops_rx(self):
        sim, a, b, _ = self.make_pair()
        b.port(1).up = False
        a.port(1).send(make_frame())
        sim.run()
        assert b.received == []
        assert b.port(1).rx_frames == 0

    def test_double_wire_rejected(self):
        sim = Simulator()
        a, b, c = Sink(sim, "a"), Sink(sim, "b"), Sink(sim, "c")
        wire(a, b)
        with pytest.raises(ValueError):
            Link(a.port(1), c.add_port())

    def test_self_wire_rejected(self):
        sim = Simulator()
        a = Sink(sim, "a")
        port = a.add_port()
        with pytest.raises(ValueError):
            Link(port, port)

    def test_peer_property(self):
        sim, a, b, _ = self.make_pair()
        assert a.port(1).peer is b.port(1)
        assert b.port(1).peer is a.port(1)

    def test_a_rewired_port_queues_on_its_new_link_only(self):
        sim, a, b, old = self.make_pair(bandwidth_bps=8_000_000)
        c = Sink(sim, "c")
        a.port(1).send(make_frame())
        sim.run()
        old.disconnect()
        assert a.port(1).send(make_frame()) is False  # unwired between links
        new = Link(a.port(1), c.add_port(), bandwidth_bps=8_000_000)
        for _ in range(3):
            a.port(1).send(make_frame())
        assert new.direction(a.port(1)).queued == 3
        assert old.direction(a.port(1)).queued == 0
        sim.run()
        assert (len(b.received), len(c.received)) == (1, 3)
        assert new.stats(a.port(1)).frames == 3
        assert old.stats(a.port(1)).frames == 1
        assert a.port(1).drops == {"unwired": 1}

    def test_transmit_from_a_port_off_the_link_raises(self):
        sim, a, b, link = self.make_pair()
        stranger = Sink(sim, "c").add_port()
        with pytest.raises(ValueError, match="not an end"):
            link.transmit(stranger, make_frame())
        elsewhere = wire(Sink(sim, "d"), Sink(sim, "e"))
        with pytest.raises(ValueError, match="not an end"):
            link.transmit(elsewhere.port_a, make_frame())
        assert link.stats(a.port(1)).frames == link.stats(b.port(1)).frames == 0

    @pytest.mark.parametrize("where", ["lane", "heap", "both"])
    def test_set_down_cancels_deliveries_in_either_container(self, where):
        # Deliveries that sort after the lane's tail wait in the lane;
        # a far-off event queued first sends the rest onto the heap.
        sim, a, b, link = self.make_pair(
            bandwidth_bps=8_000_000, propagation_delay_s=1e-3
        )
        early = {"lane": 5, "heap": 0, "both": 2}[where]
        for _ in range(early):
            a.port(1).send(make_frame())
        sim.schedule_at(10.0, lambda: None)
        for _ in range(5 - early):
            a.port(1).send(make_frame())
        assert len(sim._lane) == early + 1 and len(sim._queue) == 5 - early
        link.set_down()
        direction = link.direction(a.port(1))
        assert direction.drops["link-down"] == 5 and direction.queued == 0
        assert sim.pending_events == 1
        sim.run()
        assert b.received == [] and sim.now == 10.0

    def test_utilization(self):
        sim, a, b, link = self.make_pair(
            bandwidth_bps=8_000_000, propagation_delay_s=0.0
        )
        frame = make_frame(payload=b"z" * 86)  # 100us at 1B/us
        a.port(1).send(frame)
        sim.run()
        assert link.utilization(a.port(1), elapsed=200e-6) == pytest.approx(0.5)


class TestCapture:
    def test_records_both_directions(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        wire(a, b)
        capture = Capture("test").attach(a.port(1), b.port(1))
        a.port(1).send(make_frame())
        sim.run()
        directions = [(entry.port_name, entry.direction) for entry in capture]
        assert ("a:1", "tx") in directions
        assert ("b:1", "rx") in directions

    def test_filter(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        wire(a, b)
        capture = Capture("vlan-only", filter_fn=lambda f: f.vlan_id == 101)
        capture.attach(a.port(1))
        a.port(1).send(make_frame())
        a.port(1).send(make_frame().push_vlan(101))
        sim.run()
        assert len(capture) == 1

    def test_max_entries(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        wire(a, b)
        capture = Capture("small", max_entries=2).attach(a.port(1))
        for _ in range(5):
            a.port(1).send(make_frame())
        sim.run()
        assert len(capture) == 2
        assert capture.dropped == 3

    def test_format_trace_mentions_frames(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        wire(a, b)
        capture = Capture("t").attach(a.port(1))
        a.port(1).send(make_frame())
        sim.run()
        text = capture.format_trace()
        assert "capture t" in text
        assert "tx" in text


class TestCancellationAccounting:
    """Satellite: the O(1) pending_events counter vs cancel/reschedule
    churn — and the heap compaction that keeps lazy deletion bounded."""

    def test_cancel_then_reschedule_same_timestamp(self):
        sim = Simulator()
        fired = []
        stale = sim.schedule_at(1.0, lambda: fired.append("stale"))
        sim.cancel(stale)
        assert sim.pending_events == 0
        sim.schedule_at(1.0, lambda: fired.append("fresh"))
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["fresh"]
        assert sim.pending_events == 0

    def test_repeated_rearm_counter_stays_exact(self):
        # A re-armed timeout: cancel + reschedule at the same deadline,
        # many times over.  The counter must track live events exactly.
        sim = Simulator()
        fired = []
        event = sim.schedule_at(5.0, lambda: fired.append("boom"))
        for _ in range(1000):
            sim.cancel(event)
            assert sim.pending_events == 0
            event = sim.schedule_at(5.0, lambda: fired.append("boom"))
            assert sim.pending_events == 1
        sim.run()
        assert fired == ["boom"]

    def test_double_cancel_does_not_double_decrement(self):
        sim = Simulator()
        keeper = sim.schedule_at(1.0, lambda: None)
        victim = sim.schedule_at(1.0, lambda: None)
        sim.cancel(victim)
        sim.cancel(victim)
        assert sim.pending_events == 1
        sim.cancel(keeper)
        assert sim.pending_events == 0

    def test_compaction_bounds_heap_garbage(self):
        # Without compaction 10k cancel cycles leave 10k dead entries
        # in the queue while pending_events correctly reads ~0.
        sim = Simulator()
        for _ in range(10_000):
            sim.cancel(sim.schedule_at(1.0, lambda: None))
        assert sim.pending_events == 0
        assert len(sim._queue) + len(sim._lane) <= 256

    def test_compaction_preserves_fifo_ties(self):
        # Three instants, so re-heapifying must order by time first and
        # by schedule order within a tie.
        sim = Simulator()
        order = []
        for index in range(60):
            time = float(index % 3)
            sim.schedule_at(time, lambda key=(time, index): order.append(key))
            # Interleave garbage so a compaction definitely triggers.
            for _ in range(10):
                sim.cancel(sim.schedule_at(time, lambda: order.append("dead")))
        assert len(sim._queue) + len(sim._lane) < 60 * 11  # it did
        assert sim.pending_events == 60
        assert sim.run() == 60
        assert order == sorted(order) and len(order) == 60
        assert sim.pending_events == 0

    def test_peek_next_time_skips_cancelled(self):
        sim = Simulator()
        assert sim.peek_next_time() is None
        early = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.peek_next_time() == 1.0
        sim.cancel(early)
        assert sim.peek_next_time() == 2.0

    def test_exclusive_horizon_leaves_edge_event_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("in"))
        sim.schedule_at(2.0, lambda: fired.append("edge"))
        sim.run(until=2.0, inclusive=False)
        assert fired == ["in"]
        assert sim.now == 2.0
        assert sim.pending_events == 1
        sim.run(until=2.0)  # inclusive picks the edge event up
        assert fired == ["in", "edge"]

    def test_exclusive_needs_horizon(self):
        with pytest.raises(ValueError):
            Simulator().run(inclusive=False)


class TestEventsCarryArguments:
    """``schedule*(when, callback, *args)``: the event holds the call, so
    per-frame schedulers need no closure — same order, same guards."""

    def test_args_reach_the_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "delayed")
        sim.schedule_at(0.5, lambda *args: seen.append(args), 1, 2)
        sim.cancel(sim.schedule_at(0.75, seen.append, "never"))
        assert sim.run() == 2
        assert seen == [(1, 2), "delayed"]
        with pytest.raises(ValueError):
            sim.schedule(-1.0, seen.append, "past")
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, seen.append, "past")

    def test_fifo_ties_across_schedule_at_and_schedule_many(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, order.append, 0)
        sim.schedule_many((1.0, lambda n=n: order.append(n)) for n in (1, 2))
        sim.schedule(1.0, order.append, 3)
        sim.schedule_many([(1.0, lambda: order.append(4))])
        sim.schedule_at(1.0, order.append, 5)
        assert sim.run() == 6
        assert order == [0, 1, 2, 3, 4, 5]

    def test_compaction_from_inside_a_callback_loses_and_reorders_nothing(self):
        # The run loop holds the heap and the lane in locals: a cancel()
        # made by a running callback compacts those very containers,
        # mid-run.  The doomed entries at 3.0 extend the lane; those at
        # 2.0 sort before its tail and go onto the heap.
        sim = Simulator()
        order = []
        doomed = [sim.schedule_at(3.0, order.append, "dead") for _ in range(100)]
        doomed += [sim.schedule_at(2.0, order.append, "dead") for _ in range(100)]
        for index in range(50):
            sim.schedule_at(1.0 + (index % 3), order.append, (1.0 + index % 3, index))
        assert len(sim._lane) == 100 + 16 and len(sim._queue) == 100 + 34

        def massacre():
            queue, lane = sim._queue, sim._lane
            for event in doomed:
                sim.cancel(event)
            # Compacted in place, both of them; the lane keeps its live
            # entries in order.
            assert sim._queue is queue and sim._lane is lane
            assert len(queue) < 100 and sim.pending_events == 34 + 16
            assert [entry[0] for entry in lane] == [3.0] * 16
            assert list(lane) == sorted(lane)
            sim.schedule_at(2.0, order.append, (2.0, 99))

        sim.schedule_at(0.5, massacre)
        assert sim.pending_events == 251
        assert sim.run() == 52
        assert order == sorted(order) and len(order) == 51
        assert sim.pending_events == 0 and not sim._queue and not sim._lane

    def test_half_open_window_ends_at_the_float_below_until(self):
        sim = Simulator()
        fired = []
        just_inside = math.nextafter(2.0, -math.inf)
        sim.schedule_at(just_inside, fired.append, "inside")
        sim.schedule_at(2.0, fired.append, "edge")
        assert sim.run(until=2.0, inclusive=False) == 1
        assert fired == ["inside"] and sim.now == 2.0
        assert sim.pending_events == 1 and sim.peek_next_time() == 2.0
        assert sim.run(until=2.0, max_events=0) == 0  # a zero budget runs nothing
        assert sim.run(until=2.0) == 1 and fired == ["inside", "edge"]

    def test_cancel_bound_finds_a_receivers_events_only(self):
        class Box:
            def __init__(self):
                self.got = []

            def take(self, item):
                self.got.append(item)

        sim = Simulator()
        mine, other = Box(), Box()
        for index in range(3):
            sim.schedule_at(1.0, mine.take, index)
            sim.schedule_at(1.0, other.take, index)
        sim.schedule_at(1.0, lambda: mine.take("closure"))  # not bound to it
        already = sim.schedule_at(1.0, mine.take, "cancelled before")
        sim.cancel(already)
        assert sim.cancel_bound(mine) == 3
        assert sim.cancel_bound(mine) == 0
        assert sim.pending_events == 4
        assert sim.run() == 4
        assert mine.got == ["closure"] and other.got == [0, 1, 2]

    def test_late_cancel_of_an_event_that_ran_is_not_heap_garbage(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run(until=1.0)
        sim.cancel(event)
        assert sim.pending_events == 1


NAN = float("nan")


class TestValuesThatDoNotCompare:
    """NaN fails every ordered compare, so a guard written ``time < now``
    lets it through and the clock reads NaN from then on."""

    def test_nan_times_are_refused(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(NAN, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(NAN, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_many([(1.0, lambda: None), (NAN, lambda: None)])
        assert sim.pending_events == 1  # the pair before the bad one
        sim.run()
        assert sim.now == 1.0

    @pytest.mark.parametrize(
        "settings",
        [
            {"bandwidth_bps": 0},
            {"bandwidth_bps": -1e9},
            {"bandwidth_bps": NAN},
            {"propagation_delay_s": -1e-6},
            {"propagation_delay_s": NAN},
            {"queue_frames": 0},
        ],
        ids=["zero-bandwidth", "negative-bandwidth", "nan-bandwidth", "negative-delay",
             "nan-delay", "no-queue"],
    )
    def test_link_refuses_settings_that_fail_at_the_first_frame(self, settings):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        with pytest.raises(ValueError):
            Link(a.add_port(), b.add_port(), **settings)
        assert a.port(1).link is None and b.port(1).link is None

    def test_ideal_and_zero_delay_links_stay_valid(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        Link(a.add_port(), b.add_port(), bandwidth_bps=None, propagation_delay_s=0.0,
             queue_frames=1)
        a.port(1).send(make_frame())
        sim.run()
        assert len(b.received) == 1 and b.received[0][0] == 0.0


class TestScheduleWorkBudget:
    """A planned send schedule and the timeouts armed a second ahead stay
    out of the heap, pinned without a clock: the heap holds what is in
    flight, the lane the plan and the timeouts."""

    def test_a_planned_schedule_leaves_only_in_flight_events_in_the_heap(self):
        sim = Simulator()
        source, sink = Sink(sim, "src"), Sink(sim, "dst")
        Link(source.add_port(1), sink.add_port(1), bandwidth_bps=1e10)
        depths = []
        send = source.port(1).send

        def fire(frame):
            send(frame)
            depths.append(len(sim._queue))

        frames = [make_frame(bytes([n % 251]) * 64) for n in range(6000)]
        sim.schedule_many(
            (1e-3 + index * 20e-6, lambda f=frame: fire(f))
            for index, frame in enumerate(frames)
        )
        assert sim.pending_events == 6000 and not sim._queue
        assert sim.peek_next_time() == 1e-3
        assert sim.run() == 2 * 6000
        assert len(sink.received) == 6000
        # The delivery just scheduled is the only event in the heap.
        assert max(depths) == 1

    def test_timers_wait_in_the_lane(self, monkeypatch):
        # 16 hosts on one legacy switch ping every 10 ms for 1.5 s; each
        # ping arms a 1 s timeout that is never cancelled.  A timeout
        # sorts after everything already queued, so it extends the lane:
        # the heap keeps each host's next tick and the frames in flight.
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=16)
        hosts = []
        for index in range(16):
            hosts.append(Host(sim, f"h{index + 1}", MACAddress(0x02_00_00_00_00_40 + index),
                              IPv4Address(f"10.9.0.{index + 1}")))
            Link(hosts[-1].port0, switch.port(index + 1))

        def tick(host, peer):
            host.ping(peer.ip)
            if sim.now < 1.5 - 0.010:
                sim.schedule(0.010, tick, host, peer)

        for index, host in enumerate(hosts):
            sim.schedule_at(index * 0.010 / 16, tick, host, hosts[(index + 8) % 16])
        seen, push = [], heapq.heappush

        def probe(heap, entry):
            seen.append((sim.now, len(heap), len(sim._lane)))
            push(heap, entry)

        monkeypatch.setattr(heapq, "heappush", probe)
        sim.run(until=1.5)
        monkeypatch.undo()
        results = [result for host in hosts for result in host.ping_results]
        assert len(results) == 16 * 150 and not any(result.lost for result in results)
        # Measured: 22 at most (ARP resolution in the first 0.1 s), 16
        # from then on; a single heap of every event reaches 1 624.
        assert max(depth for _, depth, _ in seen) <= 22
        # After the first second every push finds 1 599 timeouts waiting.
        assert min(lane for now, _, lane in seen if now >= 1.0) >= 1_599
        assert sim.pending_events == len(sim._lane) == 1_600 and not sim._queue


#: Case-count multiplier; the nightly extended job sets this to 5.
SCALE = max(1, int(os.environ.get("DIFFERENTIAL_SCALE", "1")))

#: Delays drawn from a few values, so that ties are common.
DELAY_VALUES = (0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.5)
DELAYS = st.sampled_from(DELAY_VALUES)
#: What a running callback may do: anything but run.
INNER_OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, st.integers(0, 2)),
    st.tuples(st.just("schedule_at"), DELAYS, st.integers(0, 2)),
    st.tuples(st.just("schedule_many"), st.lists(st.tuples(DELAYS, st.just([])), max_size=6)),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("cancel_bound"), st.integers(0, 10_000)),
)
OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, st.integers(0, 2), st.lists(INNER_OPS, max_size=2)),
    st.tuples(st.just("schedule_at"), DELAYS, st.integers(0, 2), st.lists(INNER_OPS, max_size=2)),
    st.tuples(st.just("schedule_many"), st.lists(st.tuples(DELAYS, st.lists(INNER_OPS, max_size=2)),
                                                 max_size=120)),
    # A long plan, and a long run of cancels: enough dead entries for
    # the queue to compact.
    st.tuples(st.just("schedule_many"), st.integers(0, 300), st.integers(0, 6)),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("cancel_range"), st.integers(0, 10_000), st.integers(0, 300)),
    st.tuples(st.just("cancel_bound"), st.integers(0, 10_000)),
    st.tuples(st.just("run"), DELAYS, st.booleans()),
    # A long run of one constant delay (or one constant step) through
    # schedule or schedule_at, each entry arming a timeout when it runs,
    # as a ping does: the entries that sort after the lane's tail.
    st.tuples(st.just("run_of"), st.sampled_from(("schedule", "schedule_at")), DELAYS,
              st.sampled_from((0.0, 0.0, 0.125)), st.integers(0, 60), DELAYS),
    # A plan merged into whatever the lane holds: ascending from an
    # offset (past the tail, or into it), or handed over descending.
    st.tuples(st.just("plan"), st.integers(1, 40), st.sampled_from((0.0, 1.0, 3.0, 20.0)),
              st.sampled_from((0.0, 0.125)), st.booleans()),
)


class Owner:
    """Receives the events ``schedule``/``schedule_at`` make."""

    def __init__(self, harness):
        self.harness = harness

    def take(self, tag, spawn):
        self.harness.ran(tag, spawn)


class Planned:
    """One ``schedule_many`` item: the call carries no arguments, so the
    item is its own receiver."""

    def __init__(self, harness, tag, spawn):
        self.harness, self.tag, self.spawn = harness, tag, spawn

    def fire(self):
        self.harness.ran(self.tag, self.spawn)


class LaneHarness:
    """Drives a :class:`Simulator` and keeps, beside it, what one queue
    ordered by ``(time, seq)`` would hold."""

    def __init__(self):
        self.sim = Simulator()
        self.owners = [Owner(self) for _ in range(3)]
        #: tag -> (handle, receiver); tags count up in creation order.
        self.made = []
        self.status = []  # "pending", "ran" or "cancelled", by tag
        self.order = []   # tags in dispatch order

    def ran(self, tag, spawn):
        handle, _ = self.made[tag]
        assert self.status[tag] == "pending" and self.sim.now == handle[0]
        self.status[tag] = "ran"
        self.order.append(tag)
        for op in spawn:
            self.apply(op)

    def _made(self, handle, receiver):
        self.made.append((handle, receiver))
        self.status.append("pending")

    def _cancel(self, tag):
        self.sim.cancel(self.made[tag][0])
        if self.status[tag] == "pending":
            self.status[tag] = "cancelled"

    def apply(self, op):
        sim, kind = self.sim, op[0]
        if kind in ("schedule", "schedule_at"):
            delay, owner = op[1], self.owners[op[2]]
            spawn = op[3] if len(op) > 3 else []
            tag = len(self.made)
            if kind == "schedule":
                handle = sim.schedule(delay, owner.take, tag, spawn)
            else:
                handle = sim.schedule_at(sim.now + delay, owner.take, tag, spawn)
            self._made(handle, owner)
        elif kind == "schedule_many":
            if len(op) == 3:  # (count, first delay): the delays cycle
                items = [(DELAY_VALUES[(op[2] + n) % len(DELAY_VALUES)], [])
                         for n in range(op[1])]
            else:
                items = op[1]
            planned = [Planned(self, len(self.made) + n, spawn)
                       for n, (_, spawn) in enumerate(items)]
            handles = sim.schedule_many(
                (sim.now + delay, each.fire) for (delay, _), each in zip(items, planned)
            )
            for handle, each in zip(handles, planned):
                self._made(handle, each)
        elif kind == "cancel" and self.made:
            self._cancel(op[1] % len(self.made))
        elif kind == "cancel_range" and self.made:
            start = op[1] % len(self.made)
            for tag in range(start, min(start + op[2], len(self.made))):
                self._cancel(tag)
        elif kind == "cancel_bound" and self.made:
            receiver = self.made[op[1] % len(self.made)][1]
            doomed = [tag for tag, (_, owner) in enumerate(self.made)
                      if owner is receiver and self.status[tag] == "pending"]
            assert sim.cancel_bound(receiver) == len(doomed)
            for tag in doomed:
                self.status[tag] = "cancelled"
        elif kind == "run_of":
            _, inner, delay, step, count, timeout = op
            for n in range(count):
                self.apply((inner, delay + n * step, n % 3, [("schedule", timeout, 0)]))
        elif kind == "plan":
            _, count, start, step, descending = op
            delays = [start + n * step for n in range(count)]
            self.apply(("schedule_many", [(delay, []) for delay in
                                          (delays[::-1] if descending else delays)]))
        elif kind == "run":
            until = sim.now + op[1]
            sim.run(until=until, inclusive=op[2])
            assert sim.now == until

    def pending(self):
        return [tag for tag, status in enumerate(self.status) if status == "pending"]

    def key(self, tag):
        handle = self.made[tag][0]
        return handle[0], handle[1]


class TestLaneDifferential:
    """The heap and the lane are one queue: whatever mix of ``schedule``,
    ``schedule_at`` and ``schedule_many`` (also from running callbacks),
    long runs that extend the lane, plans merged into it, cancels and
    half-open windows made the entries, they run in the ``(time, seq)``
    sort of the same entries, the counters and the peek agree with that
    sort at every step, and the lane stays sorted."""

    @settings(max_examples=150 * SCALE, deadline=None)
    @given(st.lists(OPS, max_size=25))
    def test_dispatch_order_is_the_time_seq_sort(self, ops):
        harness = LaneHarness()
        sim = harness.sim
        for op in ops:
            harness.apply(op)
            pending = harness.pending()
            assert sim.pending_events == len(pending)
            assert sim.peek_next_time() == (
                min(harness.key(tag) for tag in pending)[0] if pending else None
            )
            assert list(sim._lane) == sorted(sim._lane)
        sim.run()
        ran = [tag for tag, status in enumerate(harness.status) if status == "ran"]
        assert harness.order == sorted(ran, key=harness.key)
        assert not harness.pending() and sim.pending_events == 0
        assert not sim._queue and not sim._lane
