"""Link timing semantics: serialisation, FIFO ties, tail-drop, bursts.

`Link` timing is what makes the latency/throughput benches meaningful
(HARMLESS adds one trunk traversal; the cost is serialisation +
propagation), and the burst path must reproduce it exactly: a
`transmit_burst` serialises every frame at the same instants as N
sequential `transmit` calls — only the delivery *event* is coalesced,
with per-frame arrival times delivered beside the frames.
"""

import gc

import pytest

from repro.net import EthernetFrame, MACAddress
from repro.netsim import Node, Simulator
from repro.netsim.link import wire


class Sink(Node):
    """Records (sim-time, wire-timestamp, frame) for every arrival."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []
        self.bursts = 0

    def receive(self, port, frame):
        self.received.append((self.sim.now, self.sim.now, frame))

    def receive_burst(self, port, frames, arrivals):
        self.bursts += 1
        for stamp, frame in zip(arrivals, frames):
            self.received.append((self.sim.now, stamp, frame))


def make_frame(payload=b"z" * 86, tag=0):
    # 86B payload -> 100B on the wire; src MAC doubles as a frame tag.
    return EthernetFrame(
        dst=MACAddress(2), src=MACAddress(10 + tag), ethertype=0x0800,
        payload=payload,
    )


def make_pair(**kwargs):
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(a, b, **kwargs)
    return sim, a, b, link


#: 8 Mbit/s -> 1 byte/us -> a 100B frame serialises in 100us.
BPS_1B_PER_US = 8_000_000


class TestSerializationArithmetic:
    def test_back_to_back_frames_accumulate_serialisation(self):
        sim, a, b, _ = make_pair(
            bandwidth_bps=BPS_1B_PER_US, propagation_delay_s=7e-6
        )
        for tag in range(4):
            a.port(1).send(make_frame(tag=tag))
        sim.run()
        times = [t for t, _, _ in b.received]
        # Frame k finishes serialising at (k+1)*100us, then propagates.
        assert times == pytest.approx([100e-6 * (k + 1) + 7e-6 for k in range(4)])

    def test_gap_larger_than_serialisation_resets_the_wire(self):
        sim, a, b, _ = make_pair(
            bandwidth_bps=BPS_1B_PER_US, propagation_delay_s=0.0
        )
        a.port(1).send(make_frame())
        sim.schedule_at(500e-6, lambda: a.port(1).send(make_frame()))
        sim.run()
        times = [t for t, _, _ in b.received]
        assert times == pytest.approx([100e-6, 600e-6])

    def test_busy_time_equals_sum_of_serialisations(self):
        sim, a, b, link = make_pair(
            bandwidth_bps=BPS_1B_PER_US, propagation_delay_s=0.0
        )
        for _ in range(3):
            a.port(1).send(make_frame())
        sim.run()
        assert link.stats(a.port(1)).busy_time == pytest.approx(300e-6)


class TestFifoTies:
    def test_equal_timestamp_arrivals_keep_send_order(self):
        """Ideal link, several frames sent at one instant: all arrive at
        the same simulated time and must be handed up in send order."""
        sim, a, b, _ = make_pair(bandwidth_bps=None, propagation_delay_s=1e-6)
        for tag in range(5):
            a.port(1).send(make_frame(tag=tag))
        sim.run()
        times = [t for t, _, _ in b.received]
        assert times == pytest.approx([1e-6] * 5)
        assert [int(f.src) - 10 for _, _, f in b.received] == list(range(5))

    def test_two_senders_tie_broken_by_schedule_order(self):
        sim = Simulator()
        hub, left, right = Sink(sim, "hub"), Sink(sim, "l"), Sink(sim, "r")
        wire(left, hub, bandwidth_bps=None, propagation_delay_s=1e-6)
        wire(right, hub, bandwidth_bps=None, propagation_delay_s=1e-6)
        left.port(1).send(make_frame(tag=0))
        right.port(1).send(make_frame(tag=1))
        sim.run()
        assert [int(f.src) - 10 for _, _, f in hub.received] == [0, 1]


class TestTailDrop:
    def test_fill_to_exactly_queue_frames_keeps_all(self):
        sim, a, b, link = make_pair(
            bandwidth_bps=BPS_1B_PER_US, propagation_delay_s=0.0, queue_frames=4
        )
        for tag in range(4):
            assert a.port(1).send(make_frame(tag=tag)) is True
        sim.run()
        assert len(b.received) == 4
        assert link.stats(a.port(1)).drops == 0
        assert link.stats(a.port(1)).queue_hwm == 4

    def test_one_past_queue_frames_tail_drops(self):
        sim, a, b, link = make_pair(
            bandwidth_bps=BPS_1B_PER_US, propagation_delay_s=0.0, queue_frames=4
        )
        results = [a.port(1).send(make_frame(tag=tag)) for tag in range(5)]
        assert results == [True, True, True, True, False]
        sim.run()
        assert len(b.received) == 4
        assert link.stats(a.port(1)).drops == 1
        assert link.stats(a.port(1)).queue_hwm == 4  # never exceeded

    def test_queue_drains_then_accepts_again(self):
        sim, a, b, link = make_pair(
            bandwidth_bps=BPS_1B_PER_US, propagation_delay_s=0.0, queue_frames=2
        )
        a.port(1).send(make_frame())
        a.port(1).send(make_frame())
        assert a.port(1).send(make_frame()) is False
        sim.run()  # drains both
        assert a.port(1).send(make_frame()) is True
        sim.run()
        assert len(b.received) == 3


class TestBurstTransmit:
    def test_burst_preserves_per_frame_arrival_times(self):
        """transmit_burst must stamp each frame with the same arrival
        time N sequential transmits would produce; only the delivery
        event is coalesced at the burst drain."""
        frames = [make_frame(tag=tag) for tag in range(4)]

        sim_seq, a_seq, b_seq, _ = make_pair(
            bandwidth_bps=BPS_1B_PER_US, propagation_delay_s=7e-6
        )
        for frame in frames:
            a_seq.port(1).send(frame)
        sim_seq.run()

        sim_b, a_b, b_b, _ = make_pair(
            bandwidth_bps=BPS_1B_PER_US, propagation_delay_s=7e-6
        )
        assert a_b.port(1).send_burst(list(frames)) == 4
        sim_b.run()

        assert b_b.bursts == 1  # one coalesced event...
        stamps_seq = [t for t, _, _ in b_seq.received]
        stamps_burst = [stamp for _, stamp, _ in b_b.received]
        # Bit-exact, not approx: the burst path must use the very same
        # float expression as serialization_delay(), or busy_until
        # drifts by an ulp per frame and event ordering can flip.
        assert stamps_burst == stamps_seq
        # The coalesced event fires at the drain: the last frame's arrival.
        assert all(t == stamps_seq[-1] for t, _, _ in b_b.received)

    def test_burst_busy_until_bit_identical_to_sequential(self):
        """Odd wire lengths across several bandwidths: the accumulated
        busy_until after a burst equals N sequential transmits exactly."""
        for bandwidth in (1e9, 8_000_000, 123_456_789):
            frames = [make_frame(payload=b"q" * (47 + 13 * k), tag=k) for k in range(6)]
            sim_a, a1, _, link_a = make_pair(bandwidth_bps=bandwidth)
            for frame in frames:
                a1.port(1).send(frame)
            sim_b, a2, _, link_b = make_pair(bandwidth_bps=bandwidth)
            a2.port(1).send_burst(list(frames))
            direction_a = link_a.direction(a1.port(1))
            direction_b = link_b.direction(a2.port(1))
            assert direction_b.busy_until == direction_a.busy_until  # bit-exact

    def test_burst_tail_drop_at_exact_boundary(self):
        sim, a, b, link = make_pair(
            bandwidth_bps=BPS_1B_PER_US, propagation_delay_s=0.0, queue_frames=3
        )
        accepted = a.port(1).send_burst([make_frame(tag=t) for t in range(5)])
        assert accepted == 3
        stats = link.stats(a.port(1))
        assert stats.drops == 2
        assert stats.queue_hwm == 3
        sim.run()
        assert len(b.received) == 3
        assert [int(f.src) - 10 for _, _, f in b.received] == [0, 1, 2]

    def test_burst_then_single_continue_serialising(self):
        """A single transmit after a burst queues behind the burst."""
        sim, a, b, _ = make_pair(
            bandwidth_bps=BPS_1B_PER_US, propagation_delay_s=0.0
        )
        a.port(1).send_burst([make_frame(tag=0), make_frame(tag=1)])
        a.port(1).send(make_frame(tag=2))
        sim.run()
        by_tag = {int(f.src) - 10: stamp for _, stamp, f in b.received}
        assert by_tag[2] == pytest.approx(300e-6)

    def test_burst_stats_match_sequential(self):
        frames = [make_frame(tag=tag) for tag in range(6)]
        sim_a, a1, _, link_a = make_pair(bandwidth_bps=BPS_1B_PER_US)
        for frame in frames:
            a1.port(1).send(frame)
        sim_a.run()
        sim_b, a2, _, link_b = make_pair(bandwidth_bps=BPS_1B_PER_US)
        a2.port(1).send_burst(list(frames))
        sim_b.run()
        stats_seq, stats_burst = link_a.stats(a1.port(1)), link_b.stats(a2.port(1))
        assert stats_burst.frames == stats_seq.frames
        assert stats_burst.bytes == stats_seq.bytes
        assert stats_burst.busy_time == pytest.approx(stats_seq.busy_time)
        assert a2.port(1).tx_frames == a1.port(1).tx_frames
        assert a2.port(1).tx_bytes == a1.port(1).tx_bytes

    def test_burst_queue_hwm_shows_queueing(self):
        """The satellite the hwm exists for: a burst actually occupies
        the queue simultaneously, it does not serialise one at a time."""
        sim, a, b, link = make_pair(
            bandwidth_bps=BPS_1B_PER_US, propagation_delay_s=0.0, queue_frames=64
        )
        a.port(1).send_burst([make_frame(tag=t) for t in range(10)])
        assert link.stats(a.port(1)).queue_hwm == 10
        sim.run()
        assert len(b.received) == 10

    def test_burst_on_down_port_counts_tx_dropped(self):
        sim, a, b, _ = make_pair()
        a.port(1).up = False
        assert a.port(1).send_burst([make_frame(), make_frame()]) == 0
        assert a.port(1).tx_dropped == 2
        sim.run()
        assert b.received == []

    def test_burst_into_down_receiver_is_dropped(self):
        sim, a, b, _ = make_pair(bandwidth_bps=None, propagation_delay_s=0.0)
        b.port(1).up = False
        a.port(1).send_burst([make_frame(), make_frame()])
        sim.run()
        assert b.received == []
        assert b.port(1).rx_frames == 0

    def test_ideal_link_burst_is_one_event(self):
        sim, a, b, _ = make_pair(bandwidth_bps=None, propagation_delay_s=0.0)
        before = sim.events_processed
        a.port(1).send_burst([make_frame(tag=t) for t in range(32)])
        sim.run()
        assert len(b.received) == 32
        assert b.bursts == 1
        assert sim.events_processed - before == 1

    def test_ideal_link_burst_holds_no_per_frame_object(self):
        """A burst in flight over an ideal link is the sender's own list
        plus a constant number of tracked objects, whatever its size:
        no per-frame tuple, and the sink gets that very list back."""

        class ListSink(Node):
            def receive_burst(self, port, frames, arrivals):
                self.got = frames, list(frames), arrivals

        def in_flight(size):
            sim = Simulator()
            a, b = Sink(sim, "a"), ListSink(sim, "b")
            wire(a, b, bandwidth_bps=None, propagation_delay_s=3e-6)
            frames = [make_frame(tag=t) for t in range(size)]
            gc.collect()
            gc.disable()
            try:
                gc.get_count()  # the first reading's own tuple counts once
                before = gc.get_count()[0]
                assert a.port(1).send_burst(frames) == size
                held = gc.get_count()[0] - before
            finally:
                gc.enable()
            return held, sim, b, frames

        bursts = [in_flight(size) for size in (2, 32)]
        assert bursts[0][0] == bursts[1][0]
        for _, sim, sink, frames in bursts:
            sent = list(frames)
            sim.run()
            got, seen, arrivals = sink.got
            assert got is frames and seen == sent  # the sender's list, untouched
            assert arrivals == [3e-6] * len(sent)

    # -- one length pass per hop: the burst path against N transmits --

    @staticmethod
    def _observe(sim, a, b, link):
        sim.run()
        return {
            "arrivals": [(stamp, frame.to_bytes()) for _, stamp, frame in b.received],
            "busy_until": link.direction(a.port(1)).busy_until,
            "stats": link.stats(a.port(1)),
            "tx": (a.port(1).tx_frames, a.port(1).tx_bytes, a.port(1).tx_dropped),
            "rx": (b.port(1).rx_frames, b.port(1).rx_bytes),
        }

    def _both_ways(self, bursts, prepare=lambda a, link: None, **link_kwargs):
        """Play *bursts* (all at t = 1.25 ms) frame by frame and burst by
        burst on two fresh pairs; return what each pair saw."""
        seen = []
        for as_burst in (False, True):
            sim, a, b, link = make_pair(**link_kwargs)

            def play(a=a, link=link, as_burst=as_burst):
                prepare(a, link)
                for frames in bursts:
                    if as_burst:
                        a.port(1).send_burst(list(frames))
                    else:
                        for frame in frames:
                            a.port(1).send(frame)

            sim.schedule_at(1.25e-3, play)
            seen.append(self._observe(sim, a, b, link))
        return seen

    @pytest.mark.parametrize("bandwidth", [None, BPS_1B_PER_US, 123_456_789])
    def test_whole_burst_equals_sequential_transmits(self, bandwidth):
        """Arrival stamps bit-equal, busy_until, LinkStats and the byte
        counters of both ports — on the ideal link too, where the burst
        is accounted in one step."""
        bursts = [
            [make_frame(payload=b"q" * (1 + 37 * k), tag=k) for k in range(7)],
            [make_frame(payload=b"r" * 200, tag=9)] * 3,  # chains behind the first
        ]
        sequential, burst = self._both_ways(
            bursts, bandwidth_bps=bandwidth, propagation_delay_s=3e-6
        )
        assert burst == sequential
        assert burst["stats"].frames == 10
        assert burst["rx"] == (10, burst["tx"][1])

    @pytest.mark.parametrize("bandwidth", [None, BPS_1B_PER_US])
    def test_partly_fitting_burst_equals_sequential_transmits(self, bandwidth):
        """Two frames already queued, room for three more: the burst's
        head is taken, its tail dropped, exactly where N transmits
        would draw the line."""

        def prepare(a, link):
            a.port(1).send(make_frame(tag=20))
            a.port(1).send(make_frame(tag=21))

        frames = [make_frame(payload=b"p" * (60 + k), tag=k) for k in range(6)]
        sequential, burst = self._both_ways(
            [frames], prepare, bandwidth_bps=bandwidth, queue_frames=5
        )
        assert burst == sequential
        assert burst["stats"].drops == 3 and burst["stats"].queue_hwm == 5
        delivered = [EthernetFrame.from_bytes(raw) for _, raw in burst["arrivals"]]
        assert [int(f.src) - 10 for f in delivered] == [20, 21, 0, 1, 2]

    @pytest.mark.parametrize("bandwidth", [None, BPS_1B_PER_US])
    def test_burst_into_full_queue_leaves_the_wire_alone(self, bandwidth):
        def prepare(a, link):
            a.port(1).send(make_frame(tag=20))

        sequential, burst = self._both_ways(
            [[make_frame(tag=0), make_frame(tag=1)]], prepare,
            bandwidth_bps=bandwidth, queue_frames=1,
        )
        assert burst == sequential
        assert burst["stats"].drops == 2 and burst["stats"].frames == 1

    @pytest.mark.parametrize("bandwidth", [None, BPS_1B_PER_US])
    def test_burst_into_downed_link_equals_sequential_transmits(self, bandwidth):
        sequential, burst = self._both_ways(
            [[make_frame(tag=t) for t in range(4)]],
            lambda a, link: link.set_down(),
            bandwidth_bps=bandwidth,
        )
        assert burst == sequential
        assert burst["arrivals"] == []
        assert burst["stats"].drops == 4 and burst["stats"].frames == 0
        assert burst["tx"][0] == 4 and burst["rx"] == (0, 0)


class TestDropReasons:
    """Every way a frame can die between two nodes, walked with a
    crafted frame, alone and as a burst: each bumps exactly its reason,
    and the lump counters stay the sums."""

    REASONS = {"queue-tail", "link-down", "port-down", "unwired"}

    @staticmethod
    def ledger(sim, a, b, link):
        """(where, reason) -> count over both ports and both directions."""
        sources = {"a": a.port(1).drops, "b": b.port(1).drops}
        if link is not None:
            sources["a->b"] = link.direction(a.port(1)).drops
            sources["b->a"] = link.direction(b.port(1)).drops
        return {
            (where, reason): count
            for where, drops in sources.items()
            for reason, count in drops.items()
            if count
        }

    def walk(self, rig, act, where, reason, count):
        sim = rig[0]
        before = self.ledger(*rig)
        act()
        sim.run()
        after = self.ledger(*rig)
        moved = {key: after[key] - before.get(key, 0) for key in after
                 if after[key] != before.get(key, 0)}
        assert moved == {(where, reason): count}
        return reason

    def both(self, rig, sender, where, reason, prepare=lambda: None):
        """The single-frame site and its burst twin."""
        prepare()
        self.walk(rig, lambda: sender.send(make_frame()), where, reason, 1)
        prepare()
        self.walk(
            rig, lambda: sender.send_burst([make_frame(tag=t) for t in range(3)]),
            where, reason, 3,
        )
        return reason

    def test_every_drop_site_counts_its_reason(self):
        reached = set()
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        a.add_port(1)
        b.add_port(1)
        reached.add(self.both((sim, a, b, None), a.port(1), "a", "unwired"))
        assert a.port(1).tx_dropped == 4

        rig = sim, a, b, link = make_pair(bandwidth_bps=BPS_1B_PER_US, queue_frames=4)
        tx, rx = a.port(1), b.port(1)
        tx.up = False  # a downed port outranks its wiring
        reached.add(self.both(rig, tx, "a", "port-down"))
        tx.up, rx.up = True, False  # the frame crosses, the far port refuses it
        reached.add(self.both(rig, tx, "b", "port-down"))
        assert (rx.rx_frames, rx.tx_dropped, tx.tx_dropped) == (0, 0, 4)
        rx.up = True

        def fill():  # three of the four slots: one more fits, three do not
            sim.run()
            tx.send_burst([make_frame(tag=t) for t in range(3)])

        fill()
        tx.send(make_frame())
        reached.add(self.walk(rig, lambda: tx.send(make_frame()), "a->b", "queue-tail", 1))
        fill()
        burst = [make_frame(tag=t) for t in range(3)]
        self.walk(rig, lambda: tx.send_burst(burst), "a->b", "queue-tail", 2)

        link.set_down()  # refused while down ...
        reached.add(self.both(rig, tx, "a->b", "link-down"))
        link.set_up()
        tx.send(make_frame())  # ... and cut on the wire
        self.walk(rig, link.set_down, "a->b", "link-down", 1)
        link.set_up()
        tx.send_burst([make_frame(tag=t) for t in range(3)])
        rx.send(make_frame())
        before = self.ledger(*rig)
        link.set_down()
        after = self.ledger(*rig)
        assert after[("a->b", "link-down")] - before[("a->b", "link-down")] == 3
        assert after[("b->a", "link-down")] == 1

        assert reached == self.REASONS
        for port in (tx, rx):
            direction = link.direction(port)
            assert set(direction.drops) <= {"queue-tail", "link-down"}
            assert direction.stats.drops == sum(direction.drops.values())
        # tx_dropped: what the port refused to send, not what it refused to take.
        assert tx.tx_dropped == tx.drops["port-down"] == 4
        assert rx.tx_dropped == 0 and rx.drops == {"port-down": 4}
