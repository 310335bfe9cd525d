"""Tests for the traffic generators and the NFPA harness."""

import pytest

from repro.netsim import Simulator
from repro.netsim.link import Link
from repro.nfpa import LatencyStats, make_sink, measure_forwarding
from repro.softswitch import DatapathCostModel, SoftSwitch
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.traffic import (
    BurstSource,
    burst_schedule,
    cbr_schedule,
    interleave_bursts,
    make_flow_population,
    zipf_weights,
)


class TestFlowPopulation:
    def test_count_and_uniqueness(self):
        flows = make_flow_population(50, seed=1)
        assert len(flows) == 50
        keys = {(f.src_ip, f.dst_ip, f.src_port, f.dst_port) for f in flows}
        assert len(keys) == 50

    def test_seeded_reproducibility(self):
        assert make_flow_population(10, seed=7) == make_flow_population(10, seed=7)
        assert make_flow_population(10, seed=7) != make_flow_population(10, seed=8)

    def test_fixed_dst_port(self):
        flows = make_flow_population(5, seed=0, dst_port=80)
        assert all(f.dst_port == 80 for f in flows)

    def test_frames_parse(self):
        from repro.net.build import parse_udp

        flow = make_flow_population(1, seed=3)[0]
        frame = flow.frame(payload_len=100)
        result = parse_udp(frame)
        assert result is not None
        packet, datagram = result
        assert packet.src == flow.src_ip
        assert len(datagram.payload) == 100

    def test_vlan_tagging(self):
        flow = make_flow_population(1, seed=3)[0]
        assert flow.frame(vlan_id=101).vlan_id == 101


class TestZipf:
    def test_weights_sum_to_one(self):
        assert sum(zipf_weights(10)) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        weights = zipf_weights(20, skew=1.1)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_skew_zero_is_uniform(self):
        weights = zipf_weights(4, skew=0.0)
        assert all(w == pytest.approx(0.25) for w in weights)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(0)


class TestSchedules:
    def test_cbr_spacing(self):
        times = cbr_schedule(1000.0, 0.01)
        assert len(times) == 10
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.001) for g in gaps)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            cbr_schedule(0, 1.0)


class TestBurstSchedule:
    def test_total_frames_match_cbr(self):
        schedule = burst_schedule(1000.0, 0.1, burst_size=32)
        assert sum(count for _, count in schedule) == len(cbr_schedule(1000.0, 0.1))

    def test_burst_spacing_and_partial_tail(self):
        schedule = burst_schedule(1000.0, 0.1, burst_size=32)
        # 100 frames -> bursts of 32, 32, 32, 4 spaced 32ms apart.
        assert [count for _, count in schedule] == [32, 32, 32, 4]
        starts = [start for start, _ in schedule]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(gap == pytest.approx(0.032) for gap in gaps)

    def test_burst_size_one_degenerates_to_cbr(self):
        schedule = burst_schedule(500.0, 0.01, burst_size=1)
        assert all(count == 1 for _, count in schedule)
        assert [start for start, _ in schedule] == pytest.approx(
            cbr_schedule(500.0, 0.01)
        )

    def test_start_offset(self):
        schedule = burst_schedule(100.0, 0.1, burst_size=5, start_s=2.0)
        assert schedule[0][0] == pytest.approx(2.0)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            burst_schedule(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            burst_schedule(100.0, 1.0, 0)


class TestInterleaveBursts:
    def test_fills_schedule_exactly(self):
        flows = make_flow_population(4, seed=1)
        schedule = burst_schedule(1000.0, 0.05, burst_size=16)
        bursts = interleave_bursts(flows, schedule, seed=2)
        assert [start for start, _ in bursts] == [start for start, _ in schedule]
        assert [len(frames) for _, frames in bursts] == [
            count for _, count in schedule
        ]

    def test_reuses_one_template_frame_per_flow(self):
        """Frames of one flow are the same object — the batch datapath
        decodes each distinct frame object once per burst."""
        flows = make_flow_population(2, seed=1)
        bursts = interleave_bursts(flows, [(0.0, 40)], seed=3)
        distinct = {id(frame) for _, frames in bursts for frame in frames}
        assert len(distinct) <= len(flows)

    def test_seeded_reproducibility(self):
        flows = make_flow_population(4, seed=1)
        schedule = [(0.0, 20)]
        first = interleave_bursts(flows, schedule, seed=9)
        second = interleave_bursts(flows, schedule, seed=9)
        assert [
            [f.to_bytes() for f in frames] for _, frames in first
        ] == [[f.to_bytes() for f in frames] for _, frames in second]

    def test_zipf_weights_skew_the_mix(self):
        flows = make_flow_population(8, seed=1)
        bursts = interleave_bursts(
            flows, [(0.0, 400)], seed=4, weights=zipf_weights(8, skew=1.5)
        )
        from repro.traffic import synth_frame

        top = synth_frame(flows[0]).to_bytes()  # rank-1 flow's frame
        share = sum(
            1 for _, frames in bursts for f in frames if f.to_bytes() == top
        ) / 400
        assert share > 0.3  # rank-1 flow dominates

    def test_misaligned_weights_rejected(self):
        flows = make_flow_population(3, seed=1)
        with pytest.raises(ValueError):
            interleave_bursts(flows, [(0.0, 5)], weights=[0.5, 0.5])
        with pytest.raises(ValueError):
            interleave_bursts([], [(0.0, 5)])


class TestBurstSource:
    def test_plays_bursts_onto_the_wire(self):
        from repro.netsim.link import wire
        from repro.netsim.node import Node

        class Counter(Node):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.frames = 0
                self.bursts = 0

            def receive(self, port, frame):
                self.frames += 1

            def receive_burst(self, port, frames, arrivals):
                self.bursts += 1
                self.frames += len(frames)

        sim = Simulator()
        source = BurstSource(sim, "gen")
        sink = Counter(sim, "sink")
        wire(source, sink, bandwidth_bps=None, propagation_delay_s=0.0,
             queue_frames=10_000)
        flows = make_flow_population(4, seed=1)
        schedule = burst_schedule(10_000.0, 0.01, burst_size=25)
        bursts = interleave_bursts(flows, schedule, seed=5)
        source.start(bursts)
        sim.run_until_idle()
        assert source.sent == 100
        assert sink.frames == 100
        assert sink.bursts == len(schedule)  # one delivery event per burst


class TestLatencyStats:
    def test_percentiles(self):
        stats = LatencyStats(samples=[float(i) for i in range(1, 101)])
        assert stats.p50 == pytest.approx(50.0, abs=1.0)
        assert stats.p99 == pytest.approx(99.0, abs=1.0)
        assert stats.maximum == 100.0
        assert stats.mean == pytest.approx(50.5)

    def test_empty_is_nan(self):
        import math

        assert math.isnan(LatencyStats().mean)


class TestHarness:
    def test_measure_forwarding_delivers_and_times(self):
        sim = Simulator()
        switch = SoftSwitch(
            sim, "dut", datapath_id=1,
            cost_model=DatapathCostModel(100.0, 0, 0, 0, 0, 0),
        )
        sink = make_sink(sim, "test")
        switch.add_port(1)
        Link(switch.add_port(2), sink.add_port(1), bandwidth_bps=None)
        switch.handle_message(
            FlowMod(
                match=Match(in_port=1),
                instructions=[ApplyActions(actions=(OutputAction(port=2),))],
            ).to_bytes()
        )
        flows = make_flow_population(4, seed=5)
        result = measure_forwarding(
            sim,
            "test",
            lambda frame: switch.inject(frame, 1),
            sink,
            flows,
            packets_per_flow=25,
            interval_s=1e-5,
        )
        assert result.offered_packets == 100
        assert result.delivered_packets == 100
        assert result.loss_rate == 0.0
        assert result.latency.count == 100
        assert result.latency.mean >= 100e-9

    def test_result_row_renders(self):
        sim = Simulator()
        sink = make_sink(sim, "row")
        sink.stats.offered_packets = 10
        sink.stats.delivered_packets = 10
        sink.stats.duration_s = 1.0
        assert "Mpps" in sink.stats.row()
