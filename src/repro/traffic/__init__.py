"""Synthetic workload generation (seeded, reproducible)."""

from repro.traffic.generators import (
    BurstSource,
    CrossPodFlow,
    FlowSpec,
    announcement_frame,
    burst_schedule,
    cbr_schedule,
    cross_pod_flows,
    interleave_bursts,
    make_flow_population,
    station_mac,
    synth_frame,
    zipf_weights,
)

__all__ = [
    "FlowSpec",
    "make_flow_population",
    "zipf_weights",
    "synth_frame",
    "cbr_schedule",
    "burst_schedule",
    "interleave_bursts",
    "BurstSource",
    "CrossPodFlow",
    "cross_pod_flows",
    "station_mac",
    "announcement_frame",
]
