"""STORM — containment latency and collateral loss under overload.

Three overload classes, each driven against a legacy-only fabric and a
part-migrated (hybrid) one, with the protection machinery off vs armed:

* ``storm``          — a broadcast storm (:meth:`FaultInjector.storm`)
  blasts a ring running live 802.1D while a mid-storm trunk cut forces
  an STP reroute under storm pressure.  Armed rows carry
  :class:`repro.legacy.StormControl` on the legacy switches and the
  same meter as ``flood_guard`` on every migrated SS_2, so the storm
  is contained on *both* sides of the legacy/SDN boundary; the hybrid
  row also arms table-miss suppression and the per-datapath packet-in
  limiter so the storm's control-plane echo stays bounded.
* ``fdb_pressure``   — a MAC-churn train (65 536 distinct source MACs,
  :func:`mac_churn_bursts`) against CAM-sized FDBs (256 entries):
  memory stays bounded at capacity, learning never refuses, and
  traffic to evicted MACs degrades to flooding
  (``flood_fallbacks``), not loss.  The hybrid variant bounds the
  per-source packet-in flood with the channel limiter.
* ``packetin_flood`` — a repeating miss train against a migrated
  fabric: unprotected, every repeat is a packet-in; armed, the
  miss-suppression negative cache plus the packet-in token bucket cut
  controller work by orders of magnitude while the post-flood sweep
  still converges clean.

Each row reports ``convergence_s`` (simulated time from the row's
anchor — the mid-storm cut, or the end of the injected train — to the
first fully clean reachability sweep) and ``frames_lost`` (probe pairs
failed on the way there).  Both are **pure simulated time**, identical
on any machine, so ``check_regression.py`` gates them against
``baselines/storm.json`` with zero machine tolerance; ``--fast`` runs
the same sizes (CLI uniformity only).

Run standalone: ``PYTHONPATH=src python benchmarks/bench_storm.py
[--fast]``.
"""

import json

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.core import HarmlessFleet
from repro.fabric import leaf_spine_fabric, ring_fabric
from repro.legacy import StormControl
from repro.net import IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.netsim import FaultInjector
from repro.traffic.generators import (
    BurstSource,
    burst_schedule,
    mac_churn_bursts,
)

from common import RESULTS_DIR, save_result

#: Reachability-sweep window / convergence deadline (simulated time).
SWEEP_WINDOW_S = 0.25
DEADLINE_S = 10.0

#: The injected broadcast storm: 20k fps for one second.
STORM_RATE_FPS = 20_000
STORM_DURATION_S = 1.0
STORM_BURST = 64
#: The mid-storm trunk flap: STP must reroute *under* storm pressure
#: (and back when the link returns), while reactive flows on migrated
#: sites idle out (``FLOW_IDLE_TIMEOUT_S``) instead of going stale.
CUT_INTO_STORM_S = 0.3
FLAP_HOLD_S = 0.5
FLOW_IDLE_TIMEOUT_S = 1

#: Armed storm-control policy: generous burst so reachability sweeps
#: and ARP chatter stay conforming, 10x under the storm's rate.
SC_RATE_FPS = 2000.0
SC_BURST = 256
SC_RECOVERY_S = 0.05

#: Control-plane protection: miss-suppression window and the
#: per-datapath packet-in bucket.
MISS_WINDOW_S = 0.05
PACKETIN_RATE_PPS = 2000.0
PACKETIN_BURST = 128

#: FDB pressure: a CAM-sized table vs a 64k-station churn train.
FDB_CAPACITY = 256
CHURN_STATIONS = 65_536
CHURN_RATE_PPS = 131_072.0  # the full train inside half a second
CHURN_BURST = 64
HYBRID_CHURN_STATIONS = 16_384

#: Packet-in flood: 16 distinct miss signatures, hammered 256x each.
MISS_TRAIN_DSTS = 16
MISS_TRAIN_FRAMES = 4096
MISS_TRAIN_RATE_PPS = 20_480.0

RING = dict(switches=4, hosts_per_switch=2)
PRESSURE = dict(
    edges=2, spines=1, hosts_per_edge=2, gen_ports_per_edge=1,
    processing_delay_s=0.0,
)


def armed_meter() -> StormControl:
    return StormControl(
        rate_fps=SC_RATE_FPS, burst=SC_BURST, recovery_s=SC_RECOVERY_S
    )


def build_ring():
    """The STP ring, settled past its initial election."""
    fabric = ring_fabric(stp=True, **RING)
    settle = max(tree.settle_s() for tree in fabric.stp.values())
    fabric.sim.run(until=fabric.sim.now + settle + 0.5)
    controller = Controller(fabric.sim)
    controller.add_app(LearningSwitchApp(idle_timeout=FLOW_IDLE_TIMEOUT_S))
    fleet = HarmlessFleet(fabric, controller=controller, wave_size=2)
    return fabric, fleet


def build_pressure(gen_site_index=0):
    """The small leaf-spine used by the pressure rows, plus a station."""
    fabric = leaf_spine_fabric(**PRESSURE)
    controller = Controller(fabric.sim)
    controller.add_app(LearningSwitchApp())
    fleet = HarmlessFleet(fabric, controller=controller, wave_size=2)
    site = fabric.edge_sites()[gen_site_index]
    station = BurstSource(fabric.sim, "churn-gen")
    fabric.attach_station(site.name, station)
    return fabric, fleet, station


def measure(fleet, row: dict, event: str) -> dict:
    report = fleet.await_reconvergence(
        event=event, window_s=SWEEP_WINDOW_S, deadline_s=DEADLINE_S
    )
    assert report.converged, (
        f"{row}: no reconvergence within {DEADLINE_S}s "
        f"({report.probes_lost} probes lost)"
    )
    row.update(
        event=event,
        convergence_s=report.convergence_s,
        frames_lost=report.probes_lost,
        sweeps=report.sweeps,
        pairs_per_sweep=report.pairs_per_sweep,
    )
    return row


# ------------------------------------------------------------------- storm


def _run_ring_storm(protect: bool, hybrid: bool) -> dict:
    fabric, fleet = build_ring()
    sim = fabric.sim
    if hybrid:
        fleet.migrate_next_wave(verify=True)
    ingress_name = next(
        name for name in fabric.sites if name not in fleet.deployments
    )
    if protect:
        for name, site in fabric.sites.items():
            if name in fleet.deployments:
                continue
            if hybrid and name == ingress_name:
                # The hybrid row leaves the storm's ingress switch bare
                # so containment is proven *downstream*, on both the
                # legacy and the migrated side of the boundary.
                continue
            site.switch.storm_control = armed_meter()
        for deployment in fleet.deployments.values():
            deployment.s4.ss2.flood_guard = armed_meter()
            deployment.s4.ss2.miss_suppression_s = MISS_WINDOW_S
            deployment.datapath.channel.configure_packetin_limit(
                rate_pps=PACKETIN_RATE_PPS, burst=PACKETIN_BURST
            )
    injector = FaultInjector(sim)
    storm_port = fabric.sites[ingress_name].hosts[0].port0
    at = sim.now + 0.01
    injector.storm(
        storm_port, at, STORM_DURATION_S,
        rate_fps=STORM_RATE_FPS, burst=STORM_BURST,
    )
    injector.link_flap(
        fabric.trunk_links[0], at + CUT_INTO_STORM_S, hold_s=FLAP_HOLD_S
    )
    sim.run(until=at + CUT_INTO_STORM_S)
    row = {
        "kind": "storm",
        "topology": "ring",
        "config": "hybrid" if hybrid else "legacy",
        "protection": "armed" if protect else "off",
        "storm_frames": injector.storm_frames_sent,
    }
    row = measure(fleet, row, event="storm")
    final = fleet.verify_reachability()
    assert final.ok, f"{row}: steady-state loss after recovery"
    suppressed = sum(
        site.switch.counters.storm_suppressed
        for site in fabric.sites.values()
    )
    guarded = sum(
        deployment.s4.ss2.floods_suppressed
        for deployment in fleet.deployments.values()
    )
    miss_suppressed = sum(
        deployment.s4.ss2.packet_ins_suppressed
        for deployment in fleet.deployments.values()
    )
    limited = sum(
        deployment.datapath.channel.packet_ins_limited
        for deployment in fleet.deployments.values()
    )
    row["storm_suppressed"] = suppressed
    row["floods_suppressed"] = guarded
    row["packet_ins_suppressed"] = miss_suppressed
    row["packet_ins_limited"] = limited
    if protect:
        assert suppressed > 0, f"{row}: no legacy meter tripped"
        if hybrid:
            # The migrated side is defended in depth: the miss cache
            # and the channel bucket usually absorb the storm's echo
            # before a PacketOut flood ever reaches the flood guard.
            assert guarded + miss_suppressed + limited > 0, (
                f"{row}: the migrated side never suppressed anything"
            )
    return row


def storm_legacy_off() -> dict:
    return _run_ring_storm(protect=False, hybrid=False)


def storm_legacy_armed() -> dict:
    return _run_ring_storm(protect=True, hybrid=False)


def storm_hybrid_off() -> dict:
    return _run_ring_storm(protect=False, hybrid=True)


def storm_hybrid_armed() -> dict:
    return _run_ring_storm(protect=True, hybrid=True)


# ----------------------------------------------------------- fdb pressure


def _churn(station, sim, stations: int, at: float) -> None:
    duration = stations / CHURN_RATE_PPS
    schedule = burst_schedule(CHURN_RATE_PPS, duration, CHURN_BURST, start_s=at)
    station.start(mac_churn_bursts(schedule, seed=1))
    sim.run(until=at + duration + 0.01)


def _run_fdb_pressure(hybrid: bool) -> dict:
    fabric, fleet, station = build_pressure()
    sim = fabric.sim
    if hybrid:
        fleet.migrate_all(verify=True, strict=True)
        for deployment in fleet.deployments.values():
            deployment.datapath.channel.configure_packetin_limit(
                rate_pps=PACKETIN_RATE_PPS, burst=PACKETIN_BURST
            )
    for site in fabric.sites.values():
        site.switch.fdb.capacity = FDB_CAPACITY
    stations = HYBRID_CHURN_STATIONS if hybrid else CHURN_STATIONS
    _churn(station, sim, stations, at=sim.now + 0.01)
    row = {
        "kind": "fdb_pressure",
        "topology": "leaf-spine",
        "config": "hybrid" if hybrid else "legacy",
        "protection": "armed" if hybrid else "off",
        "stations": stations,
    }
    evictions = 0
    fallbacks = 0
    for site in fabric.sites.values():
        fdb = site.switch.fdb
        assert len(fdb) <= FDB_CAPACITY, (
            f"{row}: {site.name} FDB grew past capacity ({len(fdb)})"
        )
        evictions += fdb.evictions
        fallbacks += fdb.flood_fallbacks
    assert evictions > 0, f"{row}: churn never hit the capacity policy"
    assert fallbacks > 0, f"{row}: nothing degraded to flooding"
    row["evictions"] = evictions
    row["flood_fallbacks"] = fallbacks
    if hybrid:
        row["packet_ins_limited"] = sum(
            deployment.datapath.channel.packet_ins_limited
            for deployment in fleet.deployments.values()
        )
        assert row["packet_ins_limited"] > 0, (
            f"{row}: the churn never pressured the packet-in budget"
        )
    row = measure(fleet, row, event="fdb_pressure")
    assert row["frames_lost"] == 0, f"{row}: full tables must flood, not drop"
    return row


def fdb_pressure_legacy() -> dict:
    return _run_fdb_pressure(hybrid=False)


def fdb_pressure_hybrid() -> dict:
    return _run_fdb_pressure(hybrid=True)


# --------------------------------------------------------- packet-in flood


def _miss_train(station, sim, at: float) -> None:
    """MISS_TRAIN_FRAMES frames cycling MISS_TRAIN_DSTS unknown MACs."""
    templates = [
        udp_frame(
            MACAddress(0x02_F0_00_00_AA_00),
            MACAddress(0x02_66_00_00_00_00 + index),
            IPv4Address("10.250.0.1"),
            IPv4Address("10.250.0.2"),
            1024 + index,
            2048,
            b"\x00" * 32,
        )
        for index in range(MISS_TRAIN_DSTS)
    ]
    duration = MISS_TRAIN_FRAMES / MISS_TRAIN_RATE_PPS
    schedule = burst_schedule(MISS_TRAIN_RATE_PPS, duration, 32, start_s=at)
    counter = 0
    bursts = []
    for start, count in schedule:
        frames = [
            templates[(counter + offset) % MISS_TRAIN_DSTS]
            for offset in range(count)
        ]
        counter += count
        bursts.append((start, frames))
    station.start(bursts)
    sim.run(until=at + duration + 0.01)


def _run_packetin_flood(config: str, protect: bool) -> dict:
    fabric, fleet, station = build_pressure()
    sim = fabric.sim
    if config == "hybrid":
        fleet.migrate_all(verify=True, strict=True)
        if protect:
            for deployment in fleet.deployments.values():
                deployment.s4.ss2.miss_suppression_s = MISS_WINDOW_S
                deployment.datapath.channel.configure_packetin_limit(
                    rate_pps=PACKETIN_RATE_PPS, burst=PACKETIN_BURST
                )
    before = sum(
        deployment.s4.ss2.packets_to_controller
        for deployment in fleet.deployments.values()
    )
    _miss_train(station, sim, at=sim.now + 0.01)
    row = {
        "kind": "packetin_flood",
        "topology": "leaf-spine",
        "config": config,
        "protection": "armed" if protect else "off",
        "train_frames": MISS_TRAIN_FRAMES,
    }
    row["packet_ins"] = sum(
        deployment.s4.ss2.packets_to_controller
        for deployment in fleet.deployments.values()
    ) - before
    row["packet_ins_suppressed"] = sum(
        deployment.s4.ss2.packet_ins_suppressed
        for deployment in fleet.deployments.values()
    )
    row["packet_ins_limited"] = sum(
        deployment.datapath.channel.packet_ins_limited
        for deployment in fleet.deployments.values()
    )
    return measure(fleet, row, event="packetin_flood")


def packetin_flood_legacy() -> dict:
    """The legacy analog: the train floods in hardware, zero controller
    messages by construction — the row anchors the matrix."""
    row = _run_packetin_flood("legacy", protect=False)
    assert row["packet_ins"] == 0
    return row


def packetin_flood_hybrid_off() -> dict:
    return _run_packetin_flood("hybrid", protect=False)


def packetin_flood_hybrid_armed() -> dict:
    return _run_packetin_flood("hybrid", protect=True)


ROWS = [
    storm_legacy_off,
    storm_legacy_armed,
    storm_hybrid_off,
    storm_hybrid_armed,
    fdb_pressure_legacy,
    fdb_pressure_hybrid,
    packetin_flood_legacy,
    packetin_flood_hybrid_off,
    packetin_flood_hybrid_armed,
]


def run_suite() -> list:
    rows = [row_fn() for row_fn in ROWS]
    flood_rows = {
        (row["config"], row["protection"]): row
        for row in rows
        if row["kind"] == "packetin_flood"
    }
    armed = flood_rows[("hybrid", "armed")]
    unprotected = flood_rows[("hybrid", "off")]
    assert armed["packet_ins"] * 10 <= unprotected["packet_ins"], (
        "miss suppression + packet-in limiting should cut controller "
        f"work >=10x (off {unprotected['packet_ins']}, "
        f"armed {armed['packet_ins']})"
    )
    return rows


def render(rows: list, mode: str) -> str:
    lines = [
        "=" * 76,
        "STORM: containment latency and collateral loss under overload",
        "=" * 76,
        f"mode: {mode}; sweep window {SWEEP_WINDOW_S}s, "
        "all metrics pure simulated time (machine-independent)",
        "",
        f"{'kind':>15} {'topology':>14} {'config':>7} {'prot':>6} "
        f"{'convergence':>12} {'lost':>5} {'packet-ins':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['kind']:>15} {row['topology']:>14} {row['config']:>7} "
            f"{row['protection']:>6} {row['convergence_s'] * 1e3:>9.0f} ms "
            f"{row['frames_lost']:>5} {row.get('packet_ins', '-'):>10}"
        )
    return "\n".join(lines)


def save_json(rows: list, mode: str):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"bench": "storm", "mode": mode, "rows": rows}
    path = RESULTS_DIR / "storm.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="accepted for CI uniformity; sizes are identical either way "
        "(the metrics are deterministic simulated time)",
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.fast else "full"
    rows = run_suite()
    save_result("storm", render(rows, mode=mode))
    path = save_json(rows, mode=mode)
    print(f"JSON archived at {path}")


if __name__ == "__main__":
    main()
