"""FABRIC — aggregate throughput of a fully migrated multi-switch fabric.

Every other bench measures one switch; this one measures the *network*:
a leaf-spine fabric of legacy edge switches is migrated wave by wave by
the :class:`HarmlessFleet`, one traffic station is attached per edge
pod, and a zipf-weighted cross-pod burst mix is pushed through the
fabric.  Every frame crosses three migrated hops (source edge S4 ->
spine S4 -> destination edge S4), each hop re-coalescing the burst
(legacy egress buffering -> trunk -> ``SoftSwitch.process_batch``), so
the whole stack — burst pipeline and the compiled SS_1/SS_2 programs —
is exercised per hop.

Reported per fabric size (2/4/8 edge switches):

* ``pps`` — aggregate frames delivered per wall-clock second (median
  across ``MEASURE_REPEATS`` passes; gated by ``check_regression.py``
  against ``baselines/fabric.json``);
* ``ss1_specialized_share`` / ``ss2_specialized_share`` — the share of
  the measured frames each datapath kind served from its compiled tier
  (``specialized_frames`` over ``specialized_frames + fallback_frames``
  from ``SoftSwitch.stats()["specialization"]``, summed over all hops;
  machine-independent, gated absolutely);
* ``packet_ins_migration`` / ``packet_ins_steady`` — controller load
  while the fleet migrates + primes vs during the measured run (the
  steady number should stay ~0: reactive installs happen once).

Run standalone: ``PYTHONPATH=src python benchmarks/bench_fabric.py
[--fast]`` — ``--fast`` is the CI smoke mode.
"""

import json
import statistics
import time

from repro.core import HarmlessFleet
from repro.fabric import leaf_spine_fabric
from repro.softswitch import DatapathCostModel
from repro.traffic import (
    BurstSource,
    announcement_frame,
    burst_schedule,
    cross_pod_flows,
    interleave_bursts,
    zipf_weights,
)

from common import MEASURE_REPEATS, RESULTS_DIR, save_result

#: Edge-switch counts per mode -> frames measured per run.
FULL_SIZES = {2: 12_000, 4: 12_000, 8: 12_000}
SMOKE_SIZES = {2: 4_000, 4: 4_000}

#: Frames per coalesced burst (the PR 3/4 sweet spot).
BURST_SIZE = 32
#: Distinct 5-tuples per ordered pod pair.
FLOWS_PER_PAIR = 4
#: Zipf skew of the cross-pod mix.
TRAFFIC_SKEW = 1.0

ZERO_COST = DatapathCostModel.zero()


def build_fabric(edges: int):
    """A fully migrated leaf-spine fabric with one station per pod."""
    fabric = leaf_spine_fabric(
        edges=edges,
        spines=1,
        hosts_per_edge=1,
        gen_ports_per_edge=1,
        processing_delay_s=0.0,
        host_bandwidth_bps=None,
        trunk_bandwidth_bps=None,
        queue_frames=1_000_000,
    )
    fleet = HarmlessFleet(
        fabric,
        wave_size=2,
        cost_model=ZERO_COST,
        queue_frames=1_000_000,
    )
    fleet.migrate_all(verify=True, strict=True)
    stations = []
    for index, site in enumerate(fabric.edge_sites()):
        station = BurstSource(fabric.sim, f"gen{index}")
        fabric.attach_station(site.name, station, bandwidth_bps=None)
        stations.append(station)
    return fabric, fleet, stations


def prime(fabric, fleet, stations, flows) -> None:
    """Announce every destination, then run one frame per flow.

    After this, every SS_2 on every path holds the reactive flow rules
    and the measured run is pure data plane (steady state).
    """
    sim = fabric.sim
    for flow in flows:
        stations[flow.dst_pod].port0.send(announcement_frame(flow.spec))
    sim.run(until=sim.now + 0.5)
    for flow in flows:
        stations[flow.src_pod].port0.send(flow.spec.frame(payload_len=32))
    sim.run(until=sim.now + 0.5)


def pod_bursts(stations, flows, packets: int, start_s: float):
    """Per-pod zipf burst schedules totalling *packets* frames."""
    pods = len(stations)
    per_pod = packets // pods
    all_bursts = []
    for pod in range(pods):
        specs = [flow.spec for flow in flows if flow.src_pod == pod]
        schedule = burst_schedule(
            rate_pps=1e6,
            duration_s=per_pod / 1e6,
            burst_size=BURST_SIZE,
            start_s=start_s,
        )
        bursts = interleave_bursts(
            specs,
            schedule,
            seed=pod,
            weights=zipf_weights(len(specs), skew=TRAFFIC_SKEW),
            payload_len=32,
            train_len=4,
        )
        all_bursts.append(bursts)
    return all_bursts


def served_tiers(fleet) -> "dict[str, tuple[int, int]]":
    """``{"ss1": (specialized, fallback), "ss2": ...}`` frame counts,
    summed over every migrated datapath of that kind."""
    totals = {"ss1": (0, 0), "ss2": (0, 0)}
    for deployment in fleet.deployments.values():
        for kind in totals:
            stats = getattr(deployment.s4, kind).stats()["specialization"]
            specialized, fallback = totals[kind]
            totals[kind] = (
                specialized + stats["specialized_frames"],
                fallback + stats["fallback_frames"],
            )
    return totals


def specialized_share(before: "tuple[int, int]", after: "tuple[int, int]") -> float:
    specialized = after[0] - before[0]
    served = specialized + after[1] - before[1]
    return specialized / served if served else 0.0


def run_one(edges: int, packets: int) -> dict:
    fabric, fleet, stations = build_fabric(edges)
    sim = fabric.sim
    app = fleet.controller.apps[0]
    flows = cross_pod_flows(pods=edges, per_pair=FLOWS_PER_PAIR, seed=edges)
    prime(fabric, fleet, stations, flows)
    packet_ins_migration = app.packet_ins_handled

    bursts_per_pod = pod_bursts(stations, flows, packets, start_s=sim.now + 1e-3)
    injected = sum(
        len(frames) for bursts in bursts_per_pod for _, frames in bursts
    )
    rx_before = sum(station.rx_count for station in stations)
    tiers_before = served_tiers(fleet)

    start = time.perf_counter()
    for station, bursts in zip(stations, bursts_per_pod):
        station.start(bursts)
    sim.run()
    elapsed = time.perf_counter() - start

    delivered = sum(station.rx_count for station in stations) - rx_before
    assert delivered == injected, f"edges={edges}: {delivered}/{injected}"
    tiers = served_tiers(fleet)
    return {
        "config": "leaf-spine",
        "edges": edges,
        "hops": 3,
        "packets": injected,
        "pps": injected / elapsed,
        "elapsed_s": elapsed,
        "ss1_specialized_share": specialized_share(tiers_before["ss1"], tiers["ss1"]),
        "ss2_specialized_share": specialized_share(tiers_before["ss2"], tiers["ss2"]),
        "packet_ins_migration": packet_ins_migration,
        "packet_ins_steady": app.packet_ins_handled - packet_ins_migration,
    }


def run_suite(sizes: dict) -> list:
    samples: "dict[int, list[dict]]" = {}
    for _ in range(MEASURE_REPEATS):
        for edges, packets in sizes.items():
            samples.setdefault(edges, []).append(run_one(edges, packets))
    rows = []
    for edges, runs in sorted(samples.items()):
        row = dict(runs[0])
        row["pps"] = statistics.median(run["pps"] for run in runs)
        row.pop("elapsed_s")
        rows.append(row)
    return rows


def render(rows: list, mode: str) -> str:
    lines = [
        "=" * 76,
        "FABRIC: aggregate pps across a fully migrated leaf-spine fabric",
        "=" * 76,
        f"mode: {mode}; burst {BURST_SIZE}, {FLOWS_PER_PAIR} flows/pod-pair, "
        "3 migrated hops per frame",
        "",
        f"{'edges':>6} {'pkts':>7} {'pps':>12} {'ss1 compiled':>13} "
        f"{'ss2 compiled':>13} {'pkt-ins (mig)':>14} {'pkt-ins (steady)':>17}",
    ]
    for row in rows:
        lines.append(
            f"{row['edges']:>6} {row['packets']:>7} {row['pps']:>12.0f} "
            f"{row['ss1_specialized_share']:>12.1%} "
            f"{row['ss2_specialized_share']:>12.1%} {row['packet_ins_migration']:>14} "
            f"{row['packet_ins_steady']:>17}"
        )
    return "\n".join(lines)


def save_json(rows: list, mode: str):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"bench": "fabric", "mode": mode, "rows": rows}
    path = RESULTS_DIR / "fabric.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI smoke: small fabrics only"
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.fast else "full"
    rows = run_suite(SMOKE_SIZES if args.fast else FULL_SIZES)
    save_result("fabric", render(rows, mode=mode))
    path = save_json(rows, mode=mode)
    print(f"JSON archived at {path}")


if __name__ == "__main__":
    main()
