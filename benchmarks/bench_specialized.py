"""SPECIALIZE — the compiled program vs the reference interpreter.

ESwitch's headline result [Molnar et al., SIGCOMM 2016] is that
*specializing* the datapath to the installed flow tables beats
interpreting a general-purpose pipeline.  This bench measures our
reproduction of that idea (`softswitch/compiler.py`): one
zipf-weighted burst stream (`common.make_stream`) is pushed through
the same switch twice —

* ``interpreted`` — specialization disabled: every frame walks the
  interpreter over the staged classifier;
* ``specialized`` — the compiled program: shrunk flow-key extraction,
  unrolled probes, straight-line plans, one persistent key cache.

Two workload kinds per flow-table size:

* ``steady`` — no control-plane traffic after setup: the program
  compiles once (first burst) and serves everything;
* ``churn`` — one FlowMod into the hot table every ``CHURN_BURSTS``
  bursts, alternately adding and strictly deleting a rule on a
  field-set the program already probes: every mod is a **patch** (the
  program's derived decisions are flushed, its generated code kept —
  ``patches`` counts them), so one compile serves the whole run and
  throughput stays well above the interpreted baseline.  Only a mod
  that changes the program's shape would discard it, and the next
  burst would regenerate it.

Reported pps is the median across ``MEASURE_REPEATS`` passes.  Results
go to ``results/specialized.txt`` (human) and
``results/specialized.json`` (machine, gated by ``check_regression.py``
against ``baselines/specialized.json``).

Run standalone: ``PYTHONPATH=src python benchmarks/bench_specialized.py
[--fast]`` — ``--fast`` is the CI smoke mode.
"""

import statistics
import time

from repro.net.addresses import IPv4Address
from repro.netsim import Simulator
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.openflow import consts as c
from repro.softswitch import SoftSwitch

from common import (
    ACTIVE_FLOWS,
    MEASURE_REPEATS,
    ZERO_COST,
    chunk,
    install_exact_flows,
    make_stream,
    save_json,
    save_result,
    wire_counting_sinks,
)

#: flow-table size -> packets measured per run.
FULL_SIZES = {1_000: 40_000, 10_000: 20_000}
SMOKE_SIZES = {100: 20_000}

BURST_SIZE = 32
#: churn kind: one FlowMod into the hot table every this many bursts.
CHURN_BURSTS = 4


def churn_message(sequence: int) -> FlowMod:
    """Exact adds into the hot table under a 172.16/16 range no bench
    traffic matches, each strictly deleted by the next step — a
    same-table, same-field-set mutation the compiled program absorbs
    in place, which is exactly what the churn row measures."""
    if sequence % 2:  # delete the flow the previous step installed
        src = IPv4Address((172 << 24) | (16 << 16) | ((sequence - 1) % 65_536))
        return FlowMod(
            command=c.OFPFC_DELETE_STRICT,
            match=Match(eth_type=0x0800, ipv4_src=src),
            priority=50,
        )
    src = IPv4Address((172 << 24) | (16 << 16) | (sequence % 65_536))
    return FlowMod(
        match=Match(eth_type=0x0800, ipv4_src=src),
        priority=50,
        instructions=[ApplyActions(actions=(OutputAction(port=1),))],
    )


def build_dut(num_flows: int, packets: int, config: str):
    sim = Simulator()
    switch = SoftSwitch(
        sim,
        "dut",
        datapath_id=1,
        cost_model=ZERO_COST,
        enable_specialization=(config == "specialized"),
    )
    sinks = wire_counting_sinks(sim, switch, packets)
    install_exact_flows(switch, num_flows)
    return sim, switch, sinks


def run_one(num_flows: int, stream: list, config: str, kind: str) -> dict:
    packets = len(stream)
    sim, switch, sinks = build_dut(num_flows, packets, config)
    bursts = chunk(stream, BURST_SIZE)
    churn_raw = [
        churn_message(sequence).to_bytes()
        for sequence in range(len(bursts) // CHURN_BURSTS + 1)
    ]
    process_batch = switch.process_batch
    handle = switch.handle_message
    churn = kind == "churn"
    mods = 0
    start = time.perf_counter()
    if churn:
        for index, burst in enumerate(bursts):
            if index % CHURN_BURSTS == 0:
                handle(churn_raw[index // CHURN_BURSTS])
                mods += 1
            process_batch(4, burst)
    else:
        for burst in bursts:
            process_batch(4, burst)
    sim.run()
    elapsed = time.perf_counter() - start
    delivered = sum(sink.count for sink in sinks)
    assert delivered == packets, f"{config}/{kind}: {delivered}/{packets}"
    spec = switch.stats()["specialization"]
    return {
        "config": config,
        "kind": kind,
        "flows": num_flows,
        "burst": BURST_SIZE,
        "packets": packets,
        "churn_mods": mods,
        "pps": packets / elapsed,
        "elapsed_s": elapsed,
        "compiles": spec["compiles"],
        "patches": spec["patches"],
        "specialized_share": (
            spec["specialized_frames"] / packets if spec["enabled"] else 0.0
        ),
    }


def run_suite(sizes: dict) -> list:
    samples: "dict[tuple, list[dict]]" = {}
    streams = {
        num_flows: make_stream(num_flows, packets)
        for num_flows, packets in sizes.items()
    }
    for _ in range(MEASURE_REPEATS):
        for num_flows in sizes:
            for kind in ("steady", "churn"):
                for config in ("interpreted", "specialized"):
                    row = run_one(num_flows, streams[num_flows], config, kind)
                    samples.setdefault((num_flows, kind, config), []).append(row)
    rows = []
    for (num_flows, kind, config), runs in sorted(samples.items()):
        row = dict(runs[0])
        row["pps"] = statistics.median(run["pps"] for run in runs)
        row.pop("elapsed_s")
        rows.append(row)
    by_key = {(row["flows"], row["kind"], row["config"]): row for row in rows}
    for row in rows:
        if row["config"] == "specialized":
            row["speedup_vs_interpreted"] = (
                row["pps"] / by_key[(row["flows"], row["kind"], "interpreted")]["pps"]
            )
    return rows


def render(rows: list, mode: str) -> str:
    lines = [
        "=" * 76,
        "SPECIALIZE: compiled program vs interpreter (median wall-clock pps)",
        "=" * 76,
        f"mode: {mode}; zipf burst-{BURST_SIZE} stream over {ACTIVE_FLOWS} active "
        f"flows; churn = 1 FlowMod per {CHURN_BURSTS} bursts",
        "",
        f"{'flows':>7} {'kind':>7} {'config':>12} {'pps':>12} {'speedup':>8} "
        f"{'compiles':>9} {'patches':>8} {'spec share':>11}",
    ]
    for row in rows:
        speedup = (
            f"{row['speedup_vs_interpreted']:>7.2f}x"
            if "speedup_vs_interpreted" in row
            else f"{'—':>8}"
        )
        lines.append(
            f"{row['flows']:>7} {row['kind']:>7} {row['config']:>12} "
            f"{row['pps']:>12.0f} {speedup} {row['compiles']:>9} "
            f"{row['patches']:>8} {row['specialized_share']:>10.1%}"
        )
    return "\n".join(lines)


def test_specialized_speedup():
    """Acceptance: ≥1.5x median pps over the interpreter on
    the 10k-flow burst-32 workload, steady and under churn: mods
    inside the compiled shape patch the program instead of discarding
    it."""
    rows = run_suite(FULL_SIZES)
    save_result("specialized", render(rows, mode="full"))
    save_json("specialized", rows, mode="full")
    by_key = {(row["flows"], row["kind"], row["config"]): row for row in rows}
    assert by_key[(10_000, "steady", "specialized")]["speedup_vs_interpreted"] >= 1.5
    assert by_key[(1_000, "steady", "specialized")]["speedup_vs_interpreted"] >= 1.5
    # Steady state: one compile serves the whole run.
    assert by_key[(10_000, "steady", "specialized")]["compiles"] == 1
    assert by_key[(10_000, "steady", "specialized")]["specialized_share"] > 0.99
    # Churn: every mod lands inside the compiled shape, so it is
    # patched in place — the first compile (and at most one regenerate)
    # serves the run, at specialized speed.
    churn_row = by_key[(10_000, "churn", "specialized")]
    assert churn_row["compiles"] <= 2
    assert churn_row["patches"] >= churn_row["churn_mods"] - 1
    assert churn_row["speedup_vs_interpreted"] >= 1.5


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI smoke: small flow counts only"
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.fast else "full"
    rows = run_suite(SMOKE_SIZES if args.fast else FULL_SIZES)
    save_result("specialized", render(rows, mode=mode))
    path = save_json("specialized", rows, mode=mode)
    print(f"JSON archived at {path}")


if __name__ == "__main__":
    main()
