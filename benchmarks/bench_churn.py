"""CHURN — masked-table scaling of the staged classifier.

HARMLESS keeps commodity software switches on the forwarding path
while controllers keep growing their tables, so a lookup must not cost
O(table).  One experiment, **masked scaling**: M masked (prefix)
entries spread over 8 distinct mask-sets, plus a match-all drop rule,
specialization off.  The staged-subtable classifier costs
O(#mask-sets) per lookup, so pps should stay ~flat in M while the seed
linear scan degrades.  The ``subtables`` column counts every mask-set
in the table, the match-all's empty one included (9, not 8).

Results go to ``results/churn.txt`` (human) and ``results/churn.json``
(machine; compared against ``baselines/churn.json`` by
``check_regression.py`` in CI).

Run standalone: ``PYTHONPATH=src python benchmarks/bench_churn.py
[--fast]`` — ``--fast`` is the CI smoke mode (smaller sizes).
"""

import time

from repro.net.addresses import IPv4Address
from repro.net.build import udp_frame
from repro.netsim import Simulator
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.softswitch import SoftSwitch

from common import (
    ACTIVE_FLOWS,
    BENCH_MAC_DST,
    BENCH_MAC_SRC,
    MEASURE_REPEATS,
    ZERO_COST,
    keep_best,
    save_json,
    save_result,
    wire_counting_sinks,
)

#: masked entries -> packets measured (the seed linear baseline is
#: the wall-clock limiter at large M).
FULL_SCALING = {250: 4_000, 1_000: 2_000, 4_000: 1_000}
SMOKE_SCALING = {250: 2_000, 4_000: 2_000}

#: Distinct prefix lengths = distinct mask-sets of the masked entries.
PREFIX_LENGTHS = tuple(range(17, 25))


def scaling_network(index):
    """Entry *index*'s (network, mask, prefix_len, priority).

    Entries spread round-robin over PREFIX_LENGTHS; within one prefix
    length the networks are laid out disjointly, and priority equals
    the prefix length (longest-prefix-match idiom), so the /24 tier
    always wins for the bench traffic.
    """
    bits = PREFIX_LENGTHS[index % len(PREFIX_LENGTHS)]
    position = index // len(PREFIX_LENGTHS)
    mask = (0xFFFFFFFF << (32 - bits)) & 0xFFFFFFFF
    network = ((10 << 24) | (position << (32 - bits))) & mask
    return network, mask, bits


def build_masked_switch(num_entries, config, packets):
    sim = Simulator()
    switch = SoftSwitch(
        sim,
        "dut",
        datapath_id=1,
        cost_model=ZERO_COST,
        enable_fast_path=(config != "linear"),
        enable_specialization=False,
    )
    sinks = wire_counting_sinks(sim, switch, packets)
    for index in range(num_entries):
        network, mask, bits = scaling_network(index)
        message = FlowMod(
            match=Match(eth_type=0x0800, ipv4_dst=(network, mask)),
            priority=bits,
            instructions=[ApplyActions(actions=(OutputAction(port=index % 3 + 1),))],
        )
        assert switch.handle_message(message.to_bytes()) == []
    drop = FlowMod(match=Match(), priority=0, instructions=[])
    assert switch.handle_message(drop.to_bytes()) == []
    return sim, switch, sinks


def masked_traffic(num_entries, packets):
    """Frames destined to /24 entries spread across the table."""
    targets = [
        index
        for index in range(num_entries)
        if PREFIX_LENGTHS[index % len(PREFIX_LENGTHS)] == 24
    ]
    active = [targets[i * len(targets) // ACTIVE_FLOWS] for i in range(ACTIVE_FLOWS)]
    frames = []
    for index in active:
        network, _, _ = scaling_network(index)
        frames.append(
            udp_frame(
                BENCH_MAC_SRC,
                BENCH_MAC_DST,
                IPv4Address("10.255.0.1"),
                IPv4Address(network | 1),
                1000,
                2000,
                b"x" * 32,
            )
        )
    return [frames[i % len(frames)] for i in range(packets)]


def run_scaling(num_entries, packets, config):
    sim, switch, sinks = build_masked_switch(num_entries, config, packets)
    frames = masked_traffic(num_entries, packets)
    inject = switch.inject
    start = time.perf_counter()
    for frame in frames:
        inject(frame, 4)
    sim.run()
    elapsed = time.perf_counter() - start
    delivered = sum(sink.count for sink in sinks)
    assert delivered == packets, f"{config}@{num_entries}: {delivered}/{packets}"
    table = switch.tables[0]
    return {
        "config": config,
        "masked_entries": num_entries,
        "subtables": table.subtable_count,
        "packets": packets,
        "pps": packets / elapsed,
        "elapsed_s": elapsed,
    }


# ------------------------------------------------------------- reporting


def run_suite(scaling_sizes):
    best_scaling = {}
    for _ in range(MEASURE_REPEATS):
        for num_entries, packets in scaling_sizes.items():
            for config in ("linear", "classifier"):
                keep_best(
                    best_scaling,
                    (num_entries, config),
                    run_scaling(num_entries, packets, config),
                )
    return list(best_scaling.values())


def render(scaling_rows, mode):
    lines = [
        "=" * 76,
        "MASKED SCALING: staged subtables vs seed linear scan",
        "=" * 76,
        f"mode: {mode}; working set {ACTIVE_FLOWS} flows",
        "",
        f"{'masked entries':>15} {'subtables':>10} {'linear pps':>12} "
        f"{'classifier pps':>15} {'ratio':>7}",
    ]
    by_size = {}
    for row in scaling_rows:
        by_size.setdefault(row["masked_entries"], {})[row["config"]] = row
    for size in sorted(by_size):
        pair = by_size[size]
        ratio = pair["classifier"]["pps"] / pair["linear"]["pps"]
        lines.append(
            f"{size:>15} {pair['classifier']['subtables']:>10} "
            f"{pair['linear']['pps']:>12.0f} {pair['classifier']['pps']:>15.0f} "
            f"{ratio:>6.1f}x"
        )
    return "\n".join(lines)


def check_acceptance(scaling_rows):
    """The acceptance criteria, asserted on every run."""
    sizes = sorted({row["masked_entries"] for row in scaling_rows})
    small, large = sizes[0], sizes[-1]
    pps = {
        (row["config"], row["masked_entries"]): row["pps"] for row in scaling_rows
    }
    classifier_decay = pps[("classifier", large)] / pps[("classifier", small)]
    linear_decay = pps[("linear", large)] / pps[("linear", small)]
    # The staged tier holds its rate as the masked table grows; the
    # linear scan decays roughly with the table size.
    assert classifier_decay > 0.5, classifier_decay
    assert linear_decay < classifier_decay / 2, (linear_decay, classifier_decay)


def test_churn_acceptance():
    """Acceptance: bounded masked lookups."""
    check_acceptance(run_suite(SMOKE_SCALING))


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI smoke: smaller sizes"
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.fast else "full"
    scaling_rows = run_suite(SMOKE_SCALING if args.fast else FULL_SCALING)
    check_acceptance(scaling_rows)
    save_result("churn", render(scaling_rows, mode))
    path = save_json("churn", scaling_rows, mode)
    print(f"JSON archived at {path}")


if __name__ == "__main__":
    main()
