"""TIERS — every fast tier of the software datapath against its oracle.

HARMLESS puts a commodity software switch on every migrated frame's
path, and each fast tier of this one earns its place by ablation: a row
times the tier against the tier it stands in for, in one process, on
the same frames.

* **Masked scaling** (``masked-250``, ``masked-4000``; ``masked-1000``
  in full mode): the subtable classifier against the linear scan, with
  specialization off, over M masked prefix entries spread across 8
  mask-sets plus a match-all drop.  The classifier costs O(mask-sets) a
  lookup, so its rate should hold as M grows while the scan decays.
* **Exact flows** (``steady``, ``churn``): the compiled program against
  the reference interpreter, on a zipf burst stream over exact 5-tuple
  rules; ``churn`` adds one FlowMod every ``CHURN_BURSTS`` bursts, an
  exact add strictly deleted by the next, which the program absorbs as
  a patch.
* **Use cases** (``dmz``, ``lb``, ``pc``): the compiled program against
  the interpreter on SS_2 of the paper's three use-case sites
  (:mod:`repro.core.verify`), the whole site's delivery included.

**Method** (NFPA's: a warm-up, then repeated passes).  Each config's rig is
built once and runs one untimed warm-up pass.  Then ``pairs`` pairs of
timed passes alternate between the two configs, and the one that goes
first switches every pair.  A row's ratio is the median of its per-pair
ratios (the oracle's seconds over the fast tier's), so a scheduler
hiccup costs one pair rather than the row, and a faster or slower
machine moves both sides of every pair alike.  Every pair is printed.

**The gate** checks only same-run ratios and machine-independent
counters, against the constants below, and exits 1 naming each row
whose check misses:

* a compiled row's ratio is at least ``FLOOR_FACTOR`` x its
  ``REFERENCE`` and at least 1 (EXPERIMENTS.md, TIERS, says where each
  reference comes from; the factor never moves);
* every compiled pass serves more than ``MIN_SPECIALIZED_SHARE`` of its
  own frames from the program;
* steady state compiles once; under churn at most twice, with every
  mod but one patched;
* the classifier keeps more than half its rate from the smallest to the
  largest masked table (the two timed in pairs as well), and the linear
  scan decays more than twice as much;
* every exact-flow and masked frame reaches a sink.

Run: ``PYTHONPATH=src python benchmarks/bench_tiers.py [--fast]``
(``--fast`` is the CI smoke mode).  The table and every pair go to
``benchmarks/results/tiers.txt``, the rows to ``tiers.json``.
"""

import argparse
import json
import pathlib
import statistics
import sys
import time

from repro.core.verify import (
    dmz_datapath_rig,
    lb_datapath_rig,
    pc_datapath_rig,
    run_datapath_pass,
)
from repro.net import IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.netsim import Simulator
from repro.netsim.link import wire
from repro.netsim.node import Node
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.openflow import consts as c
from repro.softswitch import DatapathCostModel, SoftSwitch
from repro.traffic import FlowSpec, interleave_bursts, zipf_weights

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: A compiled row's ratio floor is this factor times its reference, and
#: never below 1: a compiled tier slower than the interpreter does not
#: earn its place.
FLOOR_FACTOR = 0.75
#: Compiled over interpreted, per row: the last smoke baseline of the
#: benches this one replaced, or, where that read higher, the median of
#: at least 33 alternating pairs of this loop on the code it was first
#: run against (steady 6.04 and churn 5.26 before; EXPERIMENTS.md, TIERS).
REFERENCE = {"steady": 5.39, "churn": 4.49, "dmz": 1.146, "lb": 1.328, "pc": 3.702}
#: Every frame of a settled pass has a compiled entry; the share has
#: read exactly 1 on every row and run.
MIN_SPECIALIZED_SHARE = 0.99

#: mode -> (pairs, masked entries -> frames a pass, exact flows, frames a
#: pass, use-case frames a pass)
MODES = {
    "smoke": (9, {250: 1_000, 4_000: 1_000}, 100, 8_000, 1_000),
    "full": (15, {250: 2_000, 1_000: 2_000, 4_000: 2_000}, 10_000, 10_000, 3_000),
}
#: The PC rig's pass is this many times the other use cases': its
#: site drops every frame at SS_2, so a pass of the same length would
#: last a few milliseconds.
PC_PASS_FACTOR = 4

BURST = 32
#: churn: one FlowMod into the hot table every this many bursts.
CHURN_BURSTS = 4
#: The working set every exact-flow and masked stream cycles through.
ACTIVE_FLOWS = 64
#: Distinct prefix lengths, and so mask-sets, of the masked entries.
PREFIX_LENGTHS = tuple(range(17, 25))

ZERO_COST = DatapathCostModel.zero()
MAC_SRC = MACAddress("02:00:00:00:aa:01")
MAC_DST = MACAddress("02:00:00:00:bb:02")


class CountingSink(Node):
    """A port peer that counts what it receives."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.count = 0

    def receive(self, port, frame) -> None:
        self.count += 1

    def receive_burst(self, port, frames, arrivals) -> None:
        self.count += len(frames)


def bench_switch(fast_path: bool, specialize: bool):
    """A cost-free switch with three counting sinks on ports 1-3.  Their
    links queue without limit: a pass arrives at one simulated instant."""
    sim = Simulator()
    switch = SoftSwitch(sim, "dut", datapath_id=1, cost_model=ZERO_COST,
                        enable_fast_path=fast_path, enable_specialization=specialize)
    sinks = []
    for _ in range(3):
        sinks.append(CountingSink(sim, "sink"))
        wire(switch, sinks[-1], bandwidth_bps=None, propagation_delay_s=0.0,
             queue_frames=1 << 30)
    return sim, switch, sinks


def install(switch, match: Match, priority: int, port: "int | None") -> None:
    actions = [] if port is None else [ApplyActions(actions=(OutputAction(port=port),))]
    message = FlowMod(match=match, priority=priority, instructions=actions)
    if switch.handle_message(message.to_bytes()):
        raise RuntimeError(f"the switch refused {message}")


def delivered(sinks, frames: int, passes: int) -> "str | None":
    got = sum(sink.count for sink in sinks)
    want = frames * passes
    return None if got == want else f"delivered {got} of {want} frames"


# ------------------------------------------------------- masked scaling


def scaling_network(index: int) -> "tuple[int, int, int]":
    """Entry *index*'s (network, mask, prefix length): round-robin over
    PREFIX_LENGTHS, disjoint within a length, and priority is the prefix
    length, so the /24 tier wins for the bench traffic."""
    bits = PREFIX_LENGTHS[index % len(PREFIX_LENGTHS)]
    position = index // len(PREFIX_LENGTHS)
    mask = (0xFFFFFFFF << (32 - bits)) & 0xFFFFFFFF
    return ((10 << 24) | (position << (32 - bits))) & mask, mask, bits


def masked_rig(entries: int, frames: int, classifier: bool):
    """One frame at a time (``inject``) to /24 entries spread across a
    table of *entries* masked entries."""
    sim, switch, sinks = bench_switch(fast_path=classifier, specialize=False)
    for index in range(entries):
        network, mask, bits = scaling_network(index)
        install(switch, Match(eth_type=0x0800, ipv4_dst=(network, mask)), bits, index % 3 + 1)
    install(switch, Match(), 0, None)
    targets = [i for i in range(entries) if PREFIX_LENGTHS[i % len(PREFIX_LENGTHS)] == 24]
    active = [
        udp_frame(MAC_SRC, MAC_DST, IPv4Address("10.255.0.1"),
                  IPv4Address(scaling_network(targets[i * len(targets) // ACTIVE_FLOWS])[0] | 1),
                  1000, 2000, b"x" * 32)
        for i in range(ACTIVE_FLOWS)
    ]
    stream = [active[i % ACTIVE_FLOWS] for i in range(frames)]
    inject = switch.inject

    def run() -> None:
        for frame in stream:
            inject(frame, 4)
        sim.run()

    return run, lambda passes: [delivered(sinks, frames, passes)]


# ---------------------------------------------------------- exact flows


def flow_addresses(index: int):
    return IPv4Address((10 << 24) | index), IPv4Address((11 << 24) | index)


def exact_stream(flows: int, frames: int) -> list:
    """A zipf-weighted stream over ACTIVE_FLOWS of the *flows* exact
    flows, spread across the table, in per-flow trains of up to 4; every
    frame a distinct object, as a deployed switch sees them."""
    stride = max(flows // ACTIVE_FLOWS, 1)
    specs = [
        FlowSpec(src_mac=MAC_SRC, dst_mac=MAC_DST, src_ip=src, dst_ip=dst,
                 src_port=1000, dst_port=2000)
        for src, dst in (flow_addresses(slot * stride % flows)
                         for slot in range(min(flows, ACTIVE_FLOWS)))
    ]
    ((_, stream),) = interleave_bursts(
        specs, [(0.0, frames)], seed=flows, weights=zipf_weights(len(specs), skew=1.0),
        payload_len=32, train_len=4,
    )
    return [frame.copy() for frame in stream]


def churn_message(sequence: int) -> bytes:
    """An exact add under 172.16/16, which no bench traffic matches, for
    even *sequence*; the strict delete of the previous add for odd: a
    same-table, same-field-set mod the program patches in place."""
    src = IPv4Address((172 << 24) | (16 << 16) | (sequence - sequence % 2))
    if sequence % 2:
        message = FlowMod(command=c.OFPFC_DELETE_STRICT,
                          match=Match(eth_type=0x0800, ipv4_src=src), priority=50)
    else:
        message = FlowMod(match=Match(eth_type=0x0800, ipv4_src=src), priority=50,
                          instructions=[ApplyActions(actions=(OutputAction(port=1),))])
    return message.to_bytes()


def exact_rig(flows: int, stream: list, specialize: bool, churn: bool):
    sim, switch, sinks = bench_switch(fast_path=True, specialize=specialize)
    for index in range(flows):
        src, dst = flow_addresses(index)
        install(switch, Match(eth_type=0x0800, ipv4_src=src, ipv4_dst=dst, udp_dst=2000),
                100, index % 3 + 1)
    install(switch, Match(), 0, None)
    bursts = [stream[i : i + BURST] for i in range(0, len(stream), BURST)]
    # Built before any pass is timed, an even number of them, so that
    # replayed pass after pass every add is still deleted by the next.
    slots = -(-len(bursts) // CHURN_BURSTS)
    messages = [churn_message(sequence) for sequence in range(slots + slots % 2)]
    process_batch, handle = switch.process_batch, switch.handle_message
    mods = 0
    shares = []  # of each pass's frames, the compiled program served

    def run() -> None:
        nonlocal mods
        served = switch.specialized_frames
        for index, burst in enumerate(bursts):
            if churn and index % CHURN_BURSTS == 0:
                handle(messages[mods % len(messages)])
                mods += 1
            process_batch(4, burst)
        sim.run()
        shares.append((switch.specialized_frames - served) / len(stream))

    def checks(passes: int) -> list:
        spec = switch.stats()["specialization"]
        problems = [delivered(sinks, len(stream), passes)]
        if specialize and not churn and spec["compiles"] != 1:
            problems.append(f"compiled {spec['compiles']} times in steady state")
        if specialize and churn and spec["compiles"] > 2:
            problems.append(f"compiled {spec['compiles']} times under churn")
        if specialize and churn and spec["patches"] < mods - 1:
            problems.append(f"patched {spec['patches']} of {mods} mods")
        return problems

    return run, checks, shares


# ------------------------------------------------------------ the loop


def paired(name: str, fast, oracle, pairs: int, log: list) -> "list[tuple]":
    """One warm-up pass each, then *pairs* timed pairs, the first side
    alternating; ``(fast seconds, oracle seconds)`` per pair."""
    fast()
    oracle()
    timings = []
    for pair in range(pairs):
        seconds = {}
        for run in (fast, oracle) if pair % 2 == 0 else (oracle, fast):
            start = time.perf_counter()
            run()
            seconds[run] = time.perf_counter() - start
        timings.append((seconds[fast], seconds[oracle]))
        log.append(f"{name:>12} pair {pair:2d}: fast {seconds[fast] * 1e3:8.2f} ms  "
                   f"oracle {seconds[oracle] * 1e3:8.2f} ms  "
                   f"x{seconds[oracle] / seconds[fast]:.2f}")
    return timings


def row(name: str, frames: int, timings: list, problems: list) -> dict:
    ratios = [oracle / fast for fast, oracle in timings]
    return {
        "row": name,
        "frames": frames,
        "pairs": len(timings),
        "ratio": statistics.median(ratios),
        "pair_ratios": ratios,
        "fast_pps": statistics.median(frames / fast for fast, _ in timings),
        "oracle_pps": statistics.median(frames / oracle for _, oracle in timings),
        "problems": [problem for problem in problems if problem],
    }


def run_masked(sizes: dict, pairs: int, log: list) -> list:
    rows, classifiers = [], []
    for entries, frames in sizes.items():
        fast, fast_checks = masked_rig(entries, frames, classifier=True)
        oracle, oracle_checks = masked_rig(entries, frames, classifier=False)
        timings = paired(f"masked-{entries}", fast, oracle, pairs, log)
        rows.append(row(f"masked-{entries}", frames, timings,
                        fast_checks(pairs + 1) + oracle_checks(pairs + 1)))
        classifiers.append(fast)
    # The classifier at the largest table against itself at the smallest,
    # paired too (both pass the same number of frames): its decay.  The
    # scan's decay is the classifier's times the change in their ratio.
    timings = paired("decay", classifiers[-1], classifiers[0], pairs, log)
    small, large = rows[0], rows[-1]
    classifier_decay = statistics.median(smallest / largest for largest, smallest in timings)
    linear_decay = classifier_decay * small["ratio"] / large["ratio"]
    large["decay"] = {"classifier": classifier_decay, "linear": linear_decay}
    if not classifier_decay > 0.5:
        large["problems"].append(f"classifier decay {classifier_decay:.2f}, not above 0.5")
    if not linear_decay < classifier_decay / 2:
        large["problems"].append(
            f"linear decay {linear_decay:.2f}, not below half the classifier's "
            f"{classifier_decay:.2f}")
    return rows


def compiled_row(name: str, frames: int, timings: list, problems: list,
                 shares: list) -> dict:
    result = row(name, frames, timings, problems)
    result["floor"] = max(FLOOR_FACTOR * REFERENCE[name], 1.0)
    result["specialized_share"] = min(shares)
    if result["ratio"] < result["floor"]:
        result["problems"].append(f"ratio x{result['ratio']:.2f} under its floor "
                                  f"x{result['floor']:.2f}")
    if not min(shares) > MIN_SPECIALIZED_SHARE:
        result["problems"].append(f"specialized share {min(shares):.3f}, not above "
                                  f"{MIN_SPECIALIZED_SHARE}")
    return result


def run_exact(flows: int, frames: int, pairs: int, log: list) -> list:
    stream = exact_stream(flows, frames)
    rows = []
    for name, churn in (("steady", False), ("churn", True)):
        fast, fast_checks, shares = exact_rig(flows, stream, True, churn)
        oracle, oracle_checks, _ = exact_rig(flows, stream, False, churn)
        timings = paired(name, fast, oracle, pairs, log)
        rows.append(compiled_row(name, frames, timings,
                                 fast_checks(pairs + 1) + oracle_checks(pairs + 1), shares))
    return rows


def run_usecases(frames: int, pairs: int, log: list) -> list:
    rows = []
    for name, make_rig, packets in (("dmz", dmz_datapath_rig, frames),
                                     ("lb", lb_datapath_rig, frames),
                                     ("pc", pc_datapath_rig, frames * PC_PASS_FACTOR)):
        fast_rig, oracle_rig = make_rig(True), make_rig(False)
        shares = []
        timings = paired(
            name,
            lambda: shares.append(run_datapath_pass(fast_rig, packets)["specialized_share"]),
            lambda: run_datapath_pass(oracle_rig, packets),
            pairs, log,
        )
        rows.append(compiled_row(name, packets, timings, [], shares))
    return rows


def render(rows: list, mode: str, pairs: int) -> str:
    lines = [
        "=" * 78,
        f"TIERS: each fast tier against its oracle ({mode}; median of {pairs} "
        "alternating pairs)",
        "=" * 78,
        f"{'row':>12} {'frames':>7} {'fast pps':>11} {'oracle pps':>11} {'ratio':>7} "
        f"{'floor':>6} {'share':>6}  verdict",
    ]
    for result in rows:
        floor = f"x{result['floor']:.2f}" if "floor" in result else "—"
        share = (f"{result['specialized_share']:.1%}"
                 if "specialized_share" in result else "—")
        lines.append(
            f"{result['row']:>12} {result['frames']:>7} {result['fast_pps']:>11.0f} "
            f"{result['oracle_pps']:>11.0f} {'x' + format(result['ratio'], '.2f'):>7} "
            f"{floor:>6} {share:>6}  {'FAIL' if result['problems'] else 'ok'}")
        if "decay" in result:
            lines.append(f"{'':>12} decay to the largest table: classifier "
                         f"x{result['decay']['classifier']:.2f}, linear "
                         f"x{result['decay']['linear']:.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--fast", action="store_true", help="CI smoke: fewer, smaller passes")
    mode = "smoke" if parser.parse_args(argv).fast else "full"
    pairs, masked_sizes, flows, exact_frames, usecase_frames = MODES[mode]
    log = []
    rows = (run_masked(masked_sizes, pairs, log)
            + run_exact(flows, exact_frames, pairs, log)
            + run_usecases(usecase_frames, pairs, log))
    failures = [f"{result['row']}: {problem}"
                for result in rows for problem in result["problems"]]
    text = "\n".join([render(rows, mode, pairs), "", *log, "",
                      *(f"FAIL {failure}" for failure in failures),
                      "FAIL" if failures else "PASS: every row meets its checks"])
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "tiers.txt").write_text(text + "\n")
    (RESULTS_DIR / "tiers.json").write_text(
        json.dumps({"bench": "tiers", "mode": mode, "rows": rows}, indent=2) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
