"""Where the ``fabric_steady`` drive region goes, by role inside the S4.

ROADMAP item 4: the benchmark's tracer reports the software datapath
as one layer; this splits it.  ``receive_burst`` of both switch classes
and ``Port.send_burst`` / ``deliver_burst`` are wrapped from outside and
their self times summed by who owns the call: SS_1 (the translator),
SS_2, patch links, trunk links, legacy, other links.  The legacy
switch's ``_general_path`` is wrapped too and gets its own row — the
frames (and their self time) that fell through the forwarding cache to
the slow path, taken out of the ``legacy`` row.

One run makes ``PASSES`` passes, each on a freshly built fabric (set-up
runs unwrapped), and prints each role's median µs per frame with its
min–max over the passes: a single pass's region moves by a third from
run to run, and every role with it.  To compare two trees, copy this
file into the other checkout and run it once on each.

Usage: ``python tools/s4_split.py [--seed 1] [--frames 4096]``
"""

import argparse
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from harmless_e2e.workloads import WORKLOADS  # noqa: E402
from repro.legacy import LegacySwitch  # noqa: E402
from repro.netsim.node import Port  # noqa: E402
from repro.softswitch import SoftSwitch  # noqa: E402

#: Passes a run makes; every row is the median over them.
PASSES = 5

SELF_S, FRAMES, STACK = Counter(), Counter(), []
GENERAL = "legacy (general path)"
#: Trees before the forwarding cache (copy this file there to compare)
#: sent the first frame of each burst key through ``receive``.
GENERAL_METHOD = "_general_path" if hasattr(LegacySwitch, "_general_path") else "receive"


def role_of(owner) -> str:
    if isinstance(owner, LegacySwitch):
        return "legacy"
    if isinstance(owner, SoftSwitch):
        return "SS_1" if owner.name.endswith("ss1") else "SS_2"
    ends = [type(port.node) for port in (owner, owner.peer)]
    if SoftSwitch not in ends:
        return "other links"
    return "patch links" if ends[0] is ends[1] else "trunk links"


def timed(cls, name):
    original = getattr(cls, name)

    def wrapper(owner, *args):
        STACK.append(0.0)
        start = time.perf_counter()
        try:
            return original(owner, *args)
        finally:
            elapsed = time.perf_counter() - start
            role = GENERAL if name == GENERAL_METHOD else role_of(owner)
            SELF_S[role] += elapsed - STACK.pop()
            # A burst, or the one frame of a general-path entry.
            FRAMES[role] += next((len(arg) for arg in args if type(arg) is list), 1)
            if STACK:
                STACK[-1] += elapsed

    setattr(cls, name, wrapper)


WRAPPED = ((SoftSwitch, "receive_burst"), (LegacySwitch, "receive_burst"),
           (LegacySwitch, GENERAL_METHOD), (Port, "send_burst"), (Port, "deliver_burst"))


def one_pass(workload, seed: int, frames: int) -> "tuple[float, Counter, Counter]":
    """Drive region seconds, and self seconds and frames by role."""
    originals = [(cls, name, getattr(cls, name)) for cls, name in WRAPPED]
    rig = workload.build(seed)  # set-up runs unwrapped
    load = workload.generate(rig, seed, frames)
    SELF_S.clear()
    FRAMES.clear()
    for cls, name in WRAPPED:
        timed(cls, name)
    try:
        start = time.perf_counter()
        list(workload.drive(rig, load))
        region = time.perf_counter() - start
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)
    SELF_S[GENERAL] += 0.0  # the row is printed even when nothing fell through
    return region, Counter(SELF_S), Counter(FRAMES)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--frames", type=int, default=4096)
    args, workload = parser.parse_args(), WORKLOADS["fabric_steady"]
    passes = [one_pass(workload, args.seed, args.frames) for _ in range(PASSES)]
    regions = [region for region, _, _ in passes]
    print(f"fabric_steady seed {args.seed}: drive region median {statistics.median(regions):.3f} s "
          f"({min(regions):.3f}-{max(regions):.3f}) over {PASSES} passes (wrapped)")
    print(f"{'role':<21} {'frames':>7} {'self s':>8} {'region':>7} {'us/frame':>9} "
          f"{'min-max':>13}")
    def median_self_s(role: str) -> float:
        return statistics.median(seconds[role] for _, seconds, _ in passes)

    for role in sorted(passes[0][1], key=median_self_s, reverse=True):
        frames = statistics.median(counts[role] for _, _, counts in passes)
        self_s = median_self_s(role)
        share = statistics.median(seconds[role] / region for region, seconds, _ in passes)
        per_frame = [1e6 * seconds[role] / max(counts[role], 1) for _, seconds, counts in passes]
        print(f"{role:<21} {frames:>7.0f} {self_s:>8.3f} {share:>6.0%} "
              f"{statistics.median(per_frame):>9.2f} "
              f"{min(per_frame):>6.2f}-{max(per_frame):.2f}")
    ss1 = statistics.median(
        seconds["SS_1"] / (seconds["SS_1"] + seconds["SS_2"]) for _, seconds, _ in passes)
    print(f"SS_1 is {ss1:.0%} of softswitch self time (median)")


if __name__ == "__main__":
    main()
