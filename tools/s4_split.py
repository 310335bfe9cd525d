"""Where the ``fabric_steady`` drive region goes, by role inside the S4.

ROADMAP item 4: the benchmark's tracer reports the software datapath
as one layer; this splits it.  ``receive_burst`` of both switch classes
and ``Port.send_burst`` / ``deliver_burst`` are wrapped from outside for
one pass and their self times summed by who owns the call: SS_1 (the
translator), SS_2, patch links, trunk links, legacy, other links.  The
legacy switch's ``_general_path`` is wrapped too and gets its own row —
the frames (and their self time) that fell through the forwarding cache
to the slow path, taken out of the ``legacy`` row.
Usage: ``python tools/s4_split.py [--seed 1] [--frames 4096]``
"""

import argparse
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--frames", type=int, default=4096)
    args, workload = parser.parse_args(), WORKLOADS["fabric_steady"]
    rig = workload.build(args.seed)  # set-up runs unwrapped
    load = workload.generate(rig, args.seed, args.frames)
    for cls, name in ((SoftSwitch, "receive_burst"), (LegacySwitch, "receive_burst"),
                      (LegacySwitch, GENERAL_METHOD),
                      (Port, "send_burst"), (Port, "deliver_burst")):
        timed(cls, name)
    start = time.perf_counter()
    list(workload.drive(rig, load))
    region = time.perf_counter() - start
    print(f"fabric_steady seed {args.seed}: drive region {region:.3f} s (wrapped)")
    print(f"{'role':<21} {'frames':>7} {'self s':>8} {'region':>7} {'us/frame':>9}")
    SELF_S[GENERAL] += 0.0  # the row is printed even when nothing fell through
    for role, self_s in SELF_S.most_common():
        print(f"{role:<21} {FRAMES[role]:>7} {self_s:>8.3f} {self_s / region:>6.0%} "
              f"{1e6 * self_s / max(FRAMES[role], 1):>9.2f}")
    print(f"SS_1 is {SELF_S['SS_1'] / (SELF_S['SS_1'] + SELF_S['SS_2']):.0%} of softswitch self time")


if __name__ == "__main__":
    main()
