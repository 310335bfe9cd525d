"""What bringing the compiled tier up costs, split by where it goes.

ROADMAP item 7b: the benchmark's tracer reports ``softswitch.compiles``
(programs built) and ``interpreted_share`` but not what a program costs
or why a frame was interpreted.  For one pass of each benchmark
workload, set-up (``build``) and measured region (``drive``)
separately, this counts the calls of ``compile_datapath``, how many of
them reached the builtin ``compile()`` and over how many distinct
source texts, the milliseconds spent inside ``compile()`` against the
rest of ``compile_datapath`` (codegen + ``exec``), and the softswitch
frames by who served them: the compiled program, the interpreter while
a program was active (a frame the program handed over; 0 on a tree
whose interpreter is the oracle only), or the interpreter because no
program was active.
Everything is wrapped from outside through public names — the
``compile`` and ``compile_datapath`` globals the softswitch modules
resolve, the four datapath entry points and the two frame counters —
so the file runs unchanged on a copy of an older tree.  Each workload
runs in a process of its own, as in the benchmark: what a process has
compiled it keeps.  One build per workload (the benchmark averages
``setup_builds`` of them, so its later builds meet a warm table).
Usage: ``python tools/cold_start_split.py [--seed 1] [--frames N]``
"""

import argparse
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from harmless_e2e.workloads import WORKLOADS  # noqa: E402
from repro.softswitch import SoftSwitch, compiler, datapath  # noqa: E402

ENTRY_POINTS = ("receive", "receive_burst", "process_batch", "inject")
COUNTS, SOURCES, INSIDE = Counter(), set(), [False]


def timed_compile(source, filename, mode):
    start = time.perf_counter()
    try:
        return compile(source, filename, mode)
    finally:
        COUNTS["compile() s"] += time.perf_counter() - start
        COUNTS["builtin compiles"] += 1
        SOURCES.add(source)


def timed_compile_datapath(switch, *args, original=datapath.compile_datapath, **kwargs):
    start = time.perf_counter()
    try:
        return original(switch, *args, **kwargs)
    finally:
        COUNTS["compile_datapath s"] += time.perf_counter() - start
        COUNTS["programs"] += 1


def served(name):
    original = getattr(SoftSwitch, name)

    def wrapper(switch, *args, **kwargs):
        if INSIDE[0]:  # receive_burst -> process_batch: count once
            return original(switch, *args, **kwargs)
        INSIDE[0] = True
        compiled, interpreted = switch.specialized_frames, switch.fallback_frames
        try:
            return original(switch, *args, **kwargs)
        finally:
            INSIDE[0] = False
            COUNTS["compiled"] += switch.specialized_frames - compiled
            why = "with program" if switch.program is not None else "no program"
            COUNTS[why] += switch.fallback_frames - interpreted

    setattr(SoftSwitch, name, wrapper)


def report(stage):
    total, inside = COUNTS["compile_datapath s"], COUNTS["compile() s"]
    frames = COUNTS["compiled"] + COUNTS["with program"] + COUNTS["no program"]
    print(f"  {stage:<7} {COUNTS['programs']:>8} {COUNTS['builtin compiles']:>9} "
          f"{len(SOURCES):>8} {1e3 * inside:>10.1f} {1e3 * (total - inside):>10.1f} "
          f"{frames:>8} {COUNTS['compiled']:>9} {COUNTS['with program']:>12} "
          f"{COUNTS['no program']:>11}")
    COUNTS.clear()
    SOURCES.clear()


def split(workload, seed, frames):
    print(f"{workload.name} seed {seed}")
    print(f"  {'stage':<7} {'programs':>8} {'compile()':>9} {'distinct':>8} "
          f"{'compile ms':>10} {'gen+exec':>10} {'frames':>8} {'compiled':>9} "
          f"{'with program':>12} {'no program':>11}")
    rig = workload.build(seed)
    report("build")
    load = workload.generate(rig, seed, frames)
    for _ in workload.drive(rig, load):  # one slice of the region at a time
        pass
    report("region")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--frames", type=int, default=None,
                        help="frames per workload (default: the benchmark's own)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="this one only, in this process (default: each in a child)")
    args = parser.parse_args()
    if args.workload is None:
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, *sys.argv[1:], "--workload", name],
                           check=True)
        return
    compiler.compile = timed_compile  # the name compile_datapath resolves
    datapath.compile_datapath = timed_compile_datapath
    for name in ENTRY_POINTS:
        served(name)
    workload = WORKLOADS[args.workload]
    split(workload, args.seed, args.frames or workload.default_frames)


if __name__ == "__main__":
    main()
