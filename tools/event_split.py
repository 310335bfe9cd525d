"""What one simulator event costs, split by who pays.

ROADMAP item 4: the benchmark's tracer books the event loop and the
links as one ``netsim`` layer; this splits it per event.  For one pass
of each benchmark workload — ``site_detour`` is one frame per event,
``fabric_steady`` one burst per event — the scheduling calls,
``heapq``'s push and pop, the run loop, ``Link``, ``Port`` and every
node's ``receive`` are wrapped from outside and their self times
divided by the events the region processed.  ``dispatch`` is the loop's own time plus whatever a
callback does before it reaches a wrapped call (a delivery closure, a
direction record).  The cyclic collector is timed through
``gc.callbacks`` and taken out of whichever row it interrupted; its
collections and the objects it reclaimed come from ``gc.get_stats()``.
Each ``heapq.heappush`` also records the length of the heap it was
handed and the lane's length beside it, read as the live entries
outside the heap (``pending_events`` less the heap's length): the mean
and maximum heap depth at push and the mean lane length at push, per
workload (that probe's own time falls to the calling row).  The share
of the region's scheduled entries that reached the heap divides the
pushes by the events the region ran plus its growth in
``pending_events`` (an entry cancelled inside the region is missed).
A second pass of each workload, unwrapped, counts the Python frames its
drive region enters (``sys.setprofile`` "call" events) per unit of
work — frames delivered, sites migrated on ``migration_wave`` — split
by ``repro`` package (``netsim``, ``legacy``, ``net``, ``softswitch``
with the generated datapaths, ``snmp``, …; ``harness`` is the
benchmark's own code) and per frame a legacy switch received (one
legacy hop each), and names the functions that enter most.  That count
repeats exactly from one invocation to the next, so it shows a call
removed from or added to a hot path where a timing cannot.  It is not
a function of the tree alone: what ran earlier in the process moves it
(state outlives a pass, compiled programs among it), so compare counts
taken in one invocation order.  Only public names are touched, so the
file runs unchanged on a copy of an older tree.  Wrapping costs more than
the wrapped work here: read the rows against each other, not against
the benchmark.
Usage: ``python tools/event_split.py [--seed 1] [--frames N]``
"""

import argparse
import gc
import heapq
import re
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from harmless_e2e.workloads import WORKLOADS  # noqa: E402
from repro.netsim import Link, Port, Simulator  # noqa: E402

SELF_S, STACK = Counter(), []
ROWS = ("schedule", "heap push+pop", "dispatch", "Link", "Port", "nodes", "cyclic GC")
GC_STARTED = [0.0]
DEPTHS, LANES = [], []


def timed(owner, name, row, probe=None):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if probe is not None:
            probe(*args)
        STACK.append(0.0)
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            SELF_S[row] += elapsed - STACK.pop()
            if STACK:
                STACK[-1] += elapsed

    setattr(owner, name, wrapper)
    return lambda: setattr(owner, name, original)


def pushed(sim, heap):
    DEPTHS.append(len(heap))
    LANES.append(sim.pending_events - len(heap))


def on_gc(phase, info):
    if phase == "start":
        GC_STARTED[0] = time.perf_counter()
        return
    elapsed = time.perf_counter() - GC_STARTED[0]
    SELF_S["cyclic GC"] += elapsed
    if STACK:
        STACK[-1] += elapsed  # not the interrupted caller's own time


def receivers(rig):
    """(class, method) defining ``receive``/``receive_burst`` for every
    node type in the rig, each once."""
    found = set()
    for node in [*rig.nodes, *rig.softswitches()]:
        for name in ("receive", "receive_burst"):
            found.add((next(c for c in type(node).__mro__ if name in vars(c)), name))
    return sorted(found, key=lambda pair: (pair[0].__name__, pair[1]))


def exhaust(steps):
    """Run a ``drive`` generator dry; what it returned."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def split(workload, seed, frames):
    rig = workload.build(seed)  # set-up runs unwrapped
    load = workload.generate(rig, seed, frames)
    targets = [(Simulator, "schedule_at", "schedule"), (Simulator, "schedule_many", "schedule"),
               (Simulator, "schedule", "schedule"), (Simulator, "run", "dispatch"),
               (heapq, "heappush", "heap push+pop", lambda heap, item: pushed(rig.sim, heap)),
               (heapq, "heappop", "heap push+pop")]
    targets += [(Link, name, "Link") for name in ("transmit", "transmit_burst")]
    targets += [(Port, name, "Port")
                for name in ("send", "send_burst", "deliver", "deliver_burst")]
    targets += [(cls, name, "nodes") for cls, name in receivers(rig)]
    SELF_S.clear()
    DEPTHS.clear()
    LANES.clear()
    gc.collect()
    restore = [timed(*target) for target in targets]
    gc.callbacks.append(on_gc)
    before, events = gc.get_stats(), rig.sim.events_processed
    pending = rig.sim.pending_events
    start = time.perf_counter()
    try:
        outcome = exhaust(workload.drive(rig, load))
    finally:
        region = time.perf_counter() - start
        gc.callbacks.remove(on_gc)
        for undo in reversed(restore):
            undo()
    events, frames = rig.sim.events_processed - events, outcome["injected"]
    scheduled = events + rig.sim.pending_events - pending
    after = gc.get_stats()
    runs = [now["collections"] - was["collections"] for was, now in zip(before, after)]
    reclaimed = sum(now["collected"] - was["collected"] for was, now in zip(before, after))
    print(f"{workload.name} seed {seed}: {frames} frames, {events} events "
          f"({events / frames:.2f} per frame), drive region {region:.3f} s (wrapped)")
    print(f"{'row':<14} {'self s':>8} {'region':>7} {'us/event':>9}")
    for row in ROWS:
        print(f"{row:<14} {SELF_S[row]:>8.3f} {SELF_S[row] / region:>6.0%} "
              f"{1e6 * SELF_S[row] / events:>9.2f}")
    print(f"cyclic GC: {' + '.join(map(str, runs))} collections (gen 0 + 1 + 2), "
          f"{reclaimed} objects reclaimed, {reclaimed / events:.2f} per event")
    mean = sum(DEPTHS) / len(DEPTHS) if DEPTHS else 0.0
    lane = sum(LANES) / len(LANES) if LANES else 0.0
    print(f"heap depth at push: mean {mean:.1f}, max {max(DEPTHS, default=0)} "
          f"over {len(DEPTHS)} pushes; lane length at push: mean {lane:.1f}")
    print(f"entries that reached the heap: {len(DEPTHS) / scheduled:.1%} "
          f"of {scheduled} scheduled\n")


def package(filename):
    """The ``repro`` package a code object's file belongs to: ``net``,
    ``legacy``, …; ``softswitch`` for a generated datapath, ``harness``
    for the benchmark's own code, ``other`` for the rest (the standard
    library, and the ``__init__`` a dataclass generates, whose file
    is ``<string>``)."""
    if filename.startswith("<specialized datapath"):
        return "softswitch"
    parts = Path(filename).parts
    if "repro" in parts[:-1]:
        below = parts[parts.index("repro") + 1:]
        return below[0] if len(below) > 1 else "repro"
    return "harness" if "harmless_e2e" in parts else "other"


def python_frames(workload, seed, frames, top=8):
    """Per unit of work, the Python frames one pass's drive region
    enters, split by package, and the *top* functions by frames entered."""
    rig = workload.build(seed)
    load = workload.generate(rig, seed, frames)
    entered, packages = Counter(), Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            # Generated datapaths are one module per program: one row.
            module = re.sub(r" [0-9a-f]+>$", ">", Path(code.co_filename).stem)
            entered[f"{module}.{code.co_qualname}"] += 1
            packages[package(code.co_filename)] += 1

    received = sum(rig.endpoints_now().values())
    legacy = rig.legacy_switches()
    legacy_rx = sum(switch.counters.rx_frames for switch in legacy)
    sys.setprofile(profile)
    try:
        outcome = exhaust(workload.drive(rig, load))
    finally:
        sys.setprofile(None)
    delivered = outcome.get("delivered", sum(rig.endpoints_now().values()) - received)
    units, total = outcome.get("units", delivered), sum(entered.values())
    legacy_rx = sum(switch.counters.rx_frames for switch in legacy) - legacy_rx
    print(f"python frames entered: {total / units:.1f} per unit of work "
          f"({total} over {units} units); by package:")
    print("  " + ", ".join(f"{name} {count / units:.1f}"
                           for name, count in packages.most_common()))
    if legacy_rx:
        print(f"  legacy: {packages['legacy'] / legacy_rx:.2f} per frame into a legacy "
              f"switch ({legacy_rx} frames; one hop each)")
    print(f"top {top}:")
    for name, count in entered.most_common(top):
        print(f"{count / units:>12.2f}  {name}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--frames", type=int, default=None,
                        help="frames per workload (default: the benchmark's own)")
    args = parser.parse_args()
    for workload in WORKLOADS.values():
        frames = args.frames or workload.default_frames
        split(workload, args.seed, frames)
        python_frames(workload, args.seed, frames)


if __name__ == "__main__":
    main()
