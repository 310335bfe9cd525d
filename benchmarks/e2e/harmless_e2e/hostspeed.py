"""How fast is this host right now?  A fixed piece of interpreter work.

The box the benchmark was sized on (2 shared cores) changes speed under
the benchmark.  250 back-to-back timings of a 0.09 s loop spread
by 19% (IQR; 0.074-0.130 s), with an autocorrelation of 0.85 at 0.1 s,
0.5 at 0.7 s and 0.15 at 4 s: the speed wanders on a scale of about a
second, and drifts over minutes on top.  A run cannot average the slow
part out, and per-run medians of identical work spread by 6-15%.

So every timed stretch of work is kept short (a quarter of a second: a
pass's measured region is run in slices) and bracketed by two reference
timings, and its wall time is multiplied by the host's speed between
them before it becomes ``setup_s`` / ``frames_per_s`` / ``sites_per_s``.
The reported seconds are seconds *at nominal speed*.  A bracket 0.1 s
either side predicts the stretch between to 5% (IQR); one 0.7 s either
side, which is what bracketing whole passes gave, to 14%.

The reference is the same kind of work the program does — a heap-driven
event loop over small objects, ``dataclasses.replace``, dict reads and
writes, method calls, and for a third of its time reads scattered over
8 MiB, four times the core's L2 — and uses nothing from ``repro``, so
it is the same on every commit.  The scattered reads matter: when the
host slows, the program (40 MiB of small objects) slows by 1.1-1.25x
what a cache-resident loop does, and ten-run medians taken in a slow
and a fast half hour differed by 4-7% with a compute-only reference.
**Do not edit it**: every wall-clock number the benchmark prints is in
units of it.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass, replace

#: What a :class:`Reference` call took on the sizing box at the speed the
#: README's numbers are quoted at; only a scale, it cancels between two
#: commits.
NOMINAL_S = 0.075

_EVENTS = 15_500
_CALLS = 212_000
_READS = 250_000
#: Odd, so the walk visits every byte of the table before it repeats.
_STRIDE = 4_753_217


@dataclass
class _Frame:
    dst: int
    src: int
    vlan: "int | None"
    payload: bytes


class _Node:
    def __init__(self) -> None:
        self.fdb: dict = {}
        self.rx = 0

    def receive(self, frame: _Frame, heap: list, now: float, seq: int) -> None:
        self.rx += 1
        self.fdb[frame.src] = (now, seq & 7)
        out = replace(frame, vlan=seq & 0xFFF)
        delay = 1e-6 if out.dst in self.fdb else 2e-6
        heapq.heappush(heap, (now + delay, seq, out))


class _Cell:
    __slots__ = ("base",)

    def __init__(self, base: int) -> None:
        self.base = base

    def add(self, value: int) -> int:
        return self.base + value


class Reference:
    """Callable: seconds this host needs for the fixed reference work."""

    def __init__(self) -> None:
        #: 8 MiB that the collector never looks at.
        self.table = bytes(range(256)) * (1 << 15)

    def __call__(self) -> float:
        # The collector is off meanwhile: a full collection that the
        # program's heap happened to have due would be timed as host
        # slowness.  Nothing here makes a cycle.
        collecting = gc.isenabled()
        gc.disable()
        try:
            nodes = [_Node() for _ in range(8)]
            cells = {index: _Cell(index) for index in range(256)}
            payload = bytes(64)
            table = self.table
            mask = len(table) - 1
            heap: list = []
            start = time.perf_counter()
            for seq in range(64):
                frame = _Frame(seq & 15, (seq * 7) & 15, None, payload)
                heapq.heappush(heap, (seq * 1e-6, seq, frame))
            for seq in range(64, 64 + _EVENTS):
                now, _, frame = heapq.heappop(heap)
                nodes[seq & 7].receive(frame, heap, now, seq)
            total = 0
            for index in range(_CALLS):
                total += cells[index & 255].add(index)
            at = 0
            for _ in range(_READS):
                at = (at + _STRIDE) & mask
                total += table[at]
            return time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()


class Stopwatch:
    """Times stretches of work, each between two reference timings.

    ``time(work)`` returns ``(result, raw_s, nominal_s)``.  The
    reference taken after one stretch opens the bracket of the next;
    call :meth:`refresh` when untimed work went between.  Without a
    *reference* nominal seconds are raw seconds.
    """

    def __init__(self, reference=None) -> None:
        self.reference = reference
        self.before_s = reference() if reference else None

    def refresh(self) -> None:
        if self.reference:
            self.before_s = self.reference()

    def time(self, work):
        start = time.perf_counter()
        result = work()
        raw_s = time.perf_counter() - start
        if not self.reference:
            return result, raw_s, raw_s
        after_s = self.reference()
        speed = NOMINAL_S / ((self.before_s + after_s) / 2)
        self.before_s = after_s
        return result, raw_s, raw_s * speed
