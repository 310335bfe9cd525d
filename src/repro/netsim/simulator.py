"""The event loop: a priority queue of timestamped calls.

A float-seconds clock over a binary heap whose **entry is the event**:
the list ``[time, seq, callback, args]`` that ``schedule*`` pushes and
returns as an opaque handle.  ``seq`` is unique, so ``heapq`` settles
every comparison on the first two fields, in C, and never reaches the
callback — same-instant events run in schedule order (FIFO ties) and
callbacks need not be comparable.

**Events carry arguments**: ``schedule(delay, callback, *args)`` keeps
both in the entry and the loop runs ``callback(*args)``, so a per-frame
scheduler (a link delivery, a switch's forward after its lookup delay)
hands over a bound method and a frame, not a closure.  The contract:
nothing scheduled may reference its own entry — that is a reference
cycle per event which only the cyclic collector frees.  Whoever must
find its events again asks the heap (:meth:`Simulator.cancel_bound`).
:meth:`Simulator.schedule_many` enqueues a whole ``(time, callback)``
send schedule in one call, the same as that many
:meth:`Simulator.schedule_at` calls.

An entry whose callback slot is None is dead.  :meth:`Simulator.cancel`
clears the slot of a queued entry and counts it; the run loop clears
the slot of the entry it pops just before calling, so a late
``cancel()`` of an event that already ran is a no-op and never counted
as garbage in the heap.  ``pending_events`` is the heap's length minus
the cancelled entries still in it: O(1) for ``run_until_idle`` to poll,
nothing maintained per event.

Cancellation is lazy (the heap skips dead entries when they surface),
but not unboundedly so: cancel-heavy workloads — ping timers re-armed
every probe, rollback paths — would otherwise grow the heap with
garbage.  Once cancelled entries outnumber live ones the queue is
compacted **in place** (filter + re-heapify into the same list, which
the run loop holds in a local), keeping it O(live); ``(time, seq)`` is
a total order, so re-heapifying cannot reorder ties.

``run(until=...)`` advances the clock to the horizon even when the
queue drains early, so back-to-back ``run`` calls see monotone time.
``inclusive=False`` stops *before* events at exactly ``until``, running
the half-open window ``[now, until)``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Callable, Iterable


class Simulator:
    """A discrete-event simulator with a float-seconds clock.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, host.ping, target)
        sim.run(until=2.0)
    """

    def __init__(self) -> None:
        #: Heap of ``[time, seq, callback, args]`` entries.
        self._queue: list[list] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        #: Cancelled entries still sitting in the queue.
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events run so far.  Added up once per :meth:`run`, when it
        returns: exact whenever ``run()`` is not on the stack, while a
        callback reads the count as of its run's start."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (not cancelled) events in the queue."""
        return len(self._queue) - self._cancelled

    def peek_next_time(self) -> "float | None":
        """Timestamp of the next live event, or None when idle.

        Purges cancelled entries off the top as a side effect (the same
        lazy deletion the run loop performs).
        """
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
            self._cancelled -= 1
        return queue[0][0] if queue else None

    def schedule(self, delay: float, callback: Callable[..., None], *args) -> list:
        """Schedule ``callback(*args)`` to run *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        entry = [self._now + delay, next(self._seq), callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def schedule_at(self, time: float, callback: Callable[..., None], *args) -> list:
        """Schedule ``callback(*args)`` at absolute simulated *time*."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time}, already at {self._now}")
        entry = [time, next(self._seq), callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def schedule_many(
        self, items: "Iterable[tuple[float, Callable[[], None]]]"
    ) -> list[list]:
        """Schedule many ``(time, callback)`` pairs in one call: the same
        as :meth:`schedule_at` once per pair in iteration order (ties
        keep FIFO order) without one Python call per frame of a send
        schedule."""
        now = self._now
        queue = self._queue
        counter = self._seq
        push = heapq.heappush
        entries = []
        for time, callback in items:
            if time < now:
                raise ValueError(f"cannot schedule at {time}, already at {now}")
            entry = [time, next(counter), callback, ()]
            push(queue, entry)
            entries.append(entry)
        return entries

    def cancel(self, handle: list) -> None:
        """Mark a scheduled event dead; the loop skips it when it
        surfaces.  Cancelling twice, or after the event ran, does
        nothing."""
        if handle[2] is None:
            return
        handle[2] = None
        self._cancelled += 1
        queue = self._queue
        if self._cancelled > 64 and self._cancelled * 2 > len(queue):
            # In place: a callback may cancel under the run loop, whose
            # local must keep naming the queue.
            queue[:] = [entry for entry in queue if entry[2] is not None]
            heapq.heapify(queue)
            self._cancelled = 0

    def cancel_bound(self, receiver: object) -> int:
        """Cancel every live event whose callback is a method bound to
        *receiver*; returns how many.  One heap scan, for callers that
        want their events back rarely (a link failing) and so keep no
        registry of them."""
        doomed = [
            entry for entry in self._queue
            if entry[2] is not None and getattr(entry[2], "__self__", None) is receiver
        ]
        for entry in doomed:  # cancel() may compact the queue: not while scanning
            self.cancel(entry)
        return len(doomed)

    def run(
        self,
        until: "float | None" = None,
        max_events: "int | None" = None,
        inclusive: bool = True,
    ) -> int:
        """Process events until the queue drains, *until* is reached, or
        *max_events* have run.  Returns the number of events processed.

        With ``inclusive=False`` events at exactly *until* are left
        queued (a half-open window ``[now, until)``); the clock still
        advances to *until*, so the next window starts at the edge.
        """
        if not inclusive and until is None:
            raise ValueError("inclusive=False needs an explicit horizon")
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        # Events later than *horizon* stay queued; the float just below
        # *until* makes the half-open window the same compare.
        if until is None:
            horizon = math.inf
        else:
            horizon = until if inclusive else math.nextafter(until, -math.inf)
        limit = sys.maxsize if max_events is None else max_events
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        self._running = True
        try:
            while queue and processed < limit:
                time, _, callback, args = entry = queue[0]
                if callback is None:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                if time > horizon:
                    break
                pop(queue)
                entry[2] = None  # ran: a late cancel() is a no-op
                self._now = time
                callback(*args)
                processed += 1
            if until is not None and self._now < until:
                # Advance the clock to the horizon even if the queue
                # drained — but not past work a max_events cap left
                # behind inside the window.
                head = self.peek_next_time()
                if head is None or head > horizon:
                    self._now = until
        finally:
            self._running = False
            self._events_processed += processed
        return processed

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain (bounded to catch runaway loops)."""
        processed = self.run(max_events=max_events)
        if self.pending_events:
            raise RuntimeError(f"simulation did not go idle within {max_events} events")
        return processed
