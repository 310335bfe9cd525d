"""The event loop: a priority queue of timestamped calls.

A float-seconds clock over two containers whose **entry is the event**:
the list ``[time, seq, callback, args]`` that ``schedule*`` builds and
returns as an opaque handle.  ``seq`` is unique, so ``(time, seq)`` is
a total order settled in C that never reaches the callback — same-
instant events run in schedule order (FIFO ties) and callbacks need not
be comparable.

**An entry that sorts after the lane's tail extends the lane.**  The
lane is one ``collections.deque`` in ascending ``(time, seq)`` order,
so its next entry is ``lane[0]``.  :meth:`Simulator.schedule` and
:meth:`Simulator.schedule_at` append to it when the lane is empty or
the new entry sorts after ``lane[-1]`` — a new entry's ``seq`` is the
largest yet, so that is ``lane[-1][0] <= time`` — and push onto a
binary heap otherwise.  A whole ``(time, callback)`` send schedule
handed to :meth:`Simulator.schedule_many` is merged into the lane
by one sort (two presorted runs: linear).  The run loop dispatches whichever of ``heap[0]`` and
``lane[0]`` comes first, so the order is exactly that of one queue —
but a timeout armed a second ahead, or a traffic source's plan for the
rest of the run, waits in the lane, and the heap's pushes and pops work
against the events that arrived out of order: those in flight.

**Events carry arguments**: ``schedule(delay, callback, *args)`` keeps
both in the entry and the loop runs ``callback(*args)``, so a per-frame
scheduler (a link delivery, a switch's forward after its lookup delay)
hands over a bound method and a frame, not a closure.  The contract:
nothing scheduled may reference its own entry — that is a reference
cycle per event which only the cyclic collector frees.  Whoever must
find its events again asks the queue (:meth:`Simulator.cancel_bound`).

An entry whose callback slot is None is dead.  :meth:`Simulator.cancel`
clears the slot of a queued entry and counts it; the run loop clears
the slot of the entry it pops just before calling, so a late
``cancel()`` of an event that already ran is a no-op and never counted
as garbage in the queue.  ``pending_events`` is the two containers'
length minus the cancelled entries still in them: O(1) for
``run_until_idle`` to poll, nothing maintained per event.

Cancellation is lazy (dead entries are skipped when they surface), but
not unboundedly so: cancel-heavy workloads — ping timers re-armed every
probe, rollback paths — would otherwise grow the queue with garbage.
Once cancelled entries outnumber live ones both containers are
compacted **in place** (filter, and re-heapify the heap, into the same
list and deque, which the run loop holds in locals); ``(time, seq)`` is
a total order and filtering keeps the lane sorted, so compaction cannot
reorder ties.

A time that does not compare — NaN — is refused like one in the past:
the guards read ``not time >= now``, so NaN fails them.

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
from collections import deque
from operator import attrgetter
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
        #: The sorted run: entries in ascending ``(time, seq)`` order.
        self._lane: deque[list] = deque()
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        #: Cancelled entries still sitting in the heap or the lane.
        self._cancelled = 0

    #: Read in C: a clock read enters no Python frame.
    now = property(attrgetter("_now"), doc="Current simulated time in seconds.")

    @property
    def events_processed(self) -> int:
        """Events run so far.  Added up once per :meth:`run`, when it
        returns: exact whenever ``run()`` is not on the stack, while a
        callback reads the count as of its run's start."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (not cancelled) events in the queue."""
        return len(self._queue) + len(self._lane) - self._cancelled

    def peek_next_time(self) -> "float | None":
        """Timestamp of the next live event, or None when idle.

        Purges cancelled entries off both tops as a side effect (the
        same lazy deletion the run loop performs).
        """
        queue, lane = self._queue, self._lane
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
            self._cancelled -= 1
        while lane and lane[0][2] is None:
            lane.popleft()
            self._cancelled -= 1
        if lane and (not queue or lane[0] < queue[0]):
            return lane[0][0]
        return queue[0][0] if queue else None

    def schedule(self, delay: float, callback: Callable[..., None], *args) -> list:
        """Schedule ``callback(*args)`` to run *delay* seconds from now."""
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        entry = [time, next(self._seq), callback, args]
        lane = self._lane
        if not lane or lane[-1][0] <= time:
            lane.append(entry)
        else:
            heapq.heappush(self._queue, entry)
        return entry

    def schedule_at(self, time: float, callback: Callable[..., None], *args) -> list:
        """Schedule ``callback(*args)`` at absolute simulated *time*."""
        if not time >= self._now:
            raise ValueError(f"cannot schedule at {time}, already at {self._now}")
        entry = [time, next(self._seq), callback, args]
        lane = self._lane
        if not lane or lane[-1][0] <= time:
            lane.append(entry)
        else:
            heapq.heappush(self._queue, entry)
        return entry

    def schedule_many(
        self, items: "Iterable[tuple[float, Callable[[], None]]]"
    ) -> list[list]:
        """Schedule many ``(time, callback)`` pairs in one call: the same
        as :meth:`schedule_at` once per pair in iteration order (ties
        keep FIFO order; a pair in the past raises with the pairs before
        it queued), without one Python call per frame of a send
        schedule.  The entries wait in the lane, off the heap."""
        now = self._now
        counter = self._seq
        entries = []
        try:
            for time, callback in items:
                if not time >= now:
                    raise ValueError(f"cannot schedule at {time}, already at {now}")
                entries.append([time, next(counter), callback, ()])
        finally:
            if entries:
                # In place, for the run loop's local; a schedule given
                # in time order is one run the merge takes as it stands.
                lane = self._lane
                run = sorted([*lane, *entries])
                lane.clear()
                lane += run
        return entries

    def cancel(self, handle: list) -> None:
        """Mark a scheduled event dead; the loop skips it when it
        surfaces.  Cancelling twice, or after the event ran, does
        nothing."""
        if handle[2] is None:
            return
        handle[2] = None
        self._cancelled += 1
        queue, lane = self._queue, self._lane
        if self._cancelled > 64 and self._cancelled * 2 > len(queue) + len(lane):
            # In place: a callback may cancel under the run loop, whose
            # locals must keep naming both containers.
            queue[:] = [entry for entry in queue if entry[2] is not None]
            heapq.heapify(queue)
            live = [entry for entry in lane if entry[2] is not None]
            lane.clear()
            lane += live
            self._cancelled = 0

    def cancel_bound(self, receiver: object) -> int:
        """Cancel every live event whose callback is a method bound to
        *receiver*; returns how many.  One scan of the queue, for
        callers that want their events back rarely (a link failing)
        and so keep no registry of them."""
        doomed = [
            entry for entry in itertools.chain(self._queue, self._lane)
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
        lane = self._lane
        pop = heapq.heappop
        popleft = lane.popleft
        processed = 0
        self._running = True
        try:
            while processed < limit:
                # The next entry is the lesser of the two heads.
                if lane and (not queue or lane[0] < queue[0]):
                    time, _, callback, args = entry = lane[0]
                    if time > horizon and callback is not None:
                        break
                    popleft()
                elif queue:
                    time, _, callback, args = entry = queue[0]
                    if time > horizon and callback is not None:
                        break
                    pop(queue)
                else:
                    break
                if callback is None:
                    self._cancelled -= 1
                    continue
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
