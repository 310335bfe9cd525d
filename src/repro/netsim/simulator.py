"""The event loop: a priority queue of timestamped calls.

A float-seconds clock over a binary heap.  A heap **entry** is the
tuple ``(time, seq, event)``: ``seq`` is unique, so ``heapq`` settles
every comparison on the first two fields, in C, and never reaches the
:class:`Event` — same-instant events run in schedule order (FIFO ties)
and callbacks need not be comparable.

**Events carry arguments**: ``schedule(delay, callback, *args)`` keeps
both on the event and the loop runs ``event.callback(*event.args)``, so
a per-frame scheduler (a link delivery, a switch's forward after its
lookup delay) hands over a bound method and a frame, not a closure.
The contract: nothing scheduled may reference its own :class:`Event` —
that is a reference cycle per event which only the cyclic collector
frees.  Whoever must find its events again asks the heap
(:meth:`Simulator.cancel_bound`).  :meth:`Simulator.schedule_many`
enqueues a whole ``(time, callback)`` send schedule in one call, the
same as that many :meth:`Simulator.schedule_at` calls.

``pending_events`` is the heap's length minus the cancelled entries
still in it: O(1) for ``run_until_idle`` to poll, nothing maintained
per event.  An :class:`Event` keeps an ``owner`` back-reference only
while queued, so that a late ``cancel()`` of an event that already ran
is not counted as garbage in the heap.

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
from typing import Callable, Iterable, Optional


class Event:
    """A scheduled call: the handle ``schedule*`` returns.

    Events are never compared; the heap orders their entries.  Slotted:
    a source may queue its whole send schedule, one event per frame.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "owner")

    def __init__(self, time, seq, callback, args, owner) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The simulator while the event sits in its queue, else None.
        self.owner: Optional["Simulator"] = owner

    def cancel(self) -> None:
        """Mark the event dead; the loop skips it when popped."""
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            self.owner = None
            owner._cancelled += 1
            owner._maybe_compact()


class Simulator:
    """A discrete-event simulator with a float-seconds clock.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, host.ping, target)
        sim.run(until=2.0)
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        #: Cancelled events still sitting in the queue.
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (not cancelled) events in the queue."""
        return len(self._queue) - self._cancelled

    def _maybe_compact(self) -> None:
        """Drop cancelled entries once they outnumber live ones, in
        place: a callback may trigger this under the run loop, whose
        local must keep naming the queue."""
        queue = self._queue
        if self._cancelled <= 64 or self._cancelled * 2 <= len(queue):
            return
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled = 0

    def peek_next_time(self) -> "float | None":
        """Timestamp of the next live event, or None when idle.

        Purges cancelled entries off the top as a side effect (the same
        lazy deletion the run loop performs).
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
            self._cancelled -= 1
        return queue[0][0] if queue else None

    def schedule(self, delay: float, callback: Callable[..., None], *args) -> Event:
        """Schedule ``callback(*args)`` to run *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated *time*."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time}, already at {self._now}")
        seq = next(self._seq)
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_many(
        self, items: "Iterable[tuple[float, Callable[[], None]]]"
    ) -> list[Event]:
        """Schedule many ``(time, callback)`` pairs in one call: the same
        as :meth:`schedule_at` once per pair in iteration order (ties
        keep FIFO order) without one Python call per frame of a send
        schedule."""
        now = self._now
        queue = self._queue
        counter = self._seq
        push = heapq.heappush
        events = []
        for time, callback in items:
            if time < now:
                raise ValueError(f"cannot schedule at {time}, already at {now}")
            seq = next(counter)
            event = Event(time, seq, callback, (), self)
            push(queue, (time, seq, event))
            events.append(event)
        return events

    def cancel_bound(self, receiver: object) -> int:
        """Cancel every live event whose callback is a method bound to
        *receiver*; returns how many.  One heap scan, for callers that
        want their events back rarely (a link failing) and so keep no
        registry of them."""
        doomed = [
            event for _, _, event in self._queue
            if not event.cancelled and getattr(event.callback, "__self__", None) is receiver
        ]
        for event in doomed:  # cancel() may compact the queue: not while scanning
            event.cancel()
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
                time, _, event = queue[0]
                if event.cancelled:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                if time > horizon:
                    break
                pop(queue)
                event.owner = None
                self._now = time
                event.callback(*event.args)
                processed += 1
                self._events_processed += 1
            if until is not None and self._now < until:
                # Advance the clock to the horizon even if the queue
                # drained — but not past work a max_events cap left
                # behind inside the window.
                head = self.peek_next_time()
                if head is None or head > horizon:
                    self._now = until
        finally:
            self._running = False
        return processed

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain (bounded to catch runaway loops)."""
        processed = self.run(max_events=max_events)
        if self.pending_events:
            raise RuntimeError(f"simulation did not go idle within {max_events} events")
        return processed
