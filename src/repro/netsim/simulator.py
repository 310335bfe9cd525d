"""The event loop: a priority queue of timestamped callbacks.

A float-seconds clock over a binary heap.  A heap **entry** is the
tuple ``(time, seq, event)``: ``seq`` is unique, so ``heapq`` settles
every comparison on the first two fields, in C, and never reaches the
:class:`Event` — same-instant events run in schedule order (FIFO ties)
and callbacks need not be comparable.  Two properties matter to the
burst-mode pipeline built on top:

* **batch scheduling** — :meth:`Simulator.schedule_many` enqueues a
  whole ``(time, callback)`` schedule in one call, semantically
  identical to per-pair :meth:`Simulator.schedule_at` calls; traffic
  sources hand over entire send schedules and links ride one event
  per coalesced burst instead of one per frame;
* **O(1) idle detection** — ``pending_events`` is a live counter
  maintained by schedule/cancel/pop (an :class:`Event` keeps an
  ``owner`` back-reference while queued so a late ``cancel()`` cannot
  corrupt it), which ``run_until_idle`` polls without scanning the
  heap.

Cancellation is lazy (the heap skips dead entries when they surface),
but not unboundedly so: cancel-heavy workloads — ping timers that are
re-armed every probe, rollback paths — would otherwise grow the heap
with garbage while ``pending_events`` correctly reads near zero.  A
counter of cancelled-but-queued entries triggers an in-place compaction
(filter + re-heapify) once garbage outnumbers live events, keeping the
queue O(live) while preserving FIFO tie order (``(time, seq)`` is a
total order, so re-heapifying cannot reorder ties).

``run(until=...)`` advances the clock to the horizon even when the
queue drains early, so back-to-back ``run`` calls see monotone time.
``inclusive=False`` stops *before* events at exactly ``until`` — the
window mode the sharded engine (:mod:`repro.netsim.sharded`) uses to
process half-open lookahead windows ``[start, horizon)``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled callback: the handle ``schedule*`` returns.

    Events are never compared; the heap orders their entries.  Slotted:
    a source may queue its whole send schedule, one event per frame.
    """

    time: float
    seq: int
    callback: Callable[[], None]
    cancelled: bool = False
    #: The owning simulator while the event sits in the queue; cleared
    #: when the event is popped so a late ``cancel()`` cannot corrupt
    #: the live-event counter.
    owner: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Mark the event dead; the loop skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            owner._pending -= 1
            owner._cancelled += 1
            self.owner = None
            owner._maybe_compact()


class Simulator:
    """A discrete-event simulator with a float-seconds clock.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, lambda: host.ping(target))
        sim.run(until=2.0)
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        #: Live (not-cancelled) events in the queue, maintained by
        #: schedule/cancel/pop so ``pending_events`` is O(1) — it is
        #: polled inside ``run_until_idle`` and must not scan the heap.
        self._pending = 0
        #: Cancelled events still sitting in the queue.  Cancellation is
        #: lazy, so without compaction a schedule/cancel churn loop
        #: (re-armed timers) grows the heap without bound while
        #: ``pending_events`` correctly reads 0.
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
        return self._pending

    def _maybe_compact(self) -> None:
        """Drop cancelled entries once they outnumber live ones.

        Bounds the heap at O(live events) under cancel-heavy churn.
        Safe to trigger from inside a running callback: the run loop
        re-reads ``self._queue`` on every iteration, and re-heapifying
        preserves FIFO ties because ``(time, seq)`` is a total order.
        """
        if self._cancelled <= 64 or self._cancelled * 2 <= len(self._queue):
            return
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
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

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* to run *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* at absolute simulated *time*."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time}, already at {self._now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback, owner=self)
        heapq.heappush(self._queue, (time, seq, event))
        self._pending += 1
        return event

    def schedule_many(
        self, items: "Iterable[tuple[float, Callable[[], None]]]"
    ) -> list[Event]:
        """Schedule many ``(time, callback)`` pairs in one call.

        Semantically identical to calling :meth:`schedule_at` once per
        pair in iteration order (ties keep FIFO order), but amortises
        the per-call overhead — burst traffic sources hand a whole send
        schedule over at once instead of paying one Python call per
        frame.
        """
        now = self._now
        queue = self._queue
        counter = self._seq
        push = heapq.heappush
        events = []
        for time, callback in items:
            if time < now:
                raise ValueError(f"cannot schedule at {time}, already at {now}")
            seq = next(counter)
            event = Event(time, seq, callback, owner=self)
            push(queue, (time, seq, event))
            self._pending += 1
            events.append(event)
        return events

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
        advances to *until*.  Used by the sharded engine's lookahead
        windows, where the window edge belongs to the next window.
        """
        if not inclusive and until is None:
            raise ValueError("inclusive=False needs an explicit horizon")
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        processed = 0
        try:
            while self._queue:
                if max_events is not None and processed >= max_events:
                    break
                time, _, event = self._queue[0]
                if event.cancelled:
                    heapq.heappop(self._queue)
                    self._cancelled -= 1
                    continue
                if until is not None and (
                    time > until if inclusive else time >= until
                ):
                    break
                heapq.heappop(self._queue)
                self._pending -= 1
                event.owner = None
                self._now = time
                event.callback()
                processed += 1
                self._events_processed += 1
            if until is not None and self._now < until:
                # Advance the clock to the horizon even if the queue
                # drained — but not past work a max_events cap left
                # behind inside the window.
                head = self.peek_next_time()
                if head is None or (head > until if inclusive else head >= until):
                    self._now = until
        finally:
            self._running = False
        return processed

    def advance_to(self, time: float) -> None:
        """Jump the clock forward to *time* without processing events.

        Only legal when no pending event lies before *time* — jumping
        over live work would violate causality.  The sharded engine
        uses this to equalise shard clocks at collective-exit points
        (all shards park at the same global instant even when some
        drained their queues earlier than others).
        """
        head = self.peek_next_time()
        if head is not None and head < time:
            raise ValueError(
                f"cannot advance to {time}: pending event at {head}"
            )
        if time > self._now:
            self._now = time

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain (bounded to catch runaway loops)."""
        processed = self.run(max_events=max_events)
        if self.pending_events:
            raise RuntimeError(
                f"simulation did not go idle within {max_events} events"
            )
        return processed
