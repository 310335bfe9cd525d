"""Full-duplex point-to-point links with realistic timing.

Each direction models: a finite drop-tail transmit queue, store-and-
forward serialisation at the configured bandwidth, then propagation
delay.  These are the terms that appear in the paper's latency story —
HARMLESS adds one extra trunk-link traversal, so getting link timing
right is what makes the latency benchmark meaningful.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.net.ethernet import EthernetFrame
from repro.netsim.node import Port

#: 1 Gbit/s, the typical access speed of the legacy switches HARMLESS targets.
DEFAULT_BANDWIDTH_BPS = 1_000_000_000
#: A couple of metres of copper.
DEFAULT_PROP_DELAY_S = 1e-6
#: Frames queued per direction before tail drop.
DEFAULT_QUEUE_FRAMES = 128


@dataclass
class LinkStats:
    """Per-direction transmission statistics."""

    frames: int = 0
    bytes: int = 0
    drops: int = 0
    busy_time: float = 0.0
    #: Highest simultaneous queue occupancy the direction ever saw —
    #: lets burst benches assert that bursts actually queued rather
    #: than silently serialising one frame at a time.
    queue_hwm: int = 0


class _Direction:
    """One direction of a link, created at wiring with its *far* port.

    A delivery event is this record's bound method plus the frame — no
    closure, no registry of what is on the wire.  ``queued`` is exactly
    the frames whose delivery is still in the simulator's queue
    (:meth:`Link.set_down` counts what it cuts by it).  ``drops`` splits
    ``stats.drops`` by why (``"queue-tail"``, ``"link-down"``), beside
    :class:`LinkStats` because that one is hashed into run digests.
    """

    __slots__ = ("far", "busy_until", "queued", "stats", "drops")

    def __init__(self, far: Port) -> None:
        self.far = far
        self.busy_until = 0.0
        self.queued = 0
        self.stats = LinkStats()
        self.drops: "defaultdict[str, int]" = defaultdict(int)

    def drop(self, reason: str, frames: int) -> None:
        self.stats.drops += frames
        self.drops[reason] += frames

    # ``far.deliver*`` is looked up when the event fires, so a wrapper
    # installed on the Port class meanwhile (a tracer, a test) is seen.
    def deliver(self, frame: EthernetFrame) -> None:
        self.queued -= 1
        self.far.deliver(frame)

    def deliver_burst(
        self, accepted: "list[tuple[float, EthernetFrame]]", wire_bytes: int
    ) -> None:
        self.queued -= len(accepted)
        self.far.deliver_burst(accepted, wire_bytes)


class Link:
    """A full-duplex link between two ports.

    ``bandwidth_bps=None`` gives an ideal link (zero serialisation
    time), used for the patch-port fabric inside the HARMLESS server
    where "links" are memory copies.
    """

    def __init__(
        self,
        port_a: Port,
        port_b: Port,
        bandwidth_bps: "float | None" = DEFAULT_BANDWIDTH_BPS,
        propagation_delay_s: float = DEFAULT_PROP_DELAY_S,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
        name: "str | None" = None,
    ) -> None:
        if port_a.link is not None or port_b.link is not None:
            raise ValueError("port already wired to a link")
        if port_a is port_b:
            raise ValueError("cannot wire a port to itself")
        # Written so that NaN fails each test as well.
        if bandwidth_bps is not None and not bandwidth_bps > 0:
            raise ValueError(f"bandwidth must be > 0 bit/s or None, got {bandwidth_bps}")
        if not propagation_delay_s >= 0:
            raise ValueError(f"propagation delay must be >= 0 s, got {propagation_delay_s}")
        if not queue_frames >= 1:
            raise ValueError(f"a link queue holds at least one frame, got {queue_frames}")
        self.port_a = port_a
        self.port_b = port_b
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay_s = propagation_delay_s
        self.queue_frames = queue_frames
        self.name = name or f"{port_a.name}<->{port_b.name}"
        #: Physical state: a downed link refuses new frames and has
        #: dropped whatever was queued or propagating when it failed.
        self.up = True
        self._a_to_b = _Direction(port_b)
        self._b_to_a = _Direction(port_a)
        self.sim = port_a.node.sim
        if port_b.node.sim is not self.sim:
            raise ValueError("ports belong to different simulators")
        port_a.link = self
        port_b.link = self
        # Each end holds its own transmit record, so :meth:`transmit`
        # needs no :meth:`direction` call.  It is read only while the
        # port's ``link`` is this link, so unwiring leaves it be.
        port_a._tx_direction = self._a_to_b
        port_b._tx_direction = self._b_to_a

    def disconnect(self) -> None:
        """Unwire both ports (re-cabling / failed-deployment cleanup).

        Frames already serialised onto the wire still deliver; the
        ports just stop being attached for future sends, and may be
        wired to a new link afterwards.
        """
        for port in (self.port_a, self.port_b):
            if port.link is self:
                port.link = None

    def direction(self, from_port: Port) -> _Direction:
        """The direction whose transmitter is *from_port*: its ``stats``,
        ``drops`` by reason, ``queued`` frames and ``busy_until``."""
        if from_port is self.port_a:
            return self._a_to_b
        if from_port is self.port_b:
            return self._b_to_a
        raise ValueError(f"{from_port!r} is not an end of {self.name}")

    def other_end(self, port: Port) -> Port:
        return self.direction(port).far

    def stats(self, from_port: Port) -> LinkStats:
        """Stats for the direction whose transmitter is *from_port*."""
        return self.direction(from_port).stats

    def serialization_delay(self, frame: EthernetFrame) -> float:
        """Time to clock *frame* onto the wire at this link's bandwidth.
        :meth:`transmit` and :meth:`transmit_burst` inline this very
        expression: burst and single-frame timing must agree to the
        last ulp."""
        bandwidth = self.bandwidth_bps
        return 0.0 if bandwidth is None else frame.wire_length * 8 / bandwidth

    def transmit(self, from_port: Port, frame: EthernetFrame) -> bool:
        """Queue *frame* for the far end; returns False on a drop."""
        if from_port.link is self:
            direction = from_port._tx_direction
        else:  # a former end, or no end at all: direction() raises
            direction = self.direction(from_port)
        queued = direction.queued
        if not self.up or queued >= self.queue_frames:
            direction.drop("queue-tail" if self.up else "link-down", 1)
            return False
        length = frame.wire_length
        bandwidth = self.bandwidth_bps
        serialization = 0.0 if bandwidth is None else length * 8 / bandwidth
        now = self.sim._now
        busy = direction.busy_until
        finish = (busy if busy > now else now) + serialization
        direction.busy_until = finish
        direction.queued = queued = queued + 1
        stats = direction.stats
        stats.frames += 1
        stats.bytes += length
        stats.busy_time += serialization
        if queued > stats.queue_hwm:
            stats.queue_hwm = queued
        self.sim.schedule_at(
            finish + self.propagation_delay_s, direction.deliver, frame
        )
        return True

    def transmit_burst(
        self, from_port: Port, frames: "list[EthernetFrame]", lengths: "list[int]"
    ) -> int:
        """Queue a burst for the far end; returns how many frames fit.

        *lengths* are the frames' wire lengths, measured by the sending
        port.  Each frame is serialised individually — per-frame
        start/finish times, byte accounting and tail-drop behave exactly
        like *len(frames)* sequential :meth:`transmit` calls — but the
        whole accepted burst rides **one** simulator event, scheduled at
        the burst drain (the last frame's arrival).  The per-frame
        arrival times are preserved in the delivered payload, so
        receivers that care about wire timing still see it; the
        coalescing trade is that earlier frames are *handed over* at
        drain time (and the queue occupancy drains all at once) rather
        than one event each.
        """
        if from_port.link is self:
            direction = from_port._tx_direction
        else:  # a former end, or no end at all: direction() raises
            direction = self.direction(from_port)
        stats = direction.stats
        if not self.up:
            direction.drop("link-down", len(frames))
            return 0
        # Nothing drains while a burst is being queued (that takes a
        # simulator event), so the queue takes the head of the burst
        # that fits and tail-drops the rest.
        fits = min(len(frames), max(self.queue_frames - direction.queued, 0))
        if fits < len(frames):
            direction.drop("queue-tail", len(frames) - fits)
            if not fits:
                return 0
            frames, lengths = frames[:fits], lengths[:fits]
        now = self.sim._now
        busy = direction.busy_until
        prop = self.propagation_delay_s
        bandwidth = self.bandwidth_bps
        if bandwidth is None:
            # Ideal link: zero serialisation, so sequential transmits
            # would start, finish and land every frame at one instant
            # and add 0.0 to busy_time each — account them in one step.
            busy = busy if busy > now else now
            arrival = busy + prop
            accepted = [(arrival, frame) for frame in frames]
        else:
            busy_time = stats.busy_time
            accepted = []
            for frame, length in zip(frames, lengths):
                serialization = length * 8 / bandwidth
                start = busy if busy > now else now
                busy = start + serialization
                busy_time += serialization
                accepted.append((busy + prop, frame))
            stats.busy_time = busy_time
        wire_bytes = sum(lengths)
        direction.busy_until = busy
        direction.queued += fits
        stats.frames += fits
        stats.bytes += wire_bytes
        if direction.queued > stats.queue_hwm:
            stats.queue_hwm = direction.queued
        if accepted:
            self.sim.schedule_at(
                accepted[-1][0], direction.deliver_burst, accepted, wire_bytes
            )
        return fits

    def set_down(self) -> None:
        """Fail the link: everything queued or propagating is lost.

        Each direction's pending deliveries — the queue's events bound to
        its record, found by one scan per fault — are cancelled (a cut
        delivery is never a processed event) and the ``queued`` frames
        they carried counted as ``"link-down"`` drops, as are the frames
        :meth:`transmit` and :meth:`transmit_burst` refuse while down.
        Idempotent.  The ports' administrative state is untouched —
        callers that model a detected failure (loss of light) pair this
        with ``LegacySwitch.link_down`` on the attached switches; see
        :mod:`repro.netsim.faults`.
        """
        if not self.up:
            return
        self.up = False
        now = self.sim._now
        for direction in (self._a_to_b, self._b_to_a):
            if direction.queued:
                self.sim.cancel_bound(direction)
                direction.drop("link-down", direction.queued)
                direction.queued = 0
            if direction.busy_until > now:
                direction.busy_until = now

    def set_up(self) -> None:
        """Restore a failed link; the wire comes back idle and empty."""
        self.up = True

    def utilization(self, from_port: Port, elapsed: float) -> float:
        """Fraction of *elapsed* the direction spent serialising frames."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats(from_port).busy_time / elapsed)

    def __repr__(self) -> str:
        return f"Link({self.name})"


def wire(
    node_a,
    node_b,
    bandwidth_bps: "float | None" = DEFAULT_BANDWIDTH_BPS,
    propagation_delay_s: float = DEFAULT_PROP_DELAY_S,
    queue_frames: int = DEFAULT_QUEUE_FRAMES,
) -> Link:
    """Convenience: add a fresh port on each node and link them."""
    return Link(
        node_a.add_port(),
        node_b.add_port(),
        bandwidth_bps=bandwidth_bps,
        propagation_delay_s=propagation_delay_s,
        queue_frames=queue_frames,
    )
