"""Nodes and ports — the attachment points of the simulated network."""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, Optional

from repro.net.ethernet import EthernetFrame

if TYPE_CHECKING:
    from repro.netsim.capture import Capture
    from repro.netsim.link import Link, _Direction
    from repro.netsim.simulator import Simulator

#: A frame's wire length through the property (C-level, one call per burst).
_wire_length = attrgetter("wire_length")


class Port:
    """One network interface of a :class:`Node`.

    Ports are identified by a small integer unique within their node
    (matching how switch ports and OpenFlow port numbers work).  A port
    may be wired to a :class:`Link` or left dangling (frames sent out a
    dangling port are counted and dropped).

    Every frame that dies here is counted in ``drops`` under why:
    ``"port-down"`` (sent out of, or arriving at, a port that is not
    ``up``) or ``"unwired"``; ``tx_dropped`` is the transmit side's sum.
    """

    def __init__(self, node: "Node", number: int, name: "str | None" = None) -> None:
        self.node = node
        self.number = number
        self.name = name or f"{node.name}:{number}"
        self.link: Optional["Link"] = None
        #: The direction this port transmits on, set by the link that
        #: wires it; meaningful only while that link is ``link``.
        self._tx_direction: Optional["_Direction"] = None
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.tx_dropped = 0
        self.drops: "defaultdict[str, int]" = defaultdict(int)
        self.captures: list["Capture"] = []
        #: Set False to emulate link-down (frames silently dropped).
        self.up = True

    @property
    def is_wired(self) -> bool:
        return self.link is not None

    @property
    def peer(self) -> Optional["Port"]:
        """The port at the far end of the attached link, if any."""
        if self.link is None:
            return None
        return self.link.other_end(self)

    def send(self, frame: EthernetFrame) -> bool:
        """Transmit *frame* out this port.  Returns False if dropped."""
        if self.captures:
            for capture in self.captures:
                capture.record(self, "tx", frame)
        link = self.link
        if not self.up or link is None:
            self._tx_drop(1)
            return False
        self.tx_frames += 1
        self.tx_bytes += frame.wire_length
        return link.transmit(self, frame)

    def _tx_drop(self, frames: int) -> None:
        self.tx_dropped += frames
        self.drops["unwired" if self.up else "port-down"] += frames

    def send_burst(self, frames: "list[EthernetFrame]") -> int:
        """Transmit *frames* back-to-back; returns how many were queued.

        Per-frame semantics (captures, counters, drop-tail) match
        *len(frames)* sequential :meth:`send` calls, but the link
        coalesces the whole burst into one delivery event at the far
        end — the per-event overhead is paid once per burst.  The far
        end receives *frames* itself (unless a tail drop slices it), so
        the caller leaves the list alone once it is sent.
        """
        if self.captures:
            for capture in self.captures:
                for frame in frames:
                    capture.record(self, "tx", frame)
        link = self.link
        if not self.up or link is None:
            self._tx_drop(len(frames))
            return 0
        # The one length pass of this hop: the link serialises from
        # these lengths and reports the accepted bytes to the far port.
        lengths = list(map(_wire_length, frames))
        self.tx_frames += len(frames)
        self.tx_bytes += sum(lengths)
        return link.transmit_burst(self, frames, lengths)

    def deliver(self, frame: EthernetFrame) -> None:
        """Called by the link when a frame arrives at this port."""
        if self.captures:
            for capture in self.captures:
                capture.record(self, "rx", frame)
        if not self.up:
            self.drops["port-down"] += 1
            return
        self.rx_frames += 1
        self.rx_bytes += frame.wire_length
        self.node.receive(self, frame)

    def deliver_burst(
        self, frames: "list[EthernetFrame]", wire_bytes: int, arrivals: "list[float]"
    ) -> None:
        """Called by the link when a coalesced burst drains at this port.

        *frames* is the sender's list in wire order, *wire_bytes* their
        total wire length, measured once when the burst was sent, and
        *arrivals* each frame's arrival time — the per-frame
        serialisation timestamps are preserved even though the burst
        rides one simulator event.
        """
        if self.captures:
            for capture in self.captures:
                for frame in frames:
                    capture.record(self, "rx", frame)
        if not self.up:
            self.drops["port-down"] += len(frames)
            return
        self.rx_frames += len(frames)
        self.rx_bytes += wire_bytes
        self.node.receive_burst(self, frames, arrivals)

    def attach_capture(self, capture: "Capture") -> None:
        self.captures.append(capture)

    def __repr__(self) -> str:
        return f"Port({self.name})"


class Node:
    """Base class for anything with ports: hosts, switches, servers."""

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: dict[int, Port] = {}

    def add_port(self, number: "int | None" = None, name: "str | None" = None) -> Port:
        """Create a new port; numbers auto-increment from 1 if omitted."""
        if number is None:
            number = max(self.ports, default=0) + 1
        if number in self.ports:
            raise ValueError(f"{self.name}: port {number} already exists")
        port = Port(self, number, name=name)
        self.ports[number] = port
        return port

    def port(self, number: int) -> Port:
        """Look up a port by number, raising KeyError with context."""
        try:
            return self.ports[number]
        except KeyError:
            raise KeyError(f"{self.name} has no port {number}") from None

    def iter_ports(self) -> Iterator[Port]:
        """Ports in ascending port-number order."""
        for number in sorted(self.ports):
            yield self.ports[number]

    def receive(self, port: Port, frame: EthernetFrame) -> None:
        """Handle a frame arriving on *port*; subclasses override."""
        raise NotImplementedError

    def receive_burst(
        self, port: Port, frames: "list[EthernetFrame]", arrivals: "list[float]"
    ) -> None:
        """Handle a coalesced burst arriving on *port*.

        A burst is ``(frames, arrivals)``: the sender's frame list and,
        beside it, each frame's arrival time on the wire.  *frames* may
        be the very list the sender (or another receiver) holds, so a
        receiver never mutates it.  *arrivals* stays the last
        positional argument: the benchmark's tracer weighs a burst call
        by ``len(args[-1])``.

        The default unrolls to per-frame :meth:`receive` calls so every
        existing node works unchanged; batch-aware nodes (the software
        switch) override this to amortise per-frame work.
        """
        receive = self.receive
        for frame in frames:
            receive(port, frame)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"
