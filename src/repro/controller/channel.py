"""The control channel between one switch and the controller.

Carries serialised OpenFlow bytes in both directions with a one-way
latency (the management network).  Synchronous replies produced by
``SoftSwitch.handle_message`` ride back over the same latency, so a
request/reply exchange costs one RTT — matching what a controller
measures against a real switch.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Optional

from repro.netsim.simulator import Simulator
from repro.softswitch.datapath import SoftSwitch

#: One-way control-channel latency: the switch is typically one or two
#: L2 hops from the controller on the management network.
DEFAULT_CONTROL_LATENCY_S = 50e-6


class ControllerChannel:
    """Bidirectional byte pipe with latency between controller and switch."""

    def __init__(
        self,
        sim: Simulator,
        switch: SoftSwitch,
        latency_s: float = DEFAULT_CONTROL_LATENCY_S,
    ) -> None:
        self.sim = sim
        self.switch = switch
        self.latency_s = latency_s
        self.to_controller_handler: "Optional[Callable[[bytes], None]]" = None
        self.messages_to_switch = 0
        self.messages_to_controller = 0
        #: False while the management network is unreachable: both
        #: directions black-hole (TCP would eventually reset; the
        #: simplification is a silently lossy pipe with counters).
        self.up = True
        #: Why messages were lost, reason -> count: ``to-switch:`` or
        #: ``to-controller:``, then ``channel-down`` (sent while down)
        #: or ``lost-in-flight`` (down when it would have landed).
        self.drops: "defaultdict[str, int]" = defaultdict(int)
        switch.to_controller = self._from_switch_async

    @property
    def dropped_to_switch(self) -> int:
        """Messages lost on the way to the switch: the ``to-switch:`` reasons."""
        return sum(n for reason, n in self.drops.items() if reason.startswith("to-switch:"))

    @property
    def dropped_to_controller(self) -> int:
        """Messages lost on the way to the controller: the ``to-controller:`` reasons."""
        return sum(n for reason, n in self.drops.items() if reason.startswith("to-controller:"))

    def set_down(self) -> None:
        """Fail the channel: every message in either direction is lost,
        including ones already in flight when the failure hits."""
        self.up = False

    def set_up(self) -> None:
        self.up = True

    def send_to_switch(self, raw: bytes) -> None:
        """Controller -> switch; switch replies return automatically."""
        if not self.up:
            self.drops["to-switch:channel-down"] += 1
            return
        self.messages_to_switch += 1
        self.sim.schedule(self.latency_s, self._deliver_to_switch, raw)

    def _deliver_to_switch(self, raw: bytes) -> None:
        if not self.up:
            self.drops["to-switch:lost-in-flight"] += 1
            return
        for response in self.switch.handle_message(raw):
            self._from_switch_async(response)

    def _from_switch_async(self, raw: bytes) -> None:
        """Switch -> controller (async messages and replies)."""
        if not self.up:
            self.drops["to-controller:channel-down"] += 1
            return
        self.messages_to_controller += 1
        self.sim.schedule(self.latency_s, self._deliver_to_controller, raw)

    def _deliver_to_controller(self, raw: bytes) -> None:
        if not self.up:
            self.drops["to-controller:lost-in-flight"] += 1
            return
        if self.to_controller_handler is not None:
            self.to_controller_handler(raw)
