"""Base class for controller applications."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.openflow.messages import (
    ErrorMsg,
    FlowRemoved,
    OpenFlowMessage,
    PacketIn,
)

if TYPE_CHECKING:
    from repro.controller.core import Controller, Datapath


class ControllerApp:
    """One unit of control logic (learning switch, LB, DMZ, PC...).

    Apps receive lifecycle and message events; returning True from
    :meth:`on_packet_in` marks the packet consumed so later apps do not
    see it (apps are consulted in registration order).
    """

    name = "app"

    def __init__(self) -> None:
        self.controller: "Controller | None" = None

    def on_switch_ready(self, datapath: "Datapath") -> None:
        """Called once the handshake with a switch completes."""

    def on_packet_in(self, datapath: "Datapath", message: PacketIn) -> bool:
        """Handle a packet-in; return True to stop propagation."""
        return False

    def on_flow_removed(self, datapath: "Datapath", message: FlowRemoved) -> None:
        """Called when a flow with removal notification expires/is deleted."""

    def on_error(self, datapath: "Datapath", message: ErrorMsg) -> None:
        """Called on switch-reported errors."""

    def on_message(self, datapath: "Datapath", message: OpenFlowMessage) -> None:
        """Catch-all for other async messages."""
