"""The controller core: datapath handles, handshake, dispatch."""

from __future__ import annotations

import itertools
from typing import Callable

from repro.netsim.simulator import Simulator
from repro.openflow import consts as c
from repro.openflow.actions import Action
from repro.openflow.instructions import ApplyActions, Instruction
from repro.openflow.match import Match
from repro.openflow.messages import (
    Bucket,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    GroupMod,
    Hello,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
    parse_message,
)
from repro.controller.channel import ControllerChannel, DEFAULT_CONTROL_LATENCY_S
from repro.softswitch.datapath import SoftSwitch


class Datapath:
    """Controller-side handle for one connected switch."""

    def __init__(self, controller: "Controller", channel: ControllerChannel) -> None:
        self.controller = controller
        self.channel = channel
        self.dpid: "int | None" = None
        self.n_tables: int = 0
        self.ready = False
        self._pending_replies: dict[int, Callable[[OpenFlowMessage], None]] = {}

    @property
    def name(self) -> str:
        return self.channel.switch.name

    def send(self, message: OpenFlowMessage) -> None:
        """Serialise and ship one message to the switch."""
        if message.xid == 0:
            message.xid = self.controller.next_xid()
        self.channel.send_to_switch(message.to_bytes())

    def send_with_reply(
        self, message: OpenFlowMessage, callback: Callable[[OpenFlowMessage], None]
    ) -> None:
        """Send a request and invoke *callback* with the matching reply."""
        message.xid = self.controller.next_xid()
        self._pending_replies[message.xid] = callback
        self.channel.send_to_switch(message.to_bytes())

    # ------------------------------------------------------- conveniences

    def flow_add(
        self,
        match: Match,
        actions: "list[Action] | None" = None,
        instructions: "list[Instruction] | None" = None,
        table_id: int = 0,
        priority: int = 0x8000,
        idle_timeout: int = 0,
        hard_timeout: int = 0,
        cookie: int = 0,
        notify_removal: bool = False,
    ) -> None:
        """Install a flow; *actions* shorthand wraps into apply-actions."""
        if actions is not None and instructions is not None:
            raise ValueError("pass either actions or instructions, not both")
        if instructions is None:
            instructions = [ApplyActions(actions=tuple(actions or ()))]
        self.send(
            FlowMod(
                match=match,
                instructions=instructions,
                table_id=table_id,
                priority=priority,
                idle_timeout=idle_timeout,
                hard_timeout=hard_timeout,
                cookie=cookie,
                flags=1 if notify_removal else 0,
            )
        )

    def flow_delete(
        self, match: Match, table_id: int = 0, strict: bool = False, priority: int = 0
    ) -> None:
        self.send(
            FlowMod(
                command=c.OFPFC_DELETE_STRICT if strict else c.OFPFC_DELETE,
                match=match,
                table_id=table_id,
                priority=priority,
            )
        )

    def group_add(
        self, group_id: int, buckets: list[Bucket], group_type: int = c.OFPGT_SELECT
    ) -> None:
        self.send(
            GroupMod(
                command=c.OFPGC_ADD,
                group_type=group_type,
                group_id=group_id,
                buckets=buckets,
            )
        )

    def packet_out(
        self, data: bytes, actions: list[Action], in_port: int = c.OFPP_CONTROLLER
    ) -> None:
        self.send(PacketOut(in_port=in_port, actions=actions, data=data))

    def flood(self, data: bytes, in_port: int) -> None:
        """Packet-out flooding *data* everywhere except *in_port*."""
        from repro.openflow.actions import OutputAction

        self.packet_out(
            data, [OutputAction(port=c.OFPP_FLOOD)], in_port=in_port
        )


class Controller:
    """Hosts apps and speaks OpenFlow to any number of switches."""

    def __init__(self, sim: Simulator, name: str = "controller") -> None:
        self.sim = sim
        self.name = name
        self.apps: list["ControllerApp"] = []
        self.datapaths: dict[int, Datapath] = {}
        self._xids = itertools.count(0x1000)
        self.errors_received: list[ErrorMsg] = []

    def next_xid(self) -> int:
        return next(self._xids)

    def add_app(self, app: "ControllerApp") -> "ControllerApp":
        """Register *app*; returns it for chaining."""
        self.apps.append(app)
        app.controller = self
        for datapath in self.datapaths.values():
            if datapath.ready:
                app.on_switch_ready(datapath)
        return app

    def connect(
        self,
        switch: SoftSwitch,
        latency_s: float = DEFAULT_CONTROL_LATENCY_S,
    ) -> Datapath:
        """Open a channel to *switch* and start the handshake."""
        channel = ControllerChannel(self.sim, switch, latency_s=latency_s)
        datapath = Datapath(self, channel)
        channel.to_controller_handler = lambda raw: self._receive(datapath, raw)
        datapath.send(Hello())
        datapath.send_with_reply(
            FeaturesRequest(), lambda reply: self._features(datapath, reply)
        )
        return datapath

    def _features(self, datapath: Datapath, reply: OpenFlowMessage) -> None:
        assert isinstance(reply, FeaturesReply)
        datapath.dpid = reply.datapath_id
        datapath.n_tables = reply.n_tables
        datapath.ready = True
        self.datapaths[reply.datapath_id] = datapath
        for app in self.apps:
            app.on_switch_ready(datapath)

    def _receive(self, datapath: Datapath, raw: bytes) -> None:
        message = parse_message(raw)
        callback = datapath._pending_replies.pop(message.xid, None)
        if callback is not None and not isinstance(message, (PacketIn, FlowRemoved)):
            callback(message)
            return
        if isinstance(message, Hello):
            return
        if isinstance(message, EchoRequest):
            datapath.send(EchoReply(xid=message.xid, payload=message.payload))
            return
        if isinstance(message, ErrorMsg):
            self.errors_received.append(message)
            for app in self.apps:
                app.on_error(datapath, message)
            return
        if isinstance(message, PacketIn):
            for app in self.apps:
                if app.on_packet_in(datapath, message):
                    break  # app consumed the packet
            return
        if isinstance(message, FlowRemoved):
            for app in self.apps:
                app.on_flow_removed(datapath, message)
            return
        # Unsolicited stats replies etc. go to apps' generic hook.
        for app in self.apps:
            app.on_message(datapath, message)


# Cycle break; also resolves the string annotations above at runtime.
from repro.controller.app import ControllerApp  # noqa: E402,F401
