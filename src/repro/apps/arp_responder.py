"""Proxy-ARP responder: answers ARP requests from a static table.

Used by the load-balancer scenario so clients can resolve the VIP
without any backend owning it.
"""

from __future__ import annotations

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.arp import ARP_OP_REQUEST
from repro.net.build import arp_frame, parse_arp
from repro.net.ethernet import EthernetFrame
from repro.openflow.actions import OutputAction
from repro.openflow.messages import PacketIn
from repro.controller.app import ControllerApp
from repro.controller.core import Datapath


class ArpResponderApp(ControllerApp):
    """Answers who-has for the IPs it owns; lets other ARP pass."""

    name = "arp-responder"

    def __init__(self, bindings: "dict[IPv4Address, MACAddress] | None" = None) -> None:
        super().__init__()
        self.bindings: dict[IPv4Address, MACAddress] = {
            IPv4Address(ip): MACAddress(mac)
            for ip, mac in (bindings or {}).items()
        }
        self.replies_sent = 0

    def on_packet_in(self, datapath: Datapath, message: PacketIn) -> bool:
        if message.in_port is None:
            return False
        frame = EthernetFrame.from_bytes(message.data)
        arp = parse_arp(frame)
        if arp is None or arp.opcode != ARP_OP_REQUEST:
            return False
        owned_mac = self.bindings.get(arp.target_ip)
        if owned_mac is None:
            return False
        reply = arp.make_reply(owned_mac)
        datapath.packet_out(
            arp_frame(reply, src_mac=owned_mac).to_bytes(),
            [OutputAction(port=message.in_port)],
        )
        self.replies_sent += 1
        return True
