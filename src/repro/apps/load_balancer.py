"""Use case (a): source-IP load balancing across web backends.

Ingress web traffic to a virtual IP (VIP) is spread over backends with
an OpenFlow *select* group whose hash includes the source IP — the
matching of the paper's demo ("equally distribute ingress web traffic
between multiple backends based on matching of the source IP address").
Each bucket rewrites the destination MAC/IP to one backend; return
traffic is rewritten back to the VIP so clients see a single server.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addresses import IPv4Address, MACAddress
from repro.openflow.actions import OutputAction, SetFieldAction
from repro.openflow.consts import OFPGT_SELECT
from repro.openflow.match import Match
from repro.openflow.messages import Bucket
from repro.controller.app import ControllerApp
from repro.controller.core import Datapath


@dataclass(frozen=True)
class Backend:
    """One real server behind the VIP."""

    ip: IPv4Address
    mac: MACAddress
    port: int  # switch port the backend is attached to
    weight: int = 1


class LoadBalancerApp(ControllerApp):
    """Proactive VIP load balancer on a select group."""

    name = "load-balancer"

    def __init__(
        self,
        vip: IPv4Address,
        vip_mac: MACAddress,
        backends: list[Backend],
        tcp_port: int = 80,
        group_id: int = 1,
        priority: int = 100,
    ) -> None:
        super().__init__()
        self.vip = IPv4Address(vip)
        self.vip_mac = MACAddress(vip_mac)
        self.backends = list(backends)
        self.tcp_port = tcp_port
        self.group_id = group_id
        self.priority = priority
        if not self.backends:
            raise ValueError("load balancer needs at least one backend")

    def _buckets(self) -> list[Bucket]:
        return [
            Bucket(
                weight=backend.weight,
                actions=[
                    SetFieldAction(field="eth_dst", value=int(backend.mac)),
                    SetFieldAction(field="ipv4_dst", value=int(backend.ip)),
                    OutputAction(port=backend.port),
                ],
            )
            for backend in self.backends
        ]

    def on_switch_ready(self, datapath: Datapath) -> None:
        datapath.group_add(self.group_id, self._buckets(), group_type=OFPGT_SELECT)
        # Client -> VIP: hand to the select group.
        from repro.openflow.actions import GroupAction

        datapath.flow_add(
            match=Match(eth_type=0x0800, ipv4_dst=int(self.vip)),
            actions=[GroupAction(group_id=self.group_id)],
            priority=self.priority,
        )
        # Backend -> client: rewrite the source back to the VIP.
        for backend in self.backends:
            datapath.flow_add(
                match=Match(
                    eth_type=0x0800,
                    in_port=backend.port,
                    ipv4_src=int(backend.ip),
                ),
                instructions=None,
                actions=[
                    SetFieldAction(field="ipv4_src", value=int(self.vip)),
                    SetFieldAction(field="eth_src", value=int(self.vip_mac)),
                    OutputAction(port=0xFFFFFFFB),  # FLOOD; refined by L2 app flows
                ],
                priority=self.priority,
            )
