"""Use case (b): DMZ — VM-level access policies in a multi-tenant cloud.

A default-deny policy with an explicit allow matrix: only VM pairs that
appear in ``allowed_pairs`` may exchange traffic (the paper's example:
Host 1 and Host 2 "permitted to exchange traffic only with each
other").  Policy is installed proactively: allow flows at high
priority, ARP restricted to the same pairs (one rule per VM, rewritten
whenever one of its pairs is allowed or revoked), and a priority-0 drop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addresses import IPv4Address, MACAddress
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.controller.app import ControllerApp
from repro.controller.core import Datapath


@dataclass(frozen=True)
class Vm:
    """One tenant VM attached to a switch port."""

    name: str
    ip: IPv4Address
    mac: MACAddress
    port: int


class DmzPolicyApp(ControllerApp):
    """Default-deny pairwise connectivity policy."""

    name = "dmz-policy"

    def __init__(
        self,
        vms: list[Vm],
        allowed_pairs: "set[tuple[str, str]]",
        priority: int = 200,
    ) -> None:
        super().__init__()
        self.vms = {vm.name: vm for vm in vms}
        if len(self.vms) != len(vms):
            raise ValueError("duplicate VM names")
        self.allowed_pairs = {self._norm(a, b) for a, b in allowed_pairs}
        for a, b in self.allowed_pairs:
            if a not in self.vms or b not in self.vms:
                raise ValueError(f"allowed pair references unknown VM: {(a, b)}")
        self.priority = priority
        self._installed_datapaths: list[Datapath] = []

    @staticmethod
    def _norm(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def is_allowed(self, name_a: str, name_b: str) -> bool:
        return self._norm(name_a, name_b) in self.allowed_pairs

    def on_switch_ready(self, datapath: Datapath) -> None:
        self._installed_datapaths.append(datapath)
        # Explicit default deny (also documents intent in the flow dump).
        datapath.flow_add(match=Match(), actions=[], priority=0)
        for a, b in sorted(self.allowed_pairs):
            self._install_ipv4(datapath, self.vms[a], self.vms[b])
        for vm in self.vms.values():
            if self._peers(vm):
                self._install_arp(datapath, vm)

    def _peers(self, vm: Vm) -> "list[Vm]":
        """The VMs *vm* may currently talk to, in port order."""
        return sorted(
            (self.vms[b if a == vm.name else a] for a, b in self.allowed_pairs
             if vm.name in (a, b)),
            key=lambda peer: peer.port,
        )

    def _install_ipv4(self, datapath: Datapath, vm_a: Vm, vm_b: Vm) -> None:
        for src, dst in ((vm_a, vm_b), (vm_b, vm_a)):
            datapath.flow_add(
                match=Match(
                    eth_type=0x0800,
                    ipv4_src=int(src.ip),
                    ipv4_dst=int(dst.ip),
                ),
                actions=[OutputAction(port=dst.port)],
                priority=self.priority,
            )

    def _install_arp(self, datapath: Datapath, vm: Vm) -> None:
        """(Re)write *vm*'s one ARP rule: its requests (broadcast) and its
        replies (unicast) go to every peer it may currently reach, and a
        VM with no peer left has no ARP rule.  An ADD of the same match
        and priority replaces the rule, so one rule per VM holds all its
        pairs; a rule per pair on ``(in_port, eth_src)`` would overwrite
        the VM's other pairs."""
        match = Match(eth_type=0x0806, in_port=vm.port, eth_src=int(vm.mac))
        peers = self._peers(vm)
        if not peers:
            datapath.flow_delete(match)
            return
        datapath.flow_add(
            match=match,
            actions=[OutputAction(port=peer.port) for peer in peers],
            priority=self.priority,
        )

    def allow(self, datapath: Datapath, name_a: str, name_b: str) -> None:
        """Grant a pair connectivity at runtime (fine-tuning the policy)."""
        pair = self._norm(name_a, name_b)
        if pair in self.allowed_pairs:
            return
        self.allowed_pairs.add(pair)
        vm_a, vm_b = self.vms[pair[0]], self.vms[pair[1]]
        self._install_ipv4(datapath, vm_a, vm_b)
        self._install_arp(datapath, vm_a)
        self._install_arp(datapath, vm_b)

    def revoke(self, datapath: Datapath, name_a: str, name_b: str) -> None:
        """Remove a pair's connectivity at runtime."""
        pair = self._norm(name_a, name_b)
        if pair not in self.allowed_pairs:
            return
        self.allowed_pairs.discard(pair)
        vm_a, vm_b = self.vms[pair[0]], self.vms[pair[1]]
        for src, dst in ((vm_a, vm_b), (vm_b, vm_a)):
            datapath.flow_delete(
                Match(
                    eth_type=0x0800,
                    ipv4_src=int(src.ip),
                    ipv4_dst=int(dst.ip),
                )
            )
        self._install_arp(datapath, vm_a)
        self._install_arp(datapath, vm_b)
