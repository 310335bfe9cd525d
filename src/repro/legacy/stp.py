"""Simplified 802.1D spanning tree for the legacy dataplane.

The ring topology needs what every real bridged network needs: a loop
in the cabling that the control plane, not the cabling, keeps loop-free
— so that when a link is cut, the blocked port can take over.  This
module implements the minimum of 802.1D that delivers that behaviour
while staying deterministic and cheap inside the simulator:

* **Election by priority vector.**  Every bridge has a 64-bit id
  (16-bit priority, 48-bit address) and advertises
  ``(root_id, root_cost, bridge_id, port_id)`` in config BPDUs sent to
  the 01:80:C2:00:00:00 group address.  Lowest vector wins: the lowest
  bridge id becomes root, every other bridge picks a root port
  (cheapest path, sender id / sender port / local port as tie-breaks),
  and each segment keeps exactly one designated transmitter.  Ports
  that are neither root nor designated block.
* **Timed transitions.**  A port moves BLOCKING -> LISTENING ->
  LEARNING -> FORWARDING, spending ``forward_delay_s`` in each
  intermediate state, so data never flows before election has settled.
  Blocking is immediate.  Ports outside the managed set ("edge" ports
  — hosts, generators, the HARMLESS trunk) forward immediately and
  never see BPDUs.
* **Failure detection.**  A received vector expires after
  ``max_age_s`` without refresh (the designated peer died or the path
  to the root collapsed); ``link_down`` clears it immediately.  Either
  way the bridge re-runs the election with what remains, which is what
  re-converges a cut ring onto its formerly blocked port.  Inferior
  information *from the same sender* replaces the stored vector at
  once, so a bridge that lost its root propagates the bad news a hop
  per BPDU instead of a hop per timeout.
* **Topology-change flushes, epoch-style.**  Real 802.1D shortens FDB
  aging via TCN/TCA handshakes; this model does the equivalent
  flush-now: each change mints a ``(origin bridge, sequence)`` epoch
  carried in every BPDU and in a TCN sent out the root port, and every
  bridge flushes its dynamic FDB exactly once per new epoch — loop
  free, ack free, and fast enough that stale entries never blackhole
  unicast until the 300 s aging timer would have saved them.

Timers default to a 20x-compressed scale (hello 0.1 s vs the standard
2 s) purely so scenario scripts converge in tenths of simulated
seconds; the ratios between hello, max-age and forward-delay are
preserved in spirit.  BPDUs ride a private ethertype instead of LLC
(the simulator's frames are Ethernet II only).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.net.addresses import MACAddress
from repro.net.ethernet import EthernetFrame

if TYPE_CHECKING:
    from repro.legacy.switch import LegacySwitch

__all__ = [
    "DEFAULT_FORWARD_DELAY_S",
    "DEFAULT_HELLO_S",
    "DEFAULT_MAX_AGE_S",
    "DEFAULT_PORT_COST",
    "PortRole",
    "PortState",
    "STP_ETHERTYPE",
    "STP_MULTICAST",
    "SpanningTree",
]

#: The IEEE bridge group address all BPDUs are sent to.
STP_MULTICAST = MACAddress("01:80:c2:00:00:00")
#: Stand-in ethertype for the 802.2 LLC encapsulation real BPDUs use.
STP_ETHERTYPE = 0x010B

DEFAULT_BRIDGE_PRIORITY = 0x8000
DEFAULT_PORT_COST = 100
DEFAULT_HELLO_S = 0.1
DEFAULT_MAX_AGE_S = 0.35
DEFAULT_FORWARD_DELAY_S = 0.15

_CONFIG = 0
_TCN = 1
#: type, root_id, root_cost, bridge_id, port_id, tc_origin, tc_seq
_BPDU = struct.Struct("!BQLQHQL")


class PortState(Enum):
    BLOCKING = "blocking"
    LISTENING = "listening"
    LEARNING = "learning"
    FORWARDING = "forwarding"


class PortRole(Enum):
    ROOT = "root"
    DESIGNATED = "designated"
    ALTERNATE = "alternate"
    DISABLED = "disabled"


@dataclass
class _PortInfo:
    """The best vector heard on a port, and when it was last refreshed."""

    vector: "tuple[int, int, int, int]"
    received_at: float


class _StpPort:
    """Election state for one managed port."""

    def __init__(self, number: int, cost: int) -> None:
        self.number = number
        self.cost = cost
        self.info: "_PortInfo | None" = None
        self.role = PortRole.DESIGNATED
        self.state = PortState.BLOCKING
        self.disabled = False
        #: Pending LISTENING->LEARNING->FORWARDING events (cancellable).
        self.transition: list = []


def bridge_address(name: str) -> MACAddress:
    """Deterministic locally-administered bridge MAC for *name*."""
    return MACAddress(0x02_00_00_00_00_00 | zlib.crc32(name.encode()))


class SpanningTree:
    """One bridge's spanning-tree instance, attached to a LegacySwitch.

    *ports* lists the managed (inter-switch) port numbers; every other
    port of the switch is an edge port — ungated, BPDU-free.  Attach
    after the switch's links are wired so the first BPDUs have
    somewhere to go (construction registers itself as ``switch.stp``
    and starts the election immediately).
    """

    def __init__(
        self,
        switch: "LegacySwitch",
        ports: "list[int]",
        priority: int = DEFAULT_BRIDGE_PRIORITY,
        address: "MACAddress | None" = None,
        hello_s: float = DEFAULT_HELLO_S,
        max_age_s: float = DEFAULT_MAX_AGE_S,
        forward_delay_s: float = DEFAULT_FORWARD_DELAY_S,
        port_cost: int = DEFAULT_PORT_COST,
    ) -> None:
        if not 0 <= priority <= 0xFFFF:
            raise ValueError(f"bridge priority out of range: {priority}")
        self.switch = switch
        self.sim = switch.sim
        self.address = address if address is not None else bridge_address(switch.name)
        self.bridge_id = priority << 48 | int(self.address)
        self.hello_s = hello_s
        self.max_age_s = max_age_s
        self.forward_delay_s = forward_delay_s
        self._ports = {
            number: _StpPort(number, port_cost) for number in sorted(set(ports))
        }
        self.root_id = self.bridge_id
        self.root_cost = 0
        self.root_port: "int | None" = None
        #: origin bridge id -> highest flushed sequence (epoch dedup).
        self._tc_seen: "dict[int, int]" = {}
        self._tc_local_seq = 0
        #: The epoch stamped on outgoing BPDUs ((0, 0) = none yet).
        self._tc_current: "tuple[int, int]" = (0, 0)
        self._tick_event = None
        self.running = False
        self.bpdus_sent = 0
        self.bpdus_received = 0
        self.topology_changes = 0
        self.tc_flushes = 0
        switch.stp = self
        self.start()

    # --------------------------------------------------------- queries

    def handles(self, port_number: int) -> bool:
        """True when *port_number* is a managed (non-edge) port."""
        return port_number in self._ports

    def port_state(self, port_number: int) -> "PortState | None":
        """The managed port's state, or None for edge ports."""
        port = self._ports.get(port_number)
        return None if port is None else port.state

    def port_role(self, port_number: int) -> "PortRole | None":
        port = self._ports.get(port_number)
        return None if port is None else port.role

    def forwarding_allowed(self, port_number: int) -> bool:
        """Dataplane gate: may the switch move frames through this port?"""
        port = self._ports.get(port_number)
        return port is None or port.state is PortState.FORWARDING

    @property
    def is_root(self) -> bool:
        return self.root_id == self.bridge_id

    def settle_s(self) -> float:
        """Conservative time for a fresh election to reach FORWARDING."""
        return 2 * self.forward_delay_s + 2 * self.hello_s

    def describe(self) -> str:
        role = "root" if self.is_root else f"root-port {self.root_port}"
        ports = ", ".join(
            f"{p.number}:{p.role.value}/{p.state.value}"
            for p in self._ports.values()
        )
        return f"{self.switch.name}: {role}, cost {self.root_cost} [{ports}]"

    # ------------------------------------------------------- lifecycle

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._reconverge(force_transmit=True)
        self._tick_event = self.sim.schedule(self.hello_s, self._tick)

    def stop(self) -> None:
        """Halt the instance (switch crash): timers die, state freezes."""
        if not self.running:
            return
        self.running = False
        if self._tick_event is not None:
            self.sim.cancel(self._tick_event)
            self._tick_event = None
        for port in self._ports.values():
            self._cancel_transition(port)
            port.state = PortState.BLOCKING

    def restart(self) -> None:
        """Cold restart (switch power-on): all learned state is gone."""
        self.stop()
        for port in self._ports.values():
            port.info = None
            port.role = PortRole.DESIGNATED
            port.state = PortState.BLOCKING
        self.root_id = self.bridge_id
        self.root_cost = 0
        self.root_port = None
        self.start()

    def port_down(self, port_number: int) -> None:
        """The switch detected loss of link on a managed port."""
        port = self._ports.get(port_number)
        if port is None or port.disabled:
            return
        port.disabled = True
        port.info = None
        self._cancel_transition(port)
        was_forwarding = port.state is PortState.FORWARDING
        port.state = PortState.BLOCKING
        port.role = PortRole.DISABLED
        if not self.running:
            return
        self._reconverge()
        if was_forwarding:
            self._topology_changed()

    def port_up(self, port_number: int) -> None:
        port = self._ports.get(port_number)
        if port is None or not port.disabled:
            return
        port.disabled = False
        port.info = None
        port.role = PortRole.DESIGNATED
        if self.running:
            self._reconverge(force_transmit=True)

    # --------------------------------------------------------- receive

    def receive_bpdu(self, port_number: int, frame: EthernetFrame) -> None:
        port = self._ports.get(port_number)
        if port is None or port.disabled or not self.running:
            return  # edge or dead ports ignore BPDUs
        try:
            (msg_type, root_id, root_cost, bridge_id, port_id,
             tc_origin, tc_seq) = _BPDU.unpack_from(frame.payload)
        except struct.error:
            return
        self.bpdus_received += 1
        self._note_tc(tc_origin, tc_seq)
        if msg_type != _CONFIG:
            return  # TCN carries only the epoch, handled above
        vector = (root_id, root_cost, bridge_id, port_id)
        stored = port.info
        if stored is not None and stored.vector[2:] == (bridge_id, port_id):
            # Same sender: always accept, even if worse — this is how
            # "I lost the root" propagates without waiting for max-age.
            changed = stored.vector != vector
            port.info = _PortInfo(vector, self.sim.now)
        elif stored is None or vector < stored.vector:
            changed = True
            port.info = _PortInfo(vector, self.sim.now)
        else:
            return  # inferior info from a different sender: ignore
        if changed:
            self._reconverge()

    # -------------------------------------------------------- election

    def _reconverge(self, force_transmit: bool = False) -> None:
        """Re-run the election; transmit BPDUs if anything changed."""
        before = (
            self.root_id,
            self.root_cost,
            self.root_port,
            tuple((p.number, p.role) for p in self._ports.values()),
        )
        self._recompute()
        after = (
            self.root_id,
            self.root_cost,
            self.root_port,
            tuple((p.number, p.role) for p in self._ports.values()),
        )
        if force_transmit or before != after:
            self._transmit_config()

    def _recompute(self) -> None:
        candidates = []
        for port in self._ports.values():
            if port.disabled or port.info is None:
                continue
            root_id, cost, bridge_id, port_id = port.info.vector
            candidates.append(
                (root_id, cost + port.cost, bridge_id, port_id, port.number)
            )
        best = min(candidates) if candidates else None
        if best is None or best[0] >= self.bridge_id:
            self.root_id = self.bridge_id
            self.root_cost = 0
            self.root_port = None
        else:
            root_id = best[0]
            through = min(c for c in candidates if c[0] == root_id)
            self.root_id = root_id
            self.root_cost = through[1]
            self.root_port = through[4]

        for port in self._ports.values():
            if port.disabled:
                port.role = PortRole.DISABLED
            elif port.number == self.root_port:
                port.role = PortRole.ROOT
            elif port.info is None:
                port.role = PortRole.DESIGNATED
            else:
                mine = (self.root_id, self.root_cost, self.bridge_id, port.number)
                port.role = (
                    PortRole.DESIGNATED
                    if mine < port.info.vector
                    else PortRole.ALTERNATE
                )
            self._apply_state(port)

    def _apply_state(self, port: _StpPort) -> None:
        if port.role in (PortRole.ROOT, PortRole.DESIGNATED):
            if port.state is PortState.FORWARDING or port.transition:
                return  # already there, or already on its way
            port.state = PortState.LISTENING
            delay = self.forward_delay_s

            def to_learning(p=port):
                p.state = PortState.LEARNING

            def to_forwarding(p=port):
                p.transition.clear()
                p.state = PortState.FORWARDING
                self._topology_changed()

            port.transition = [
                self.sim.schedule(delay, to_learning),
                self.sim.schedule(2 * delay, to_forwarding),
            ]
        else:
            was_forwarding = port.state is PortState.FORWARDING
            self._cancel_transition(port)
            port.state = PortState.BLOCKING
            if was_forwarding:
                self._topology_changed()

    def _cancel_transition(self, port: _StpPort) -> None:
        for event in port.transition:
            self.sim.cancel(event)
        port.transition.clear()

    # ------------------------------------------------ topology changes

    def _topology_changed(self) -> None:
        """A port entered or left FORWARDING: mint and spread an epoch."""
        self.topology_changes += 1
        self._tc_local_seq += 1
        self._tc_seen[self.bridge_id] = self._tc_local_seq
        self._tc_current = (self.bridge_id, self._tc_local_seq)
        self.switch.fdb.flush_dynamic()
        self._transmit_config()
        self._send_tcn()

    def _note_tc(self, origin: int, seq: int) -> None:
        if origin == 0 or seq <= self._tc_seen.get(origin, 0):
            return
        self._tc_seen[origin] = seq
        self._tc_current = (origin, seq)
        self.tc_flushes += 1
        self.switch.fdb.flush_dynamic()
        self._transmit_config()  # spread downstream (designated ports)
        self._send_tcn()  # spread upstream (root port)

    # -------------------------------------------------------- transmit

    def _tick(self) -> None:
        self._tick_event = None
        if not self.running:
            return
        now = self.sim.now
        expired = False
        for port in self._ports.values():
            if (
                port.info is not None
                and now - port.info.received_at > self.max_age_s
            ):
                port.info = None
                expired = True
        if expired:
            self._reconverge()
        self._transmit_config()
        self._tick_event = self.sim.schedule(self.hello_s, self._tick)

    def _transmit_config(self) -> None:
        if not self.running:
            return
        origin, seq = self._tc_current
        for port in self._ports.values():
            if port.disabled or port.role is not PortRole.DESIGNATED:
                continue
            payload = _BPDU.pack(
                _CONFIG, self.root_id, self.root_cost, self.bridge_id,
                port.number, origin, seq,
            )
            self._send(port.number, payload)

    def _send_tcn(self) -> None:
        if not self.running or self.root_port is None:
            return
        origin, seq = self._tc_current
        payload = _BPDU.pack(
            _TCN, self.root_id, self.root_cost, self.bridge_id,
            self.root_port, origin, seq,
        )
        self._send(self.root_port, payload)

    def _send(self, port_number: int, payload: bytes) -> None:
        frame = EthernetFrame(
            dst=STP_MULTICAST,
            src=self.address,
            ethertype=STP_ETHERTYPE,
            payload=payload,
        )
        self.switch.port(port_number).send(frame)
        self.bpdus_sent += 1
