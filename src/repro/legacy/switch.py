"""The legacy switch data plane.

Faithful 802.1Q bridging:

* ingress classification (access PVID / trunk tag / native VLAN),
* ingress filtering (frames in VLANs a port does not carry are dropped),
* source learning into the per-VLAN FDB,
* known-unicast forwarding, unknown-unicast/broadcast/multicast flooding
  within the VLAN,
* egress tagging rules (access and native egress untagged, trunk
  tagged).

This is exactly the machinery HARMLESS exploits: putting each access
port in its own VLAN makes the trunk carry a per-port tag, and the FDB
does the hairpin turn on the way back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.ethernet import EthernetFrame
from repro.netsim.node import Node, Port
from repro.netsim.simulator import Simulator
from repro.legacy.config import PortMode, RunningConfig
from repro.legacy.fdb import ForwardingDatabase
from repro.legacy.stp import STP_ETHERTYPE, STP_MULTICAST, PortState

#: Store-and-forward lookup latency of typical GbE merchant silicon.
DEFAULT_PROCESSING_DELAY_S = 4e-6


@dataclass
class SwitchCounters:
    """Aggregate data-plane counters (exported via SNMP)."""

    rx_frames: int = 0
    tx_frames: int = 0
    flooded: int = 0
    filtered_ingress: int = 0
    dropped_no_ports: int = 0
    #: Flood-class frames dropped by storm control (see
    #: :mod:`repro.legacy.stormcontrol`); 0 unless a meter is armed.
    storm_suppressed: int = 0
    per_port_rx: dict[int, int] = field(default_factory=dict)
    per_port_tx: dict[int, int] = field(default_factory=dict)


class LegacySwitch(Node):
    """A legacy managed Ethernet switch.

    Ports must be created with :meth:`add_port` before use; their VLAN
    behaviour is controlled entirely by the :class:`RunningConfig`,
    which the management plane (SNMP/driver) edits at runtime — just
    like reconfiguring a real switch while traffic flows.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_ports: int = 24,
        fdb_capacity: int = 8192,
        processing_delay_s: float = DEFAULT_PROCESSING_DELAY_S,
    ) -> None:
        super().__init__(sim, name)
        self.config = RunningConfig(hostname=name)
        self.fdb = ForwardingDatabase(capacity=fdb_capacity, aging_s=self.config.fdb_aging_s)
        self.processing_delay_s = processing_delay_s
        self.counters = SwitchCounters()
        #: Attached spanning-tree instance (see :mod:`repro.legacy.stp`);
        #: None means no STP — the dataplane forwards unconditionally.
        self.stp = None
        #: Optional per-ingress-port flood meter (see
        #: :mod:`repro.legacy.stormcontrol`); None — the default — keeps
        #: the flood path bit-identical to a switch without the feature.
        self.storm_control = None
        #: False while crashed (see :meth:`power_off`): the dataplane
        #: drops everything and the control plane is frozen.
        self.running = True
        #: When a burst is in flight, egress frames collect here (per
        #: output port, in forwarding order) instead of being sent one
        #: link event each; see :meth:`receive_burst`.
        self._egress_buffer: "dict[int, list[EthernetFrame]] | None" = None
        for number in range(1, num_ports + 1):
            self.add_port(number)
            self.config.port(number)  # default access port in VLAN 1

    # ------------------------------------------------------------ ingress

    def receive(self, port: Port, frame: EthernetFrame) -> None:
        if not self.running:
            return  # a crashed switch is a black hole
        self.counters.rx_frames += 1
        self.counters.per_port_rx[port.number] = (
            self.counters.per_port_rx.get(port.number, 0) + 1
        )
        port_config = self.config.port(port.number)
        if not port_config.enabled:
            self.counters.filtered_ingress += 1
            return

        if self.stp is not None and self.stp.handles(port.number):
            # BPDUs go to the control plane before any 802.1Q
            # classification (they are untagged link-local frames).
            if frame.dst == STP_MULTICAST and frame.ethertype == STP_ETHERTYPE:
                self.stp.receive_bpdu(port.number, frame)
                return
            state = self.stp.port_state(port.number)
            if state is not PortState.FORWARDING:
                if state is PortState.LEARNING:
                    learned = self._classify_ingress(port.number, frame)
                    if learned is not None and learned[1].src.is_unicast:
                        self.fdb.learn(
                            learned[0], learned[1].src, port.number, self.sim.now
                        )
                self.counters.filtered_ingress += 1
                return

        classified = self._classify_ingress(port.number, frame)
        if classified is None:
            self.counters.filtered_ingress += 1
            return
        vlan_id, inner = classified

        # Source learning happens before the forwarding decision.
        if inner.src.is_unicast:
            self.fdb.learn(vlan_id, inner.src, port.number, self.sim.now)

        delay = self.processing_delay_s
        if delay > 0:
            self.sim.schedule(delay, lambda: self._forward(port.number, vlan_id, inner))
        else:
            self._forward(port.number, vlan_id, inner)

    def receive_burst(
        self, port: Port, arrivals: "list[tuple[float, EthernetFrame]]"
    ) -> None:
        """Bridge a coalesced burst, re-coalescing the egress per port.

        Counters, FDB state and the frame sequence on every egress link
        are identical to *len(arrivals)* sequential :meth:`receive`
        calls.  The first frame of each ``(outer VLAN id, src, dst)``
        goes through :meth:`receive` itself; if :meth:`_burst_plan` then
        finds it was plain known-unicast bridging, later frames of that
        key replay the decision — counters, tag ops, egress — without
        classifying or touching the FDB again.  Any :meth:`receive` that
        moves the FDB's bindings drops every plan.  Everything else
        (floods, filtered frames, STP-managed ports) stays on
        :meth:`receive`.

        The other difference is event shape: all frames a burst sends
        to one egress port leave as **one** :meth:`Port.send_burst` call
        (one link event), which keeps fabric-scale burst traffic
        coalesced across chains of legacy and migrated hops.  A non-zero
        ``processing_delay_s`` schedules each forward individually, so
        the burst path only engages on delay-free switches.
        """
        if self.processing_delay_s > 0 or len(arrivals) < 2:
            super().receive_burst(port, arrivals)
            return
        number = port.number
        counters = self.counters
        per_port_rx = counters.per_port_rx
        per_port_tx = counters.per_port_tx
        stamp_of = self.fdb.mutation_stamp
        stamp = stamp_of()
        #: (outer vid, id(src), id(dst)) -> plan, or False for "not the
        #: plain case".  The MAC objects outlive the call (the frames in
        #: *arrivals* hold them), so their ids cannot be reused.
        plans: dict = {}
        buffered = self._egress_buffer = {}
        try:
            receive = self.receive
            for _, frame in arrivals:
                tags = frame.tags
                key = (tags[0].vlan_id if tags else None, id(frame.src), id(frame.dst))
                plan = plans.get(key)
                if plan:
                    pop, push_vid, out_port = plan
                    counters.rx_frames += 1
                    per_port_rx[number] += 1
                    if pop:
                        frame = frame.pop_vlan()
                    if push_vid is not None:
                        frame = frame.push_vlan(push_vid)
                    counters.tx_frames += 1
                    per_port_tx[out_port] += 1
                    buffered[out_port].append(frame)
                    continue
                receive(port, frame)
                moved = stamp_of()
                if moved != stamp:
                    stamp = moved
                    plans.clear()
                    plan = None
                if plan is None:
                    plans[key] = self._burst_plan(number, frame) or False
        finally:
            self._egress_buffer = None
        for out_number, frames in buffered.items():
            out = self.port(out_number)
            if len(frames) == 1:
                out.send(frames[0])
            else:
                out.send_burst(frames)

    def _burst_plan(
        self, port_number: int, frame: EthernetFrame
    ) -> "tuple[bool, int | None, int] | None":
        """``(pop, push_vid, out_port)`` if a frame like *frame*, arriving
        on *port_number* now, is plain bridging; else None.

        Plain means :meth:`receive` would change nothing but counters:
        the ingress port is enabled and outside STP, the frame
        classifies, its unicast source is already learned on this port
        at this instant (so learning is a no-op) and its unicast
        destination is a live entry on another port that emits the
        VLAN.  A storm meter only ever sees floods, which are never
        plain.  Reads only.
        """
        if not self.running:
            return None
        if self.stp is not None and self.stp.handles(port_number):
            return None
        if not self.config.port(port_number).enabled:
            return None
        classified = self._ingress_vlan(port_number, frame)
        if classified is None or not (frame.src.is_unicast and frame.dst.is_unicast):
            return None
        vlan_id, tagged = classified
        fdb = self.fdb
        now = self.sim.now
        source = fdb.peek(vlan_id, frame.src)
        if (
            source is None
            or source.port != port_number
            or not (source.static or source.learned_at == now)
        ):
            return None
        target = fdb.peek(vlan_id, frame.dst)
        if (
            target is None
            or target.port == port_number
            or not (target.static or target.age(now) <= fdb.aging_s)
        ):
            return None
        egress_tagged = self._egress_tagging(target.port, vlan_id)
        if egress_tagged is None:
            return None
        return tagged, (vlan_id if egress_tagged else None), target.port

    def _ingress_vlan(
        self, port_number: int, frame: EthernetFrame
    ) -> "tuple[int, bool] | None":
        """The VLAN an arriving frame is classified into and whether its
        outer tag carries it (and so comes off), or None to drop."""
        port_config = self.config.port(port_number)
        if port_config.mode is PortMode.ACCESS:
            if frame.vlan is not None:
                # 802.1Q access ports drop tagged frames (no VLAN leaking).
                return None
            return port_config.pvid, False
        # Trunk port.
        if frame.vlan is None:
            if port_config.native_vlan is None:
                return None
            return port_config.native_vlan, False
        vlan_id = frame.vlan_id
        if vlan_id not in port_config.allowed_vlans:
            return None
        return vlan_id, True

    def _classify_ingress(
        self, port_number: int, frame: EthernetFrame
    ) -> "tuple[int, EthernetFrame] | None":
        """Map an arriving frame to (vlan, untagged-frame), or None to drop.

        The returned frame always has the classification tag removed so
        forwarding logic deals in canonical untagged frames plus a VLAN
        id — mirroring how switch ASICs carry VLAN metadata out of band.
        """
        classified = self._ingress_vlan(port_number, frame)
        if classified is None:
            return None
        vlan_id, tagged = classified
        return vlan_id, (frame.pop_vlan() if tagged else frame)

    # ----------------------------------------------------------- egress

    def _forward(self, ingress_port: int, vlan_id: int, frame: EthernetFrame) -> None:
        if not self.running:
            return  # crashed while the frame sat in the lookup pipeline
        out_port = None
        if frame.dst.is_unicast:
            out_port = self.fdb.lookup(vlan_id, frame.dst, self.sim.now)
            if out_port is None:
                self.fdb.flood_fallbacks += 1
        if out_port is not None:
            if out_port != ingress_port:
                self._egress(out_port, vlan_id, frame)
            return
        # Unknown unicast / broadcast / multicast: flood the VLAN —
        # unless the ingress port's storm meter says this is a storm.
        if self.storm_control is not None and not self.storm_control.allow(
            ingress_port, self.sim.now
        ):
            self.counters.storm_suppressed += 1
            return
        members = self.config.ports_in_vlan(vlan_id)
        flooded_to = [number for number in members if number != ingress_port]
        if not flooded_to:
            self.counters.dropped_no_ports += 1
            return
        self.counters.flooded += 1
        for number in flooded_to:
            self._egress(number, vlan_id, frame)

    def _egress_tagging(self, port_number: int, vlan_id: int) -> "bool | None":
        """Whether *vlan_id* leaves *port_number* tagged, or None if the
        port does not emit that VLAN at the moment."""
        port_config = self.config.port(port_number)
        if not port_config.carries(vlan_id) or not port_config.enabled:
            return None
        if self.stp is not None and not self.stp.forwarding_allowed(port_number):
            return None  # blocked / still listening: the loop stays broken
        # Access egress is always untagged; so is a trunk's native VLAN.
        return not (
            port_config.mode is PortMode.ACCESS or vlan_id == port_config.native_vlan
        )

    def _egress(self, port_number: int, vlan_id: int, frame: EthernetFrame) -> None:
        tagged = self._egress_tagging(port_number, vlan_id)
        if tagged is None:
            return
        out_frame = frame.push_vlan(vlan_id) if tagged else frame
        self.counters.tx_frames += 1
        self.counters.per_port_tx[port_number] = (
            self.counters.per_port_tx.get(port_number, 0) + 1
        )
        if self._egress_buffer is not None:
            self._egress_buffer.setdefault(port_number, []).append(out_frame)
            return
        self.port(port_number).send(out_frame)

    # ------------------------------------------------------- management

    def apply_config(self, new_config: RunningConfig) -> list[str]:
        """Replace the running config, flushing FDB entries of changed ports.

        Returns the human-readable change list (what a real switch logs).
        """
        changes = self.config.diff(new_config)
        changed_ports = [
            number
            for number in set(self.config.ports) | set(new_config.ports)
            if self.config.ports.get(number) != new_config.ports.get(number)
        ]
        self.config = new_config
        self.fdb.aging_s = new_config.fdb_aging_s
        for number in changed_ports:
            self.fdb.flush_port(number)
        return changes

    def link_down(self, port_number: int) -> None:
        """Administratively take a port down (flushes its FDB entries)."""
        self.port(port_number).up = False
        self.config.port(port_number).enabled = False
        self.fdb.flush_port(port_number)
        if self.stp is not None:
            self.stp.port_down(port_number)

    def link_up(self, port_number: int) -> None:
        self.port(port_number).up = True
        self.config.port(port_number).enabled = True
        if self.stp is not None:
            self.stp.port_up(port_number)

    def power_off(self) -> None:
        """Crash the switch: every frame vanishes until :meth:`power_on`.

        Ports stay physically up (a hung supervisor, not pulled cables)
        — neighbours detect the outage by silence, e.g. STP max-age.
        """
        if not self.running:
            return
        self.running = False
        if self.stp is not None:
            self.stp.stop()

    def power_on(self) -> None:
        """Restart after a crash: dynamic state is lost, config survives.

        The dynamic FDB is empty (static entries are configuration and
        come back with it) and the STP instance re-runs its election
        from scratch, exactly like a power-cycled real bridge.
        """
        if self.running:
            return
        self.running = True
        self.fdb.flush_dynamic()
        if self.stp is not None:
            self.stp.restart()
