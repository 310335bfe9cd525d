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

from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.net.addresses import GROUP_BIT
from repro.net.ethernet import EthernetFrame
from repro.netsim.node import Node, Port
from repro.netsim.simulator import Simulator
from repro.legacy.config import PortMode, PortVlanConfig, RunningConfig
from repro.legacy.fdb import FdbEntry, ForwardingDatabase

#: Store-and-forward lookup latency of typical GbE merchant silicon.
DEFAULT_PROCESSING_DELAY_S = 4e-6

#: The access mode as one global load, for the per-hop code.
ACCESS = PortMode.ACCESS


@dataclass
class SwitchCounters:
    """Aggregate data-plane counters (exported via SNMP)."""

    rx_frames: int = 0
    tx_frames: int = 0
    flooded: int = 0
    filtered_ingress: int = 0
    dropped_no_ports: int = 0
    per_port_rx: dict[int, int] = field(default_factory=dict)
    per_port_tx: dict[int, int] = field(default_factory=dict)


class _Hop(NamedTuple):
    """One compiled known-unicast decision (see :meth:`LegacySwitch._compile`)."""

    source: FdbEntry  #: refreshed by every hit, as ``fdb.learn`` would
    target: FdbEntry  #: must not have aged when the frame is forwarded
    pop: bool  #: the outer tag carried the VLAN and comes off
    vlan_id: int
    push_vid: "int | None"  #: the VLAN goes back on at a tagged egress
    out_port: int
    config_state: tuple  #: see :meth:`LegacySwitch._config_state`


class LegacySwitch(Node):
    """A legacy managed Ethernet switch.

    Ports must be created with :meth:`add_port` before use; their VLAN
    behaviour is controlled entirely by the :class:`RunningConfig`,
    which the management plane (SNMP/driver) edits at runtime — just
    like reconfiguring a real switch while traffic flows.

    Known unicast between learned stations — what a migrated fabric
    carries — is served from a cache of decisions (:meth:`_lookup`) on
    a switch without a lookup delay, every other frame by
    :meth:`_general_path`: same outcome, by design.
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
        #: Frames dropped, by reason — beside ``counters``, whose fields
        #: the benchmark's digest hashes: ``filtered_ingress`` stays, as
        #: the sum of the two ``ingress-filtered:*`` reasons.
        self.drops: "defaultdict[str, int]" = defaultdict(int)
        #: False while crashed (see :meth:`power_off`): the dataplane
        #: drops everything and the control plane is frozen.
        self.running = True
        #: When a burst is in flight, egress frames collect here (per
        #: output port, in forwarding order) instead of being sent one
        #: link event each; see :meth:`receive_burst`.
        self._egress_buffer: "dict[int, list[EthernetFrame]] | None" = None
        #: (ingress port, outer vid, src, dst), by value -> :class:`_Hop`;
        #: emptied when ``fdb.generation`` leaves ``_hops_generation``.
        self._hops: "dict[tuple, _Hop]" = {}
        self._hops_generation = 0
        for number in range(1, num_ports + 1):
            self.add_port(number)
            self.config.port(number)  # default access port in VLAN 1

    # ------------------------------------------------------------ ingress

    def receive(self, port: Port, frame: EthernetFrame) -> None:
        if not self.running:
            self.drops["powered-off"] += 1  # a crashed switch is a black hole
            return
        number = port.number
        counters = self.counters
        counters.rx_frames += 1
        counters.per_port_rx[number] = counters.per_port_rx.get(number, 0) + 1
        # A lookup delay makes every frame two simulator events and the
        # forward a decision taken later: the cache has nothing to save
        # there (measured: a loss on cold flows), so it is not asked.
        hop = None if self.processing_delay_s > 0 else self._lookup(number, frame)
        if hop is None:
            self._general_path(number, frame)
            return
        if hop.pop:
            frame = frame.pop_vlan()
        self._send(hop.out_port, frame if hop.push_vid is None else frame.push_vlan(hop.push_vid))

    def receive_burst(
        self, port: Port, frames: "list[EthernetFrame]", arrivals: "list[float]"
    ) -> None:
        """Bridge a coalesced burst, re-coalescing the egress per port.

        Indistinguishable from *len(frames)* sequential
        :meth:`receive` calls but for two things amortised.  The first
        frame of each ``(outer vid, src, dst)`` has its decision
        memoised, and the rest skip :meth:`_lookup` (which, at one
        instant, has nothing left to refresh or re-check); a frame that
        moves ``fdb.generation`` drops the memo.  And all frames
        the burst sends to one egress port leave, and are counted, as
        **one** :meth:`Port.send_burst` call (one link event), which
        keeps fabric-scale traffic coalesced across chains of hops.  A
        lookup delay schedules each forward by itself: no burst path.
        """
        if self.processing_delay_s > 0 or len(frames) < 2:
            super().receive_burst(port, frames, arrivals)
            return
        if not self.running:
            self.drops["powered-off"] += len(frames)
            return
        number = port.number
        counters = self.counters
        counters.rx_frames += len(frames)
        counters.per_port_rx[number] = counters.per_port_rx.get(number, 0) + len(frames)
        fdb = self.fdb
        generation = fdb.generation
        #: (outer vid, src, dst) -> (pop, push_vid, egress list's
        #: append), or False: general path.
        memo: dict = {}
        buffered = self._egress_buffer = {}
        try:
            for frame in frames:
                tags = frame.tags
                key = (tags[0].vlan_id if tags else None, frame.src, frame.dst)
                plan = memo.get(key)
                if plan is None:
                    hop = self._lookup(number, frame)
                    plan = memo[key] = hop is not None and (
                        hop.pop, hop.push_vid, buffered.setdefault(hop.out_port, []).append
                    )
                if not plan:
                    self._general_path(number, frame)
                    if fdb.generation != generation:
                        generation = fdb.generation
                        memo.clear()
                    continue
                pop, push_vid, emit = plan
                if pop:
                    frame = frame.pop_vlan()
                emit(frame if push_vid is None else frame.push_vlan(push_vid))
        finally:
            self._egress_buffer = None
        per_port_tx, ports = counters.per_port_tx, self.ports
        for out_number, egress in buffered.items():
            counters.tx_frames += len(egress)
            per_port_tx[out_number] = per_port_tx.get(out_number, 0) + len(egress)
            if len(egress) == 1:
                ports[out_number].send(egress[0])
            else:
                ports[out_number].send_burst(egress)

    # ----------------------------------------------- known unicast, cached

    def _lookup(self, number: int, frame: EthernetFrame) -> "_Hop | None":
        """The decision for *frame* arriving on port *number* now, its
        source refreshed the way ``fdb.learn`` would (static sources
        untouched) — or None: not plain known unicast at this instant.
        Cached per FDB generation, and compiled anew when the running
        config no longer reads as it did (:meth:`_config_state`)."""
        fdb = self.fdb
        hops = self._hops
        if self._hops_generation != fdb.generation:
            hops.clear()
            self._hops_generation = fdb.generation
        tags = frame.tags
        vid = tags[0].vlan_id if tags else None
        key = (number, vid, frame.src, frame.dst)
        hop = hops.get(key)
        if hop is None or hop.config_state != self._config_state(
            number, vid, hop.out_port, hop.vlan_id
        ):
            hop = self._compile(number, vid, frame)
            if hop is None:
                return None
            hops[key] = hop
        if not hop.target.alive(self.sim.now, fdb.aging_s):
            return None
        if not hop.source.static:
            hop.source.learned_at = self.sim.now
        return hop

    def _compile(self, number: int, vid: "int | None", frame: EthernetFrame) -> "_Hop | None":
        """The :class:`_Hop` for frames like *frame* arriving on port
        *number*, or None unless bridging one is known unicast with
        nothing to learn: ingress port enabled, the frame classifies,
        its source is bound to this port already (a static one may be a
        group address, which nobody learns either), its unicast
        destination to another port that emits the VLAN.  Reads only —
        and not the target's age, which :meth:`_lookup` checks at every hit.
        """
        port_config = self.config.port(number)
        classified = self._ingress_vlan(port_config, frame)
        if classified is None or frame.dst.is_multicast or not port_config.enabled:
            return None
        vlan_id, pop = classified
        source = self.fdb.peek(vlan_id, frame.src)
        target = self.fdb.peek(vlan_id, frame.dst)
        if source is None or source.port != number or target is None or target.port == number:
            return None
        tagged = self._egress_tagging(target.port, vlan_id)
        if tagged is None:
            return None
        return _Hop(
            source, target, pop, vlan_id, vlan_id if tagged else None, target.port,
            self._config_state(number, vid, target.port, vlan_id),
        )

    def _config_state(self, number: int, vid: "int | None", out_port: int, vlan_id: int) -> tuple:
        """Everything classifying outer tag *vid* on port *number* and
        emitting *vlan_id* on *out_port* read of the running config; a
        hop compares it by value, for the live config is edited in place."""
        # Both are there: a new config lacking one flushes that port's entries.
        ports = self.config.ports
        ingress, egress = ports[number], ports[out_port]
        return (
            ingress.enabled, ingress.mode, ingress.pvid, ingress.native_vlan,
            vid in ingress.allowed_vlans,
            egress.enabled, egress.mode, egress.pvid, egress.native_vlan,
            vlan_id in egress.allowed_vlans,
        )

    # ------------------------------------------------------ general path

    def _general_path(self, number: int, frame: EthernetFrame) -> None:
        """Everything :meth:`receive` does after counting the frame in,
        for any frame: filter, classify, learn, forward or flood.

        The classification is :meth:`_ingress_vlan`'s rule read by value
        inline (no helper frame per hop); the port's config is created
        on first touch, as ``RunningConfig.port`` does."""
        port_config = self.config.ports.get(number) or self.config.port(number)
        if not port_config.enabled:
            self._filter_ingress("disabled")
            return
        # Forwarding deals in canonical untagged frames plus a VLAN id,
        # the way switch ASICs carry VLAN metadata out of band.
        tags = frame.tags
        inner = frame
        if port_config.mode is ACCESS:
            # 802.1Q access ports drop tagged frames (no VLAN leaking).
            vlan_id = None if tags else port_config.pvid
        elif not tags:  # untagged on a trunk: its native VLAN, if it has one
            vlan_id = port_config.native_vlan
        else:
            vlan_id = tags[0].vlan_id
            if vlan_id in port_config.allowed_vlans:
                inner = frame.pop_vlan()
            else:
                vlan_id = None
        if vlan_id is None:
            self._filter_ingress("vlan")
            return
        # Source learning happens before the forwarding decision.
        src = frame.src
        if not src & GROUP_BIT:
            self.fdb.learn(vlan_id, src, number, self.sim.now)
        delay = self.processing_delay_s
        if delay > 0:
            self.sim.schedule(delay, self._forward, number, vlan_id, inner)
        else:
            self._forward(number, vlan_id, inner)

    def _filter_ingress(self, why: str) -> None:
        self.counters.filtered_ingress += 1
        self.drops["ingress-filtered:" + why] += 1

    @staticmethod
    def _ingress_vlan(
        port_config: PortVlanConfig, frame: EthernetFrame
    ) -> "tuple[int, bool] | None":
        """The VLAN a frame arriving on that port is classified into and
        whether its outer tag carries it (and so comes off), or None to drop.
        :meth:`_general_path` reads the same rule inline."""
        tags = frame.tags
        if port_config.mode is ACCESS:
            # 802.1Q access ports drop tagged frames (no VLAN leaking).
            return None if tags else (port_config.pvid, False)
        if not tags:  # untagged on a trunk: its native VLAN, if it has one
            native = port_config.native_vlan
            return None if native is None else (native, False)
        vlan_id = tags[0].vlan_id
        return (vlan_id, True) if vlan_id in port_config.allowed_vlans else None

    # ----------------------------------------------------------- egress

    def _forward(self, ingress_port: int, vlan_id: int, frame: EthernetFrame) -> None:
        """Forward a classified frame: known unicast leaves its port
        here, everything else floods the VLAN through :meth:`_egress`.

        The known-unicast egress is :meth:`_egress` → :meth:`_egress_tagging`
        (``PortVlanConfig.carries``) → :meth:`_send` read by value inline,
        the port's config created on first touch as ``RunningConfig.port``
        does, so a delayed hop enters no helper frame on its way out."""
        if not self.running:
            self.drops["powered-off"] += 1  # crashed while the frame sat in the lookup pipeline
            return
        out_port = None
        dst = frame.dst
        if not dst & GROUP_BIT:
            out_port = self.fdb.lookup(vlan_id, dst, self.sim.now)
            if out_port is None:
                self.fdb.flood_fallbacks += 1
        if out_port is None:
            # Unknown unicast / broadcast / multicast: flood the VLAN.
            members = self.config.ports_in_vlan(vlan_id)
            flooded_to = [number for number in members if number != ingress_port]
            if not flooded_to:
                self.counters.dropped_no_ports += 1
                self.drops["no-ports"] += 1
                return
            self.counters.flooded += 1
            for number in flooded_to:
                self._egress(number, vlan_id, frame)
        elif out_port == ingress_port:
            self.drops["hairpin"] += 1
        else:
            egress = self.config.ports.get(out_port) or self.config.port(out_port)
            access = egress.mode is ACCESS
            if not egress.enabled or not (
                vlan_id == egress.pvid
                if access
                else vlan_id in egress.allowed_vlans or vlan_id == egress.native_vlan
            ):
                self._filter_egress()
            else:
                # Access egress is always untagged; so is a trunk's native VLAN.
                if not access and vlan_id != egress.native_vlan:
                    frame = frame.push_vlan(vlan_id)
                buffered = self._egress_buffer
                if buffered is None:
                    counters = self.counters
                    counters.tx_frames += 1
                    per_port_tx = counters.per_port_tx
                    per_port_tx[out_port] = per_port_tx.get(out_port, 0) + 1
                    self.ports[out_port].send(frame)
                else:  # counted when the burst leaves
                    buffered.setdefault(out_port, []).append(frame)

    def _egress_tagging(self, port_number: int, vlan_id: int) -> "bool | None":
        """Whether *vlan_id* leaves *port_number* tagged, or None if the
        port does not emit that VLAN at the moment.  :meth:`_forward`
        reads the same rule inline for known unicast."""
        port_config = self.config.port(port_number)
        if not port_config.carries(vlan_id) or not port_config.enabled:
            return None
        # Access egress is always untagged; so is a trunk's native VLAN.
        return not (
            port_config.mode is ACCESS or vlan_id == port_config.native_vlan
        )

    def _egress(self, port_number: int, vlan_id: int, frame: EthernetFrame) -> None:
        tagged = self._egress_tagging(port_number, vlan_id)
        if tagged is None:
            self._filter_egress()
            return
        self._send(port_number, frame.push_vlan(vlan_id) if tagged else frame)

    def _filter_egress(self) -> None:
        """Count a frame the egress port does not emit in its VLAN."""
        self.drops["egress-filtered"] += 1

    def _send(self, port_number: int, frame: EthernetFrame) -> None:
        buffered = self._egress_buffer
        if buffered is not None:  # counted when the burst leaves
            buffered.setdefault(port_number, []).append(frame)
            return
        counters = self.counters
        counters.tx_frames += 1
        counters.per_port_tx[port_number] = counters.per_port_tx.get(port_number, 0) + 1
        self.ports[port_number].send(frame)

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

    def link_up(self, port_number: int) -> None:
        self.port(port_number).up = True
        self.config.port(port_number).enabled = True

    def power_off(self) -> None:
        """Crash the switch: every frame vanishes until :meth:`power_on`.

        Ports stay physically up (a hung supervisor, not pulled cables)
        — neighbours see no loss of light, only silence.
        """
        self.running = False

    def power_on(self) -> None:
        """Restart after a crash: dynamic state is lost, config survives.

        The dynamic FDB is empty (static entries are configuration and
        come back with it), exactly like a power-cycled real bridge.
        """
        if self.running:
            return
        self.running = True
        self.fdb.flush_dynamic()
