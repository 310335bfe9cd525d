"""Fault injection: link flaps, switch crashes, controller-channel loss.

The resilience story of a hybrid network is about what happens *after*
the steady state breaks.  :class:`FaultInjector` schedules the three
event classes the benchmarks and scenario tests exercise, each as a
fail action plus an optional timed restore:

* **Link flap** — :meth:`link_flap` fails a link at a given time and
  restores it after a hold.  The physical side is
  :meth:`repro.netsim.link.Link.set_down` (queued and in-flight frames
  are lost, new frames refused); the detected side calls
  ``link_down``/``link_up`` on any attached node that implements them
  (legacy switches flush per-port FDB entries).  Ports
  that were already administratively down stay down across the
  restore.
* **Switch crash** — :meth:`switch_crash` power-cycles a legacy switch
  (``power_off``/``power_on``: black-hole while off, dynamic FDB
  lost on restart); :meth:`deployment_crash` crashes a
  *migrated* site — the legacy half power-cycles and both S4 datapaths
  lose their flow tables (``reset_pipeline``), then the restore
  re-runs the HARMLESS bring-up: translator rules reinstalled and a
  fresh controller handshake (which re-fires ``on_switch_ready``, so
  reactive apps reinstall their table-miss entries).
* **Controller loss** — :meth:`controller_loss` black-holes a
  control channel for a window (packet-ins die in transit; the
  datapath degrades to table-miss behaviour) and restores it cleanly.
* **Broadcast storm** — :meth:`storm` plays a train of identical
  broadcast frames into a port at a configured rate for a window (a
  looped cable or babbling NIC), counting what the port accepted
  versus dropped.  Nothing contains it: the fabric floods every
  copy, as an 802.1D bridge must.

The injector only *schedules*; all state changes happen inside the
simulation at the configured times, so runs remain deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.netsim.link import Link
    from repro.netsim.simulator import Simulator

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules failures and recoveries on a running simulation."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: ``(time, description)`` of every action as it executes.
        self.log: "list[tuple[float, str]]" = []
        #: id(link) -> [(node, port_number)] taken down by a pending cut.
        self._downed_ports: "dict[int, list]" = {}
        #: Storm frames the injection port accepted / refused (down or
        #: dangling ports drop at the source), across all storms.
        self.storm_frames_sent = 0
        self.storm_frames_lost = 0

    def _record(self, description: str) -> None:
        self.log.append((self.sim.now, description))

    # ------------------------------------------------------- link flaps

    def cut_link(self, link: "Link", at_s: float) -> None:
        """Schedule a hard link failure at *at_s* (no restore)."""
        self.sim.schedule_at(at_s, lambda: self._fail_link(link))

    def restore_link(self, link: "Link", at_s: float) -> None:
        """Schedule the restore of a previously cut link."""
        self.sim.schedule_at(at_s, lambda: self._restore_link(link))

    def link_flap(self, link: "Link", at_s: float, hold_s: float) -> None:
        """Fail *link* at *at_s*, restore it ``hold_s`` later."""
        if hold_s <= 0:
            raise ValueError("flap hold time must be positive")
        self.cut_link(link, at_s)
        self.restore_link(link, at_s + hold_s)

    def _fail_link(self, link: "Link") -> None:
        link.set_down()
        downed = self._downed_ports.setdefault(id(link), [])
        for port in (link.port_a, link.port_b):
            node = port.node
            # Only nodes with link-state handling (switches) get the
            # loss-of-light signal, and only ports that were actually
            # up — an administratively blocked port must not be
            # resurrected by the eventual restore.
            if port.up and callable(getattr(node, "link_down", None)):
                node.link_down(port.number)
                downed.append((node, port.number))
        self._record(f"link down: {link.name}")

    def _restore_link(self, link: "Link") -> None:
        link.set_up()
        for node, port_number in self._downed_ports.pop(id(link), []):
            node.link_up(port_number)
        self._record(f"link up: {link.name}")

    # --------------------------------------------------- switch crashes

    def switch_crash(self, switch, at_s: float, hold_s: float) -> None:
        """Power-cycle a legacy switch: off at *at_s*, on ``hold_s`` later."""
        if hold_s <= 0:
            raise ValueError("crash hold time must be positive")

        def crash() -> None:
            switch.power_off()
            self._record(f"switch crash: {switch.name}")

        def restore() -> None:
            switch.power_on()
            self._record(f"switch restart: {switch.name}")

        self.sim.schedule_at(at_s, crash)
        self.sim.schedule_at(at_s + hold_s, restore)

    def deployment_crash(
        self, deployment, controller, at_s: float, hold_s: float
    ) -> None:
        """Crash a migrated site (legacy half + both S4 datapaths).

        *deployment* is a ``HarmlessDeployment``; *controller* the
        :class:`repro.controller.core.Controller` that owns SS2.  The
        restore replays the HARMLESS bring-up on the wiped hardware:
        translator rules back into SS1, then a fresh controller
        handshake for SS2 so ``on_switch_ready`` reinstalls whatever
        the apps consider baseline state.
        """
        if hold_s <= 0:
            raise ValueError("crash hold time must be positive")
        s4 = deployment.s4

        def crash() -> None:
            deployment.legacy_switch.power_off()
            s4.ss1.reset_pipeline()
            s4.ss2.reset_pipeline()
            self._record(f"site crash: {deployment.legacy_switch.name}")

        def restore() -> None:
            deployment.legacy_switch.power_on()
            s4.install_translator(deployment.port_map)
            controller.connect(s4.ss2)
            self._record(f"site restart: {deployment.legacy_switch.name}")

        self.sim.schedule_at(at_s, crash)
        self.sim.schedule_at(at_s + hold_s, restore)

    # ------------------------------------------------- broadcast storms

    def storm(
        self,
        port,
        at_s: float,
        duration_s: float,
        rate_fps: float,
        burst: int = 16,
        vlan_id: "int | None" = None,
        src_mac=None,
    ) -> int:
        """Blast broadcast frames into the fabric through *port*.

        *port* is the attacker-side :class:`~repro.netsim.node.Port` —
        a host or station port whose link leads into the fabric (the
        storm travels ``port -> switch``, like a looped access cable).
        ``int(duration_s * rate_fps)`` identical broadcast frames leave
        in bursts of *burst* starting at *at_s*; frames the port
        refuses (down/dangling) count as ``storm_frames_lost``.
        Returns the number of frames scheduled.
        """
        if duration_s <= 0:
            raise ValueError("storm duration must be positive")
        # Lazy import: netsim is a base layer; the generators module
        # (which imports netsim) only loads when a storm is injected.
        from repro.traffic.generators import burst_schedule, storm_frames

        schedule = burst_schedule(rate_fps, duration_s, burst, start_s=at_s)
        total = sum(count for _, count in schedule)
        template = storm_frames(1, src_mac=src_mac, vlan_id=vlan_id)[0]

        def begin() -> None:
            self._record(
                f"storm start: {port.node.name}:{port.number} "
                f"({rate_fps:g} fps for {duration_s:g}s)"
            )

        def fire(count: int) -> None:
            queued = port.send_burst([template] * count)
            self.storm_frames_sent += queued
            self.storm_frames_lost += count - queued

        def end() -> None:
            self._record(
                f"storm end: {port.node.name}:{port.number} ({total} frames)"
            )

        self.sim.schedule_at(at_s, begin)
        for start, count in schedule:
            self.sim.schedule_at(start, lambda c=count: fire(c))
        self.sim.schedule_at(at_s + duration_s, end)
        return total

    # -------------------------------------------------- controller loss

    def controller_loss(self, channel, at_s: float, hold_s: float) -> None:
        """Black-hole a control channel for ``hold_s`` seconds."""
        if hold_s <= 0:
            raise ValueError("loss hold time must be positive")

        def fail() -> None:
            channel.set_down()
            self._record(f"controller channel down: {channel.switch.name}")

        def restore() -> None:
            channel.set_up()
            self._record(f"controller channel up: {channel.switch.name}")

        self.sim.schedule_at(at_s, fail)
        self.sim.schedule_at(at_s + hold_s, restore)
