"""Per-port storm control: broadcast/unknown-unicast flood metering.

A broadcast storm is the classic failure mode of bridged Ethernet: one
looped cable or one babbling NIC floods every link of the VLAN at line
rate, and because flooding is the *correct* forwarding behaviour for
broadcast and unknown unicast, nothing stops it — the fabric melts
while every switch does exactly what 802.1D says.  Real managed
switches therefore ship *storm control* (Cisco ``storm-control
broadcast level``, IEEE "traffic-storm protection"): a per-ingress-port
meter over flood-class frames that, once exceeded, suppresses further
floods from that port for a recovery interval.

:class:`StormControl` is that meter in simulated time:

* **Token bucket per ingress port.**  ``rate_fps`` tokens accrue per
  simulated second up to a depth of ``burst`` tokens; each admitted
  flood-class frame spends one.  Conforming traffic (ARP, DHCP, the
  odd unknown-unicast miss) never notices the meter.
* **Suppress + timed recovery.**  The frame that finds the bucket
  empty trips the port into suppression: every flood-class frame from
  that port is dropped for ``recovery_s`` simulated seconds, then the
  port recovers with a full bucket (and trips again within ``burst``
  frames if the storm is still running — the duty cycle real
  shutdown-free storm control exhibits).
* **Counters.**  ``storms_detected``, ``frames_suppressed`` and
  ``recoveries`` aggregate and per port, exported via :meth:`stats`
  the way the dataplane counters ride SNMP.

The same object guards both dataplanes: :class:`~repro.legacy.switch
.LegacySwitch` consults it at the flood decision for the ingress port,
and a migrated :class:`~repro.softswitch.datapath.SoftSwitch` consults
it (as ``flood_guard``) before expanding an ``OFPP_FLOOD``/``OFPP_ALL``
output — so a storm crossing the legacy/SDN boundary of a
part-migrated fabric meets the identical policy on either side.

Everything is pure simulated time and per-port arrival order, so
identical runs make identical decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULT_RECOVERY_S", "StormControl"]

#: Default suppression hold once a storm trips a port.
DEFAULT_RECOVERY_S = 0.1


@dataclass
class _PortMeter:
    """Token-bucket state and counters for one ingress port."""

    tokens: float
    refilled_at: float
    #: Simulated time suppression ends; None while conforming.
    suppressed_until: "float | None" = None
    storms_detected: int = 0
    frames_suppressed: int = 0
    recoveries: int = 0


class StormControl:
    """A per-port flood meter shared by legacy and migrated datapaths."""

    def __init__(
        self,
        rate_fps: float,
        burst: int = 64,
        recovery_s: float = DEFAULT_RECOVERY_S,
    ) -> None:
        if rate_fps <= 0:
            raise ValueError("storm-control rate must be positive")
        if burst < 1:
            raise ValueError("storm-control burst must be at least 1")
        if recovery_s <= 0:
            raise ValueError("storm-control recovery must be positive")
        self.rate_fps = float(rate_fps)
        self.burst = burst
        self.recovery_s = recovery_s
        self._meters: "dict[int, _PortMeter]" = {}
        self.storms_detected = 0
        self.frames_suppressed = 0
        self.recoveries = 0

    def _meter(self, port: int, now: float) -> _PortMeter:
        meter = self._meters.get(port)
        if meter is None:
            meter = self._meters[port] = _PortMeter(
                tokens=float(self.burst), refilled_at=now
            )
        return meter

    def allow(self, port: int, now: float) -> bool:
        """Admit or suppress one flood-class frame arriving on *port*."""
        meter = self._meter(port, now)
        if meter.suppressed_until is not None:
            if now < meter.suppressed_until:
                meter.frames_suppressed += 1
                self.frames_suppressed += 1
                return False
            # Recovery: the hold expired — forget the storm, refill.
            meter.suppressed_until = None
            meter.tokens = float(self.burst)
            meter.refilled_at = now
            meter.recoveries += 1
            self.recoveries += 1
        tokens = meter.tokens + (now - meter.refilled_at) * self.rate_fps
        if tokens > self.burst:
            tokens = float(self.burst)
        meter.refilled_at = now
        if tokens >= 1.0:
            meter.tokens = tokens - 1.0
            return True
        meter.tokens = tokens
        meter.suppressed_until = now + self.recovery_s
        meter.storms_detected += 1
        self.storms_detected += 1
        meter.frames_suppressed += 1
        self.frames_suppressed += 1
        return False

    def suppressed(self, port: int, now: float) -> bool:
        """True while *port* sits inside a suppression hold."""
        meter = self._meters.get(port)
        return (
            meter is not None
            and meter.suppressed_until is not None
            and now < meter.suppressed_until
        )

    def triggered_ports(self) -> "list[int]":
        """Ports that have tripped the meter at least once, sorted."""
        return sorted(
            port
            for port, meter in self._meters.items()
            if meter.storms_detected
        )

    def stats(self) -> dict:
        """Configuration plus aggregate and per-port counters."""
        return {
            "rate_fps": self.rate_fps,
            "burst": self.burst,
            "recovery_s": self.recovery_s,
            "storms_detected": self.storms_detected,
            "frames_suppressed": self.frames_suppressed,
            "recoveries": self.recoveries,
            "ports": {
                port: {
                    "storms_detected": meter.storms_detected,
                    "frames_suppressed": meter.frames_suppressed,
                    "recoveries": meter.recoveries,
                }
                for port, meter in sorted(self._meters.items())
            },
        }
