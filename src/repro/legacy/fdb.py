"""The forwarding database (MAC table) of the legacy switch."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.net.addresses import GROUP_BIT, MACAddress


@dataclass
class FdbEntry:
    """One learned (VLAN, MAC) -> port binding."""

    vlan_id: int
    mac: MACAddress
    port: int
    learned_at: float
    static: bool = False

    def alive(self, now: float, aging_s: float) -> bool:
        """Static, or no older than the aging time (the boundary lives).
        :meth:`ForwardingDatabase.lookup` reads the same rule inline."""
        return self.static or now - self.learned_at <= aging_s


class ForwardingDatabase:
    """A bounded, aging MAC table.

    Real switches have a fixed-size CAM; the eviction policy here is
    **explicit and load-bearing**: when the table is full, learning a
    new address evicts the *oldest dynamic* entry (smallest
    ``learned_at``; static entries are configuration and never
    evicted).  This is a simplification of hash-bucket collision
    behaviour that preserves the important properties under MAC-churn
    pressure: memory stays bounded at ``capacity`` entries, the switch
    never refuses to learn, and traffic towards an evicted MAC degrades
    to *flooding*, not to loss — counted in ``flood_fallbacks`` by the
    dataplane whenever a unicast lookup misses and the frame floods
    instead (see :meth:`stats`).
    """

    def __init__(self, capacity: int = 8192, aging_s: float = 300.0) -> None:
        if capacity < 1:
            raise ValueError("FDB capacity must be positive")
        self.capacity = capacity
        self.aging_s = aging_s
        self._entries: dict[tuple[int, MACAddress], FdbEntry] = {}
        #: Moves whenever a binding is added, removed or re-pointed: a
        #: new address learned (evicting or not), a move, an age-out at
        #: lookup, :meth:`expire`, every flush, :meth:`add_static`.  A
        #: refresh only rewrites ``learned_at`` and leaves it alone, so
        #: whatever the switch derived from the bindings (its forwarding
        #: cache) holds exactly while this does.
        self.generation = 0
        self.learn_events = 0
        self.move_events = 0
        self.evictions = 0
        #: Unknown-unicast frames the dataplane flooded because the
        #: lookup missed (aged out, evicted, or never learned) —
        #: incremented by the owning switch at its flood decision.
        self.flood_fallbacks = 0

    def __len__(self) -> int:
        return len(self._entries)

    def learn(self, vlan_id: int, mac: MACAddress, port: int, now: float) -> None:
        """Learn or refresh a dynamic entry; never overrides static ones."""
        if mac & GROUP_BIT:
            return  # group addresses are never sources
        key = (vlan_id, mac)
        existing = self._entries.get(key)
        if existing is not None:
            if existing.static:
                return
            if existing.port != port:
                self.move_events += 1
                self.generation += 1
            existing.port = port
            existing.learned_at = now
            return
        if len(self._entries) >= self.capacity:
            self._evict_oldest()
        self._entries[key] = FdbEntry(
            vlan_id=vlan_id, mac=mac, port=port, learned_at=now
        )
        self.learn_events += 1
        self.generation += 1

    def add_static(self, vlan_id: int, mac: MACAddress, port: int) -> None:
        """Pin a (VLAN, MAC) to a port; survives aging and flushes."""
        self._entries[(vlan_id, mac)] = FdbEntry(
            vlan_id=vlan_id, mac=mac, port=port, learned_at=0.0, static=True
        )
        self.generation += 1

    def _evict_oldest(self) -> None:
        """Evict-oldest-dynamic: the capacity policy, in one place."""
        dynamic = [
            (entry.learned_at, key)
            for key, entry in self._entries.items()
            if not entry.static
        ]
        if not dynamic:
            raise RuntimeError("FDB full of static entries")
        _, victim = min(dynamic)
        del self._entries[victim]
        self.evictions += 1

    def lookup(self, vlan_id: int, mac: MACAddress, now: float) -> Optional[int]:
        """The port for (vlan, mac), or None if unknown/expired."""
        entry = self._entries.get((vlan_id, mac))
        if entry is None:
            return None
        # FdbEntry.alive, read inline: once per forwarded frame.
        if entry.static or now - entry.learned_at <= self.aging_s:
            return entry.port
        del self._entries[(vlan_id, mac)]
        self.generation += 1
        return None

    def peek(self, vlan_id: int, mac: MACAddress) -> Optional[FdbEntry]:
        """The entry for (vlan, mac) as stored — no aging, no side effect."""
        return self._entries.get((vlan_id, mac))

    def _flush(self, doomed: "Callable[[FdbEntry], bool]") -> int:
        """Drop the dynamic entries *doomed* picks; static ones are
        configuration, not learned state, and survive."""
        keys = [key for key, e in self._entries.items() if not e.static and doomed(e)]
        for key in keys:
            del self._entries[key]
        self.generation += 1
        return len(keys)

    def expire(self, now: float) -> int:
        """Remove all dynamic entries older than the aging time."""
        return self._flush(lambda entry: not entry.alive(now, self.aging_s))

    def flush_port(self, port: int) -> int:
        """Drop all dynamic entries pointing at *port* (link-down handling)."""
        return self._flush(lambda entry: entry.port == port)

    def flush_dynamic(self) -> int:
        """Drop every dynamic entry (topology change / switch restart) —
        exactly as on a power-cycled real switch, whose startup config
        repopulates the static ones."""
        return self._flush(lambda entry: True)

    def flush_vlan(self, vlan_id: int) -> int:
        """Drop all dynamic entries in *vlan_id*."""
        return self._flush(lambda entry: entry.vlan_id == vlan_id)

    def stats(self) -> dict:
        """Occupancy and pressure counters (exported like SNMP gauges).

        ``inserts`` counts new dynamic entries accepted (refreshes and
        moves excluded), ``evictions`` the oldest-dynamic victims the
        capacity policy removed, and ``flood_fallbacks`` the unknown-
        unicast frames that degraded to flooding — together they are
        the observable proof that a full table floods, not crashes.
        """
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "inserts": self.learn_events,
            "moves": self.move_events,
            "evictions": self.evictions,
            "flood_fallbacks": self.flood_fallbacks,
        }

    def entries(self, now: "float | None" = None) -> Iterator[FdbEntry]:
        """All entries, sorted by (vlan, mac) — the order SNMP walks them.

        Given *now*, dynamic entries past the aging time are left out
        (not removed: entries die when looked up, and what is in the
        table is simulation state a management read must not move).
        """
        for key in sorted(self._entries):
            entry = self._entries[key]
            if now is None or entry.alive(now, self.aging_s):
                yield entry
