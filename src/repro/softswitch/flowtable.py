"""Flow tables: priority-ordered masked matching with timeouts.

Lookup is two-tier, the slow-path half of the OVS-style datapath:

* **exact buckets** — entries whose match constrains whole fields (no
  partial masks) are grouped by their field-set; each group is a hash
  table from the value tuple (pulled straight out of a packet's flow
  key) to the entries carrying those values.  One dict probe per
  distinct field-set replaces a scan over every exact entry.
* **staged subtables** — entries with partial masks are grouped into
  one :class:`Subtable` per distinct mask-set (the canonical
  ``Match.mask_key()`` fingerprint).  Each subtable is a hash table
  from the masked value tuple to the entries carrying those values, so
  a masked lookup costs one probe per *distinct mask-set* instead of
  one test per masked entry.  Subtables are searched in descending
  max-priority order with early termination, OVS's staged-lookup
  trick.

The candidates from both tiers are arbitrated by the same total order
the seed used, so lookup results are bit-identical to a pure linear
scan (``linear_lookup`` keeps that reference implementation alive for
differential tests and benchmarks).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Optional

from repro.openflow.instructions import Instruction
from repro.openflow.match import Match
from repro.openflow.packetview import FIELD_INDEX, PacketView


@dataclass
class FlowEntry:
    """One installed flow."""

    match: Match
    priority: int = 0x8000
    instructions: list[Instruction] = field(default_factory=list)
    cookie: int = 0
    idle_timeout: float = 0.0  # seconds; 0 = never
    hard_timeout: float = 0.0
    send_flow_removed: bool = False
    installed_at: float = 0.0
    last_used_at: float = 0.0
    packet_count: int = 0
    byte_count: int = 0
    #: Install sequence number within the owning table; makes the sort
    #: key below a total order even when two flows share a priority and
    #: an install timestamp (bulk pushes at migration time).
    seq: int = 0
    #: (-priority, installed_at, seq) — the table-wide arbitration
    #: order; assigned by FlowTable.install.
    sort_key: "tuple[int, float, int]" = (0, 0.0, 0)

    def touch(self, now: float, wire_bytes: int) -> None:
        self.packet_count += 1
        self.byte_count += wire_bytes
        self.last_used_at = now

    def is_expired(self, now: float) -> bool:
        if self.hard_timeout and now - self.installed_at >= self.hard_timeout:
            return True
        if self.idle_timeout and now - self.last_used_at >= self.idle_timeout:
            return True
        return False

    def describe(self) -> str:
        verbs = " ".join(str(instruction) for instruction in self.instructions)
        return (
            f"prio={self.priority} match[{self.match.describe()}] "
            f"-> {verbs or 'drop'} "
            f"(pkts={self.packet_count})"
        )


_SORT_KEY = attrgetter("sort_key")


class Subtable:
    """One staged bucket group: every masked entry sharing a mask-set.

    ``buckets`` maps the masked value tuple to the entries carrying
    those values, sorted by the table-wide arbitration order — within a
    bucket every entry matches exactly the same packets, so the first
    live one is the bucket's best candidate.  ``max_priority`` bounds
    what any entry in the subtable can contribute; the classifier sorts
    subtables on it and stops probing as soon as no remaining subtable
    can beat the best candidate found so far.
    """

    __slots__ = (
        "mask_set", "buckets", "max_priority", "_priority_counts", "seq",
    )

    def __init__(self, mask_set: "tuple[tuple[int, int], ...]", seq: int) -> None:
        self.mask_set = mask_set
        self.buckets: "dict[tuple[int, ...], list[FlowEntry]]" = {}
        self.max_priority = -1
        self._priority_counts: dict[int, int] = {}
        #: Creation sequence — tie-breaks the staged sort so equal
        #: max-priority subtables keep a deterministic probe order.
        self.seq = seq

    def __len__(self) -> int:
        return sum(len(chain) for chain in self.buckets.values())

    def add(self, values: "tuple[int, ...]", entry: FlowEntry) -> None:
        chain = self.buckets.get(values)
        if chain is None:
            self.buckets[values] = [entry]
        else:
            bisect.insort(chain, entry, key=_SORT_KEY)
        count = self._priority_counts.get(entry.priority, 0)
        self._priority_counts[entry.priority] = count + 1
        if entry.priority > self.max_priority:
            self.max_priority = entry.priority

    def remove(self, values: "tuple[int, ...]", entry: FlowEntry) -> None:
        chain = self.buckets[values]
        chain.remove(entry)
        if not chain:
            del self.buckets[values]
        count = self._priority_counts[entry.priority] - 1
        if count:
            self._priority_counts[entry.priority] = count
        else:
            del self._priority_counts[entry.priority]
            if entry.priority == self.max_priority:
                self.max_priority = (
                    max(self._priority_counts) if self._priority_counts else -1
                )

    def probe(
        self, key: "tuple[int | None, ...]", now: float
    ) -> Optional[FlowEntry]:
        """The subtable's best live entry matching *key*, if any."""
        values = []
        for slot, mask in self.mask_set:
            packet_value = key[slot]
            if packet_value is None:
                return None  # a constraint on an absent field never matches
            values.append(packet_value & mask)
        chain = self.buckets.get(tuple(values))
        if not chain:
            return None
        for entry in chain:
            if not entry.is_expired(now):
                return entry
        return None


class FlowTable:
    """One numbered table of a pipeline.

    Entries are kept sorted by descending priority; lookup returns the
    highest-priority matching entry.  Ties at equal priority resolve to
    the earliest-installed entry (OpenFlow leaves this undefined;
    deterministic beats undefined for differential testing).

    The table keeps no derived forwarding state of its own: the
    datapath tells its compiled program about every mutation (FlowMod,
    GroupMod, expiry sweep).
    """

    def __init__(self, table_id: int) -> None:
        self.table_id = table_id
        self._entries: list[FlowEntry] = []
        self._seq = 0
        #: field-set -> {value tuple -> entries sorted by sort_key}
        self._exact: dict[tuple[str, ...], dict[tuple[int, ...], list[FlowEntry]]] = {}
        #: field-set -> flow-key slots probed for that bucket group
        self._exact_slots: dict[tuple[str, ...], tuple[int, ...]] = {}
        #: mask-set fingerprint -> staged subtable of masked entries
        self._subtables: "dict[tuple[tuple[int, int], ...], Subtable]" = {}
        #: subtables sorted by (-max_priority, seq); resorted lazily
        self._staged: list[Subtable] = []
        self._staged_dirty = False
        self._subtable_seq = 0
        self.lookups = 0
        self.matches = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(self._entries)

    # ------------------------------------------------------------ mutation

    def install(self, entry: FlowEntry, now: float) -> Optional[FlowEntry]:
        """Add *entry*, replacing an existing identical (match, priority);
        returns the entry it replaced, if any."""
        entry.installed_at = now
        entry.last_used_at = now
        existing = self._find_identical(entry)
        if existing is not None:
            self._remove(existing)
        entry.seq = self._seq
        self._seq += 1
        entry.sort_key = (-entry.priority, entry.installed_at, entry.seq)
        bisect.insort(self._entries, entry, key=_SORT_KEY)
        self._index_add(entry)
        return existing

    def _find_identical(self, entry: FlowEntry) -> Optional[FlowEntry]:
        """The installed entry with the same (match, priority), if any."""
        for existing in self._same_values_chain(entry.match):
            if existing.priority == entry.priority and existing.match == entry.match:
                return existing
        return None

    def _same_values_chain(self, match: Match) -> "list[FlowEntry] | tuple":
        """The one bucket chain an entry equal to *match* can sit in.

        An equal Match has an equal exact_key / mask_key, so its
        duplicate can only be in its own value bucket of its own
        field-set (or mask-set).  Keeps bulk pushes and strict deletes
        O(log n) per FlowMod instead of re-scanning the whole table.
        """
        exact = match.exact_key()
        if exact is None:
            mask_set, values = match.mask_key()
            subtable = self._subtables.get(mask_set)
            return subtable.buckets.get(values, ()) if subtable else ()
        names, values = exact
        return self._exact.get(names, {}).get(values, ())

    def _remove(self, entry: FlowEntry) -> None:
        index = bisect.bisect_left(self._entries, entry.sort_key, key=_SORT_KEY)
        while self._entries[index] is not entry:
            index += 1
        del self._entries[index]
        self._index_remove(entry)

    def _index_add(self, entry: FlowEntry) -> None:
        exact = entry.match.exact_key()
        if exact is None:
            mask_set, values = entry.match.mask_key()
            subtable = self._subtables.get(mask_set)
            if subtable is None:
                subtable = Subtable(mask_set, self._subtable_seq)
                self._subtable_seq += 1
                self._subtables[mask_set] = subtable
                self._staged.append(subtable)
            subtable.add(values, entry)
            self._staged_dirty = True
            return
        names, values = exact
        buckets = self._exact.get(names)
        if buckets is None:
            buckets = self._exact[names] = {}
            self._exact_slots[names] = tuple(FIELD_INDEX[name] for name in names)
        chain = buckets.get(values)
        if chain is None:
            buckets[values] = [entry]
        else:
            bisect.insort(chain, entry, key=_SORT_KEY)

    def _index_remove(self, entry: FlowEntry) -> None:
        exact = entry.match.exact_key()
        if exact is None:
            mask_set, values = entry.match.mask_key()
            subtable = self._subtables[mask_set]
            subtable.remove(values, entry)
            if not subtable.buckets:
                del self._subtables[mask_set]
                self._staged.remove(subtable)
            else:
                self._staged_dirty = True
            return
        names, values = exact
        buckets = self._exact[names]
        chain = buckets[values]
        chain.remove(entry)
        if not chain:
            del buckets[values]
            if not buckets:
                del self._exact[names]
                del self._exact_slots[names]

    # ------------------------------------------------------------- lookup

    def lookup(self, view: PacketView, now: float) -> Optional[FlowEntry]:
        """Highest-priority live entry matching *view* (two-tier)."""
        self.lookups += 1
        entry = self._classify(view.flow_key(), now)
        if entry is not None:
            self.matches += 1
        return entry

    def _classify(
        self, key: "tuple[int | None, ...]", now: float
    ) -> Optional[FlowEntry]:
        best: "FlowEntry | None" = None
        for names, buckets in self._exact.items():
            slots = self._exact_slots[names]
            chain = buckets.get(tuple(key[slot] for slot in slots))
            if not chain:
                continue
            for entry in chain:
                if entry.is_expired(now):
                    continue
                if best is None or entry.sort_key < best.sort_key:
                    best = entry
                break  # chain is sorted: first live one is its best
        for subtable in self._staged_in_order():
            if best is not None and -subtable.max_priority > best.sort_key[0]:
                break  # staged order: no remaining subtable can win
            entry = subtable.probe(key, now)
            if entry is not None and (best is None or entry.sort_key < best.sort_key):
                best = entry
        return best

    def _staged_in_order(self) -> "list[Subtable]":
        """Subtables sorted by (-max_priority, seq), re-sorted lazily."""
        if self._staged_dirty:
            self._staged.sort(key=lambda s: (-s.max_priority, s.seq))
            self._staged_dirty = False
        return self._staged

    @property
    def subtable_count(self) -> int:
        """How many distinct mask-sets the masked tier holds."""
        return len(self._subtables)

    def staged_order(self) -> "list[tuple[tuple[int, int], ...]]":
        """Mask-sets in probe order (test/bench introspection)."""
        return [subtable.mask_set for subtable in self._staged_in_order()]

    # ------------------------------------------------- compiler introspection

    def used_slots(self) -> frozenset[int]:
        """Union of flow-key slots any installed match reads.

        The datapath compiler shrinks its specialized extractor to this
        set, so a table matching three fields costs three field decodes.
        Derived from the index structures (one union per field-set /
        mask-set, not per entry), so it stays O(#distinct shapes) even
        for 10k-flow tables.
        """
        slots: set[int] = set()
        for slot_tuple in self._exact_slots.values():
            slots.update(slot_tuple)
        for mask_set in self._subtables:
            slots.update(slot for slot, _ in mask_set)
        return frozenset(slots)

    def exact_probe_groups(
        self,
    ) -> "list[tuple[tuple[int, ...], dict[tuple[int, ...], list[FlowEntry]], int]]":
        """(probe slots, value buckets, max priority) per exact field-set.

        The returned buckets are the live index structures — the
        compiler binds a specialized program's probes to them, and the
        program stays valid for as long as every install lands in a
        group it probes (a re-created group is rebound through
        :meth:`probe_group`); the datapath discards it otherwise.
        """
        groups = []
        for names, buckets in self._exact.items():
            max_priority = max(
                chain[0].priority for chain in buckets.values()
            )
            groups.append((self._exact_slots[names], buckets, max_priority))
        return groups

    def probe_group(self, match: Match) -> tuple:
        """(tier, shape, value buckets) of the table-0 probe group an
        installed entry with *match* is indexed under — the same three
        things the compiler bakes per probe, so a kept program can
        rebind a probe whose group emptied and was re-created (a new
        dict) since it was generated."""
        exact = match.exact_key()
        if exact is None:
            subtable = self._subtables[match.mask_key()[0]]
            return "masked", subtable.mask_set, subtable.buckets
        names = exact[0]
        return "exact", self._exact_slots[names], self._exact[names]

    def subtables_in_order(self) -> "list[Subtable]":
        """Staged subtables in probe order (live objects, read-only)."""
        return list(self._staged_in_order())

    def linear_lookup(self, view: PacketView, now: float) -> Optional[FlowEntry]:
        """The seed O(n) scan, kept as the differential-test reference."""
        self.lookups += 1
        for entry in self._entries:
            if entry.is_expired(now):
                continue
            if entry.match.matches(view):
                self.matches += 1
                return entry
        return None

    # ------------------------------------------------- FlowMod selection

    def select(
        self,
        match: Match,
        priority: "int | None" = None,
        strict: bool = False,
        cookie: "int | None" = None,
        cookie_mask: int = 0,
    ) -> list[FlowEntry]:
        """The entries a MODIFY or DELETE with these fields acts on.

        One rule for both commands (OpenFlow 1.3 §6.4).  Strict: exact
        (match, priority).  Non-strict: every entry whose match is a
        subset of *match*, whatever its priority.  A non-zero
        *cookie_mask* keeps only the entries whose cookie equals
        *cookie* under it.  Only the bucket groups that can hold such
        an entry are visited, so a selection costs what it finds, not
        the size of the table.  Returned in arbitration order, like a
        scan of the table.
        """
        if strict:
            chosen = [
                entry
                for entry in self._same_values_chain(match)
                if entry.priority == priority and entry.match == match
            ]
        else:
            chosen = [
                entry
                for entry in self._subset_candidates(match)
                if entry.match.is_subset_of(match)
            ]
        if cookie_mask:
            wanted = (cookie or 0) & cookie_mask
            chosen = [
                entry for entry in chosen if entry.cookie & cookie_mask == wanted
            ]
        chosen.sort(key=_SORT_KEY)
        return chosen

    def delete(
        self,
        match: Match,
        priority: "int | None" = None,
        strict: bool = False,
        cookie: "int | None" = None,
        cookie_mask: int = 0,
    ) -> list[FlowEntry]:
        """Remove the entries :meth:`select` picks and return them (for
        flow-removed)."""
        removed = self.select(match, priority, strict, cookie, cookie_mask)
        for entry in reversed(removed):  # back to front: short list shifts
            self._remove(entry)
        return removed

    def _subset_candidates(self, pattern: Match) -> "list[FlowEntry]":
        """Every entry whose match *could* be a subset of *pattern*.

        A subset constrains at least the bits the pattern constrains,
        so only groups whose field-set (mask-set) covers the pattern's
        qualify: the group with exactly the pattern's shape is one
        bucket probe, a group missing a pattern field or mask bit is
        skipped, and a strictly wider group is scanned.
        """
        pattern_masks, pattern_values = pattern.mask_key()
        pattern_exact = pattern.exact_key()
        pattern_slots = {slot for slot, _ in pattern_masks}
        found: list[FlowEntry] = []
        for names, buckets in self._exact.items():
            if pattern_exact is not None and names == pattern_exact[0]:
                found.extend(buckets.get(pattern_exact[1], ()))
            elif pattern_slots.issubset(self._exact_slots[names]):
                for chain in buckets.values():
                    found.extend(chain)
        for mask_set, subtable in self._subtables.items():
            if mask_set == pattern_masks:
                found.extend(subtable.buckets.get(pattern_values, ()))
                continue
            masks = dict(mask_set)
            if all(
                masks.get(slot, 0) & mask == mask for slot, mask in pattern_masks
            ):
                for chain in subtable.buckets.values():
                    found.extend(chain)
        return found

    def expire(self, now: float) -> list[FlowEntry]:
        """Remove and return all timed-out entries."""
        expired = [entry for entry in self._entries if entry.is_expired(now)]
        if expired:
            self._entries = [
                entry for entry in self._entries if not entry.is_expired(now)
            ]
            for entry in expired:
                self._index_remove(entry)
        return expired

    def dump(self) -> str:
        """Readable flow-table listing (the Fig. 1 'Flow table of SS_1')."""
        lines = [f"table {self.table_id} ({len(self._entries)} flows):"]
        lines.extend(f"  {entry.describe()}" for entry in self._entries)
        return "\n".join(lines)
