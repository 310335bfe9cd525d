"""Flow tables: priority-ordered masked matching with timeouts.

Lookup is one index, the slow-path half of the OVS-style datapath:
every entry lives in the :class:`Subtable` of its mask-set (the
canonical ``Match.mask_key()`` fingerprint; a match on whole fields
carries all-ones masks, and the match-all entry's mask-set is ``()``).
Each subtable is a hash table from the masked value tuple to the
entries carrying those values, so a lookup costs one probe per
*distinct mask-set* instead of one test per entry.  Subtables are
searched in descending max-priority order with early termination,
OVS's staged-lookup trick.

The candidates are arbitrated by the same total order the seed used,
so lookup results are bit-identical to a pure linear scan.  The index
serves the compiled program (``_classify`` and the probe groups it
binds); the reference interpreter scans the table with
``linear_lookup``, which the differential suites hold the compiled
program to.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Optional

from repro.openflow.instructions import Instruction
from repro.openflow.match import Match
from repro.openflow.packetview import PacketView


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
    """One staged bucket group: every entry sharing a mask-set.

    ``buckets`` maps the masked value tuple to the entries carrying
    those values, sorted by the table-wide arbitration order — within a
    bucket every entry matches exactly the same packets, so the first
    live one is the bucket's best candidate.  ``max_priority`` bounds
    what any entry in the subtable can contribute; the classifier sorts
    subtables on it and stops probing as soon as no remaining subtable
    can beat the best candidate found so far.
    """

    __slots__ = ("mask_set", "buckets", "max_priority", "_priority_counts")

    def __init__(self, mask_set: "tuple[tuple[int, int], ...]") -> None:
        self.mask_set = mask_set
        self.buckets: "dict[tuple[int, ...], list[FlowEntry]]" = {}
        self.max_priority = -1
        self._priority_counts: dict[int, int] = {}

    def add(self, values: "tuple[int, ...]", entry: FlowEntry) -> None:
        chain = self.buckets.get(values)
        if chain is None:
            self.buckets[values] = [entry]
        else:
            bisect.insort(chain, entry, key=_SORT_KEY)
        priority = entry.priority
        counts = self._priority_counts
        counts[priority] = counts.get(priority, 0) + 1
        if priority > self.max_priority:
            self.max_priority = priority

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
        #: mask-set fingerprint -> the subtable of its entries
        self._subtables: "dict[tuple[tuple[int, int], ...], Subtable]" = {}
        #: subtables sorted by (-max_priority, mask_set); resorted lazily
        self._staged: list[Subtable] = []
        self._staged_dirty = False
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

        An equal Match has an equal mask_key, so its duplicate can only
        be in its own value bucket of its own mask-set.  Keeps bulk
        pushes and strict deletes O(log n) per FlowMod instead of
        re-scanning the whole table.
        """
        mask_set, values = match.mask_key()
        subtable = self._subtables.get(mask_set)
        return () if subtable is None else subtable.buckets.get(values, ())

    def _remove(self, entry: FlowEntry) -> None:
        index = bisect.bisect_left(self._entries, entry.sort_key, key=_SORT_KEY)
        while self._entries[index] is not entry:
            index += 1
        del self._entries[index]
        self._index_remove(entry)

    def _index_add(self, entry: FlowEntry) -> None:
        mask_set, values = entry.match.mask_key()
        subtable = self._subtables.get(mask_set)
        if subtable is None:
            subtable = self._subtables[mask_set] = Subtable(mask_set)
            self._staged.append(subtable)
        if entry.priority > subtable.max_priority:
            # The bound rises (a new subtable's from -1), so the probe
            # order may change; any other add leaves it as it is.
            self._staged_dirty = True
        subtable.add(values, entry)

    def _index_remove(self, entry: FlowEntry) -> None:
        mask_set, values = entry.match.mask_key()
        subtable = self._subtables[mask_set]
        bound = subtable.max_priority
        subtable.remove(values, entry)
        if not subtable.buckets:
            del self._subtables[mask_set]
            self._staged.remove(subtable)
        elif subtable.max_priority != bound:
            self._staged_dirty = True

    # ------------------------------------------------------------- lookup

    def _classify(
        self, key: "tuple[int | None, ...]", now: float
    ) -> Optional[FlowEntry]:
        """Highest-priority live entry matching the flow key *key*: the
        compiled program's lookup in the tables after table 0, when a
        key-cache miss builds a decision.  Counts nothing."""
        best: "FlowEntry | None" = None
        for subtable in self._staged_in_order():
            if best is not None and -subtable.max_priority > best.sort_key[0]:
                break  # staged order: no remaining subtable can win
            entry = subtable.probe(key, now)
            if entry is not None and (best is None or entry.sort_key < best.sort_key):
                best = entry
        return best

    def _staged_in_order(self) -> "list[Subtable]":
        """The live subtables in probe order, (-max_priority, mask_set),
        re-sorted lazily.  Ties go by mask-set, not history, so the
        order (and the compiler's generated source) is a function of
        the shape."""
        if self._staged_dirty:
            self._staged.sort(key=lambda s: (-s.max_priority, s.mask_set))
            self._staged_dirty = False
        return self._staged

    def subtables_in_order(self) -> "tuple[Subtable, ...]":
        """A snapshot of the subtables in probe order.

        The compiler binds a specialized program's probes to their
        bucket dicts, and the program stays valid for as long as every
        install lands in a subtable it probes (a re-created one is
        rebound through :meth:`probe_group`); the datapath discards it
        otherwise.
        """
        return tuple(self._staged_in_order())

    @property
    def subtable_count(self) -> int:
        """How many distinct mask-sets the table holds (the match-all
        entry's is ``()``)."""
        return len(self._subtables)

    # ------------------------------------------------- compiler introspection

    def used_slots(self) -> frozenset[int]:
        """Union of flow-key slots any installed match reads.

        The datapath compiler shrinks its specialized extractor to this
        set, so a table matching three fields costs three field decodes.
        Derived from the index (one union per mask-set, not per entry),
        so it stays O(#distinct shapes) even for 10k-flow tables.
        """
        slots: set[int] = set()
        for mask_set in self._subtables:
            slots.update(slot for slot, _ in mask_set)
        return frozenset(slots)

    def probe_group(self, match: Match) -> tuple:
        """(mask-set, value buckets) of the table-0 probe group an
        installed entry with *match* is indexed under — the two things
        the compiler bakes per probe, so a kept program can rebind a
        probe whose group emptied and was re-created (a new dict) since
        it was generated."""
        subtable = self._subtables[match.mask_key()[0]]
        return subtable.mask_set, subtable.buckets

    def linear_lookup(self, view: PacketView, now: float) -> Optional[FlowEntry]:
        """The seed O(n) scan: the reference interpreter's one lookup."""
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
        so only subtables whose mask-set covers the pattern's qualify:
        the one with exactly the pattern's mask-set is one bucket probe,
        one missing a pattern field or mask bit is skipped, and a
        strictly wider one is scanned.
        """
        pattern_masks, pattern_values = pattern.mask_key()
        found: list[FlowEntry] = []
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
