"""The MIB tree an agent serves.

Nodes are registered under base OIDs.  Scalars read/write a single
value; tables enumerate dynamic rows on demand (so walking ifTable
always reflects live switch state rather than a snapshot).

Two contracts keep one PDU linear in the rows of *one* table:

* a node's **region** is every OID under its base; regions never nest
  (``mount`` refuses), so in base order they are disjoint and ascending
  and the tree answers from the one region an OID falls in;
* a table's ``rows()`` yields index suffixes **strictly increasing**
  (plain tuple order, which is OID order under one base).  ``get`` and
  ``successor`` compare suffix tuples and stop at the first hit.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.snmp.oid import OID

ReadFn = Callable[[], Any]
WriteFn = Callable[[Any], None]
#: Table enumerator: yields (index-suffix, value) pairs, suffixes
#: strictly increasing.
RowsFn = Callable[[], Iterable[tuple[tuple[int, ...], Any]]]
#: Table writer: (index-suffix, value) -> None.
TableWriteFn = Callable[[tuple[int, ...], Any], None]


class MibNode:
    """Base class: something mounted at a base OID."""

    def __init__(self, base: OID, writable: bool = False) -> None:
        self.base = OID(base)
        self.writable = writable

    def get(self, oid: OID) -> "tuple[bool, Any]":
        """(found, value) for an exact OID."""
        raise NotImplementedError

    def set(self, oid: OID, value: Any) -> bool:
        """Write; returns False if the OID does not exist here."""
        raise NotImplementedError

    def successor(self, oid: OID) -> "Optional[tuple[OID, Any]]":
        """First (oid, value) pair strictly after *oid* within this node."""
        raise NotImplementedError


class MibScalar(MibNode):
    """A single value at ``base.0``."""

    def __init__(
        self,
        base: OID,
        read: ReadFn,
        write: "WriteFn | None" = None,
    ) -> None:
        super().__init__(base, writable=write is not None)
        self._read = read
        self._write = write
        self.instance = self.base.child(0)

    def get(self, oid: OID) -> "tuple[bool, Any]":
        if oid == self.instance:
            return True, self._read()
        return False, None

    def set(self, oid: OID, value: Any) -> bool:
        if oid != self.instance or self._write is None:
            return False
        self._write(value)
        return True

    def successor(self, oid: OID) -> "Optional[tuple[OID, Any]]":
        if oid < self.instance:
            return self.instance, self._read()
        return None


class MibTable(MibNode):
    """A table of dynamic rows under a base OID.

    The *rows* callable re-enumerates live state on every operation,
    yielding (index-suffix, value) pairs with strictly increasing
    suffixes (the module docstring's ``rows()`` contract).
    """

    def __init__(
        self,
        base: OID,
        rows: RowsFn,
        write: "TableWriteFn | None" = None,
    ) -> None:
        super().__init__(base, writable=write is not None)
        self._rows = rows
        self._write = write

    def get(self, oid: OID) -> "tuple[bool, Any]":
        if not self.base.is_prefix_of(oid):
            return False, None
        wanted = oid.strip_prefix(self.base)
        for suffix, value in self._rows():
            if suffix == wanted:
                return True, value
            if suffix > wanted:
                break  # rows ascend: it is not there
        return False, None

    def set(self, oid: OID, value: Any) -> bool:
        if self._write is None or not self.base.is_prefix_of(oid):
            return False
        self._write(oid.strip_prefix(self.base), value)
        return True

    def successor(self, oid: OID) -> "Optional[tuple[OID, Any]]":
        base, cursor = self.base.parts, oid.parts
        head = cursor[: len(base)]
        if head > base:
            return None  # the whole region lies before the cursor: no enumeration
        before = head < base  # cursor precedes the region: the first row answers
        wanted = cursor[len(base):]
        for suffix, value in self._rows():
            if before or suffix > wanted:
                return self.base.child(*suffix), value
        return None


class MibTree:
    """All nodes served by one agent, kept sorted by base OID.

    ``checkpoint``, when the owner of the state behind the writable
    nodes sets it, captures that state and returns the function that
    restores it; the agent uses it to undo a multi-varbind SET that
    fails part-way.
    """

    def __init__(self) -> None:
        self._nodes: list[MibNode] = []
        self.checkpoint: "Callable[[], Callable[[], None]] | None" = None

    def mount(self, node: MibNode) -> MibNode:
        """Register *node*; bases must not nest inside each other."""
        for existing in self._nodes:
            if existing.base.is_prefix_of(node.base) or node.base.is_prefix_of(
                existing.base
            ):
                raise ValueError(
                    f"OID region conflict: {existing.base} vs {node.base}"
                )
        self._nodes.append(node)
        self._nodes.sort(key=lambda n: n.base.parts)
        return node

    def scalar(self, base: "OID | str", read: ReadFn, write: "WriteFn | None" = None) -> MibScalar:
        node = MibScalar(OID(base), read, write)
        self.mount(node)
        return node

    def table(
        self, base: "OID | str", rows: RowsFn, write: "TableWriteFn | None" = None
    ) -> MibTable:
        node = MibTable(OID(base), rows, write)
        self.mount(node)
        return node

    def _covering(self, oid: OID) -> "Optional[MibNode]":
        """The one node whose region *oid* falls in, if any."""
        for node in self._nodes:
            if node.base.is_prefix_of(oid):
                return node
        return None

    def get(self, oid: OID) -> "tuple[bool, Any]":
        node = self._covering(oid)
        return node.get(oid) if node is not None else (False, None)

    def locate(self, oid: OID) -> "Optional[MibNode]":
        """The node a SET of *oid* goes to (used for SET validation).

        For scalars this means the exact ``base.0`` instance; for tables
        any OID under the base, because SET may create new rows
        (RowStatus createAndGo).
        """
        node = self._covering(oid)
        if isinstance(node, MibScalar):
            settable = oid == node.instance
        else:
            settable = node is not None and len(oid) > len(node.base)
        return node if settable else None

    def successor(self, oid: OID) -> "Optional[tuple[OID, Any]]":
        for node in self._nodes:
            candidate = node.successor(oid)
            if candidate is not None:
                return candidate  # regions ascend: the first hit is the minimum
        return None
