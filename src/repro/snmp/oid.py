"""Object identifiers with the ordering GETNEXT walks depend on."""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator


@total_ordering
class OID:
    """An SNMP object identifier — a dotted sequence of non-negative ints.

    Ordering is lexicographic on the component tuple, which is exactly
    the order an agent must return varbinds for GETNEXT/walk.
    """

    __slots__ = ("_parts",)

    def __init__(self, spec: "str | tuple[int, ...] | list[int] | OID") -> None:
        if isinstance(spec, OID):
            self._parts = spec._parts
        elif isinstance(spec, str):
            text = spec.strip().lstrip(".")
            if not text:
                raise ValueError("empty OID")
            try:
                self._parts = tuple(map(int, text.split(".")))
            except ValueError as exc:
                raise ValueError(f"malformed OID: {spec!r}") from exc
        elif isinstance(spec, (tuple, list)):
            self._parts = tuple(map(int, spec))
        else:
            raise TypeError(f"cannot build OID from {type(spec).__name__}")
        if not self._parts:
            raise ValueError("empty OID")
        if min(self._parts) < 0:  # no generator frame: OIDs are built per varbind
            raise ValueError(f"negative OID component: {self}")

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    def child(self, *suffix: int) -> "OID":
        """This OID extended with *suffix* components."""
        return OID(self._parts + tuple(suffix))

    def is_prefix_of(self, other: "OID") -> bool:
        """True if *other* lives under this OID (or equals it)."""
        return other._parts[: len(self._parts)] == self._parts

    def strip_prefix(self, prefix: "OID") -> tuple[int, ...]:
        """The components of self below *prefix* (raises if not under it)."""
        if not prefix.is_prefix_of(self):
            raise ValueError(f"{self} is not under {prefix}")
        return self._parts[len(prefix._parts):]

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OID):
            return self._parts == other._parts
        return NotImplemented

    def __lt__(self, other: "OID") -> bool:
        if isinstance(other, OID):
            return self._parts < other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("OID", self._parts))

    def __str__(self) -> str:
        return ".".join(str(part) for part in self._parts)

    def __repr__(self) -> str:
        return f"OID('{self}')"


# Well-known bases used by the bridge MIBs.
MIB2 = OID("1.3.6.1.2.1")
SYS_DESCR = MIB2.child(1, 1, 0)
SYS_NAME = MIB2.child(1, 5, 0)
IF_NUMBER = MIB2.child(2, 1, 0)
IF_TABLE = MIB2.child(2, 2)
DOT1D_BRIDGE = MIB2.child(17)
DOT1D_TP_FDB = DOT1D_BRIDGE.child(4, 3)
Q_BRIDGE = DOT1D_BRIDGE.child(7)
DOT1Q_VLAN_STATIC = Q_BRIDGE.child(1, 4, 3)
DOT1Q_PVID = Q_BRIDGE.child(1, 4, 5)
