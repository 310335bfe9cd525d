"""MAC and IPv4 address value types.

Small immutable wrappers around the integer representation.  They are
hashable (usable as FDB / flow-table keys), ordered (usable in sorted
MIB walks) and render in the conventional textual forms.
"""

from __future__ import annotations

import re
from functools import total_ordering

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")
_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


@total_ordering
class MACAddress:
    """A 48-bit IEEE 802 MAC address."""

    __slots__ = ("_value",)

    def __init__(self, value: "int | str | bytes | MACAddress") -> None:
        if isinstance(value, MACAddress):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value < 1 << 48:
                raise ValueError(f"MAC integer out of range: {value:#x}")
            self._value = value
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise ValueError(f"MAC bytes must be 6 long, got {len(value)}")
            self._value = int.from_bytes(value, "big")
        elif isinstance(value, str):
            if not _MAC_RE.match(value):
                raise ValueError(f"malformed MAC address: {value!r}")
            self._value = int(value.replace("-", ":").replace(":", ""), 16)
        else:
            raise TypeError(f"cannot build MACAddress from {type(value).__name__}")

    @property
    def packed(self) -> bytes:
        """The 6-byte network-order representation."""
        return self._value.to_bytes(6, "big")

    @property
    def is_broadcast(self) -> bool:
        return self._value == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        """True for group addresses (I/G bit set), including broadcast."""
        return bool(self._value >> 40 & 0x01)

    @property
    def is_unicast(self) -> bool:
        return not self.is_multicast

    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MACAddress):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "MACAddress") -> bool:
        if isinstance(other, MACAddress):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("MACAddress", self._value))

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MACAddress('{self}')"


BROADCAST_MAC = MACAddress("ff:ff:ff:ff:ff:ff")


@total_ordering
class IPv4Address:
    """A 32-bit IPv4 address."""

    __slots__ = ("_value",)

    def __init__(self, value: "int | str | bytes | IPv4Address") -> None:
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value < 1 << 32:
                raise ValueError(f"IPv4 integer out of range: {value:#x}")
            self._value = value
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 4:
                raise ValueError(f"IPv4 bytes must be 4 long, got {len(value)}")
            self._value = int.from_bytes(value, "big")
        elif isinstance(value, str):
            match = _IPV4_RE.match(value)
            if not match:
                raise ValueError(f"malformed IPv4 address: {value!r}")
            octets = [int(group) for group in match.groups()]
            if any(octet > 255 for octet in octets):
                raise ValueError(f"IPv4 octet out of range: {value!r}")
            self._value = (
                octets[0] << 24 | octets[1] << 16 | octets[2] << 8 | octets[3]
            )
        else:
            raise TypeError(f"cannot build IPv4Address from {type(value).__name__}")

    @property
    def packed(self) -> bytes:
        """The 4-byte network-order representation."""
        return self._value.to_bytes(4, "big")

    @property
    def is_multicast(self) -> bool:
        return 0xE0000000 <= self._value <= 0xEFFFFFFF

    @property
    def is_broadcast(self) -> bool:
        return self._value == 0xFFFFFFFF

    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        if isinstance(other, IPv4Address):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IPv4Address", self._value))

    def __add__(self, offset: int) -> "IPv4Address":
        if not isinstance(offset, int):
            return NotImplemented
        return IPv4Address((self._value + offset) & 0xFFFFFFFF)

    def __str__(self) -> str:
        return ".".join(str(self._value >> shift & 0xFF) for shift in (24, 16, 8, 0))

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

