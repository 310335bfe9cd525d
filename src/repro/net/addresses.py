"""MAC and IPv4 address value types.

Both are ``int`` subclasses holding nothing but the integer: equality,
ordering and hashing are int's, done in C, so an address keys an FDB
or flow table as cheaply as the number it is.  Construction validates
and normalises (text, packed bytes, an int in range); an address of
the type asked for comes back unchanged.  They render in the
conventional textual forms.

Being ints has consequences the rest of the code may rely on: an
address equals (and hashes like) the int of its value — so a MAC and an
IPv4 address of one value are equal too — ``MACAddress(0)`` and
``0.0.0.0`` are falsy, and ``json`` and ``isinstance(x, int)`` accept
addresses.  Arithmetic other than :meth:`IPv4Address.__add__` yields
plain ints.
"""

from __future__ import annotations

import re

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")
_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")

#: The I/G bit of a MAC held as an int: set for group (multicast and
#: broadcast) addresses.  ``mac & GROUP_BIT`` is the per-frame test.
GROUP_BIT = 1 << 40


class MACAddress(int):
    """A 48-bit IEEE 802 MAC address."""

    __slots__ = ()

    def __new__(cls, value: "int | str | bytes | MACAddress") -> "MACAddress":
        if type(value) is cls:
            return value
        if isinstance(value, int) and not isinstance(value, IPv4Address):
            if not 0 <= value < 1 << 48:
                raise ValueError(f"MAC integer out of range: {value:#x}")
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise ValueError(f"MAC bytes must be 6 long, got {len(value)}")
            value = int.from_bytes(value, "big")
        elif isinstance(value, str):
            if not _MAC_RE.match(value):
                raise ValueError(f"malformed MAC address: {value!r}")
            value = int(value.replace("-", ":").replace(":", ""), 16)
        else:
            raise TypeError(f"cannot build MACAddress from {type(value).__name__}")
        return int.__new__(cls, value)

    @property
    def packed(self) -> bytes:
        """The 6-byte network-order representation."""
        return self.to_bytes(6, "big")

    @property
    def is_broadcast(self) -> bool:
        return self == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        """True for group addresses (I/G bit set), including broadcast."""
        return bool(self & GROUP_BIT)

    @property
    def is_unicast(self) -> bool:
        return not self & GROUP_BIT

    def __str__(self) -> str:
        raw = f"{self:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MACAddress('{self}')"


BROADCAST_MAC = MACAddress("ff:ff:ff:ff:ff:ff")


class IPv4Address(int):
    """A 32-bit IPv4 address."""

    __slots__ = ()

    def __new__(cls, value: "int | str | bytes | IPv4Address") -> "IPv4Address":
        if type(value) is cls:
            return value
        if isinstance(value, int) and not isinstance(value, MACAddress):
            if not 0 <= value < 1 << 32:
                raise ValueError(f"IPv4 integer out of range: {value:#x}")
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 4:
                raise ValueError(f"IPv4 bytes must be 4 long, got {len(value)}")
            value = int.from_bytes(value, "big")
        elif isinstance(value, str):
            match = _IPV4_RE.match(value)
            if not match:
                raise ValueError(f"malformed IPv4 address: {value!r}")
            octets = [int(group) for group in match.groups()]
            if any(octet > 255 for octet in octets):
                raise ValueError(f"IPv4 octet out of range: {value!r}")
            value = octets[0] << 24 | octets[1] << 16 | octets[2] << 8 | octets[3]
        else:
            raise TypeError(f"cannot build IPv4Address from {type(value).__name__}")
        return int.__new__(cls, value)

    @property
    def packed(self) -> bytes:
        """The 4-byte network-order representation."""
        return self.to_bytes(4, "big")

    @property
    def is_multicast(self) -> bool:
        return 0xE0000000 <= self <= 0xEFFFFFFF

    @property
    def is_broadcast(self) -> bool:
        return self == 0xFFFFFFFF

    def __add__(self, offset: int) -> "IPv4Address":
        if not isinstance(offset, int):
            return NotImplemented
        return IPv4Address((int(self) + offset) & 0xFFFFFFFF)

    def __str__(self) -> str:
        return ".".join(str(self >> shift & 0xFF) for shift in (24, 16, 8, 0))

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"
