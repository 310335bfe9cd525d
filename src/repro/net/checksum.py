"""RFC 1071 Internet checksum.

Shared by IPv4, ICMP, UDP and TCP.  The implementation folds 16-bit
one's-complement sums exactly as the RFC specifies, so checksums in our
serialised headers verify against any external tool that might inspect
captures exported by the simulator.
"""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement checksum of *data*.

    Odd-length buffers are zero-padded on the right, per RFC 1071.
    Returns the checksum as an integer in [0, 0xFFFF].
    """
    if len(data) % 2:
        data = data + b"\x00"
    # 2**16 = 1 (mod 0xFFFF), so adding 16-bit words with end-around
    # carry is the whole buffer, read as one integer, mod 0xFFFF — one C
    # pass instead of a Python loop per word.  Folding never turns a
    # non-zero sum into 0: a non-zero multiple of 0xFFFF folds to 0xFFFF.
    total = int.from_bytes(data, "big")
    folded = total % 0xFFFF
    if total and not folded:
        folded = 0xFFFF
    return ~folded & 0xFFFF


def pseudo_header_checksum(
    src_ip_packed: bytes, dst_ip_packed: bytes, protocol: int, payload: bytes
) -> int:
    """Checksum over the IPv4 pseudo header plus *payload* (TCP/UDP)."""
    pseudo = (
        src_ip_packed
        + dst_ip_packed
        + bytes([0, protocol])
        + len(payload).to_bytes(2, "big")
    )
    return internet_checksum(pseudo + payload)
