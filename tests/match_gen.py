"""Random match constraints shared by the classifier differential suites.

Each generator returns a value ``Match(**{name: ...})`` accepts: a plain
value or a ``(value, mask)`` pair.  Whole-field constraints come in
both spellings, so the suites pin that a full mask is probed like an
absent one for every field width.
"""

import random

from repro.net.addresses import GROUP_BIT
from repro.openflow import consts as c
from repro.openflow.match import FULL_MASKS
from repro.openflow.packetview import FIELD_INDEX


def whole(rng: random.Random, name: str, value: int):
    """*value*, or the same whole-field constraint spelled (value, full
    mask): both must land in the field's whole-field probe."""
    if rng.random() < 0.25:
        return (value, FULL_MASKS[FIELD_INDEX[name]])
    return value


def random_eth_dst(rng: random.Random, macs):
    """One of *macs*, or the group bit alone (multicast / unicast)."""
    if rng.random() < 0.25:
        return (rng.choice((0, GROUP_BIT)), GROUP_BIT)
    return whole(rng, "eth_dst", int(rng.choice(macs)))


def random_vlan_vid(rng: random.Random, vids: "tuple[int, int]"):
    """Untagged, one VLAN, or any tagged frame (``OFPVID_PRESENT`` alone)."""
    roll = rng.random()
    if roll < 0.2:
        return (c.OFPVID_PRESENT, c.OFPVID_PRESENT)
    if roll < 0.45:
        return whole(rng, "vlan_vid", 0)
    return whole(rng, "vlan_vid", c.OFPVID_PRESENT | rng.randint(*vids))
