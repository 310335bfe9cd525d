"""Fabric-scale scenarios: declarative multi-switch topologies.

Every scenario up to PR 4 migrated exactly one legacy switch behind one
HARMLESS server.  This package opens the network-wide axis: one call
builds an enterprise fabric of legacy switches — leaf-spine, ring or
campus tree — complete with inter-switch trunk links, per-edge hosts,
a reserved HARMLESS trunk port on every switch and a management plane
(SNMP agent + vendor driver) per device, ready for
:class:`repro.core.manager.HarmlessFleet` to migrate wave by wave.
"""

from repro.fabric.topology import (
    Fabric,
    FabricSite,
    campus_fabric,
    leaf_spine_fabric,
    ring_fabric,
)

__all__ = [
    "Fabric",
    "FabricSite",
    "leaf_spine_fabric",
    "ring_fabric",
    "campus_fabric",
]
