"""Legacy (non-SDN) Ethernet switch model.

Implements the parts of a plain managed L2 switch that HARMLESS relies
on: MAC learning with aging, per-VLAN flooding domains, and 802.1Q
access/trunk port modes with PVID tagging.  The HARMLESS Manager drives
the same configuration surface a real switch exposes (via the simulated
SNMP agent and vendor drivers in :mod:`repro.snmp` / :mod:`repro.mgmt`).
"""

from repro.legacy.config import (
    PortMode,
    PortVlanConfig,
    RunningConfig,
    VlanDecl,
)
from repro.legacy.fdb import FdbEntry, ForwardingDatabase
from repro.legacy.switch import LegacySwitch

__all__ = [
    "PortMode",
    "PortVlanConfig",
    "VlanDecl",
    "RunningConfig",
    "ForwardingDatabase",
    "FdbEntry",
    "LegacySwitch",
]
