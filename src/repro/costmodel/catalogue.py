"""Synthetic 2017-era price catalogue.

The paper's artifact relies on street prices that are not archivable;
these SKUs are constructed from the era's public list-price ballpark
(a substitution: see "Substitutions" in docs/architecture.md).  The cost *argument* only
needs the ratios to be right: a managed legacy GbE switch costs a few
hundred dollars (and is already owned), a COTS OpenFlow switch costs an
order of magnitude more, and a commodity server with 10G NICs sits in
between but serves several switches at once.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceSku:
    """One purchasable device."""

    name: str
    price_usd: float
    ports: int = 0
    port_speed_gbps: float = 1.0
    #: For servers: packets/s one core forwards (ESwitch-calibrated).
    pps_per_core: float = 0.0
    cores: int = 0
    #: For servers/NICs: total trunk capacity in Gbit/s.
    trunk_gbps: float = 0.0


#: Managed GbE access switches (the gear HARMLESS keeps in service).
LEGACY_SWITCHES = {
    24: DeviceSku(name="legacy-24p-1g", price_usd=450.0, ports=24),
    48: DeviceSku(name="legacy-48p-1g", price_usd=800.0, ports=48),
}

#: COTS OpenFlow-capable switches (the forklift alternative).
COTS_OF_SWITCHES = {
    24: DeviceSku(name="cots-of-24p-1g", price_usd=3200.0, ports=24),
    48: DeviceSku(name="cots-of-48p-1g", price_usd=5500.0, ports=48),
}

#: The HARMLESS server: 2x8 cores, runs SS_1+SS_2 for several switches.
SERVER_SKU = DeviceSku(
    name="x86-server-2s",
    price_usd=2600.0,
    pps_per_core=13e6,
    cores=16,
    trunk_gbps=0.0,
)

#: Dual-port 10G NIC; one port = one legacy-switch trunk.
NIC_SKU = DeviceSku(name="10g-dual-nic", price_usd=380.0, trunk_gbps=20.0)

#: GbE quad NIC used by the pure-software strategy for access ports.
QUAD_GBE_NIC_SKU = DeviceSku(name="1g-quad-nic", price_usd=150.0, ports=4)

#: Max PCIe NICs a commodity server takes (pure-software port density cap).
MAX_NICS_PER_SERVER = 6
