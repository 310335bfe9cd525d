"""Declarative topology builders for multi-switch legacy fabrics.

One call instantiates a whole enterprise fabric: legacy switches with
their 802.1Q dataplanes, inter-switch trunk links, per-edge hosts with
full ARP/IP stacks, and one SNMP agent + NAPALM-style vendor driver per
device.  Every switch reserves one free port (the highest-numbered one)
for the HARMLESS server trunk, so a :class:`repro.core.manager
.HarmlessFleet` can migrate any subset of the fabric mid-simulation
without re-cabling anything else.

Three families are provided:

* :func:`leaf_spine_fabric` — N edge switches homed onto a spine tier
  (edges are round-robined across spines and the spines are chained,
  so the fabric is a tree);
* :func:`ring_fabric` — switches in a ring whose closing link is built
  but administratively blocked on both ends, so the ring bridges as a
  chain;
* :func:`campus_fabric` — the classic core / distribution / access
  tree with hosts on the access tier.

Edge switches can also reserve *generator ports*: access ports left
unwired for traffic stations (e.g. :class:`repro.traffic.generators
.BurstSource`) attached later via :meth:`Fabric.attach_station` — they
are part of the managed access-port set, so station traffic hairpins
through the migrated S4 datapaths exactly like host traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.legacy.switch import (
    DEFAULT_PROCESSING_DELAY_S,
    LegacySwitch,
)
from repro.mgmt.base import DeviceConnection, NetworkDriver
from repro.mgmt.drivers import get_network_driver
from repro.net.addresses import IPv4Address, MACAddress
from repro.netsim.host import Host
from repro.netsim.link import DEFAULT_QUEUE_FRAMES, Link
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.snmp.agent import SnmpAgent
from repro.snmp.bridge_mib import attach_bridge_mib

#: Access/host links default to GbE (matches the legacy switches).
DEFAULT_HOST_BANDWIDTH_BPS = 1_000_000_000
#: Inter-switch trunks default to 10 GbE.
DEFAULT_TRUNK_BANDWIDTH_BPS = 10_000_000_000
#: Base MAC of fabric hosts (host k gets base + k).
HOST_MAC_BASE = 0x02_00_00_00_00_01
#: Hosts are numbered into 10.0.x.y (250 per /24 octet block); the cap
#: only bounds the address plan, far above any buildable fabric.
MAX_FABRIC_HOSTS = 62_500

@dataclass
class FabricSite:
    """One legacy switch of the fabric, with its management plane."""

    name: str
    role: str  #: "edge" | "spine" | "core" | "distribution" | "access"
    switch: LegacySwitch
    driver: NetworkDriver
    hosts: "list[Host]" = field(default_factory=list)
    host_ports: "list[int]" = field(default_factory=list)
    uplink_ports: "list[int]" = field(default_factory=list)
    #: Access ports reserved for traffic stations (unwired until
    #: :meth:`Fabric.attach_station`).
    gen_ports: "list[int]" = field(default_factory=list)
    #: The free port cabled to the HARMLESS server at migration time.
    trunk_port: int = 0
    #: Pod index for host-bearing sites (edge/access), else None.
    pod: "int | None" = None

    @property
    def access_ports(self) -> "list[int]":
        """Every port HARMLESS should manage (all but the S4 trunk)."""
        return sorted(self.host_ports + self.uplink_ports + self.gen_ports)

    def describe(self) -> str:
        parts = [
            f"{self.name} ({self.role}, {self.driver.vendor}):",
            f"{len(self.host_ports)} host port(s)",
            f"{len(self.uplink_ports)} uplink(s)",
        ]
        if self.gen_ports:
            parts.append(f"{len(self.gen_ports)} gen port(s)")
        parts.append(f"trunk reserved on port {self.trunk_port}")
        return " ".join(parts)


class Fabric:
    """A built multi-switch topology (the output of the builders)."""

    def __init__(self, sim: Simulator, kind: str) -> None:
        self.sim = sim
        self.kind = kind
        self.sites: dict[str, FabricSite] = {}
        #: Inter-switch links in creation order (blocked ones included).
        self.trunk_links: list[Link] = []
        #: Links built but administratively blocked (ring closures).
        self.blocked_links: list[Link] = []
        #: Stations attached to gen ports, per site name.
        self.stations: dict[str, list[Node]] = {}
        self._next_host = 0

    # ------------------------------------------------------------ queries

    def site(self, name: str) -> FabricSite:
        try:
            return self.sites[name]
        except KeyError:
            raise KeyError(f"fabric has no site {name!r}") from None

    @property
    def hosts(self) -> "list[Host]":
        """All hosts, in site insertion order then port order."""
        return [host for site in self.sites.values() for host in site.hosts]

    def edge_sites(self) -> "list[FabricSite]":
        """Sites that carry hosts or stations, in pod order."""
        sites = [site for site in self.sites.values() if site.pod is not None]
        return sorted(sites, key=lambda site: site.pod)

    # ------------------------------------------------------------ wiring

    def attach_station(self, site_name: str, node: Node, **link_kwargs) -> int:
        """Wire *node*'s first port to the next free gen port of a site.

        Returns the legacy port number used.  The port is already part
        of the site's managed access-port set, so after migration the
        station's traffic rides the S4 hairpin like any host's.
        """
        site = self.site(site_name)
        free = [
            number
            for number in site.gen_ports
            if site.switch.port(number).link is None
        ]
        if not free:
            raise ValueError(f"{site_name}: no free generator ports")
        number = free[0]
        port = node.ports[min(node.ports)] if node.ports else node.add_port()
        link_kwargs.setdefault("bandwidth_bps", DEFAULT_HOST_BANDWIDTH_BPS)
        link_kwargs.setdefault("queue_frames", DEFAULT_QUEUE_FRAMES)
        Link(port, site.switch.port(number), **link_kwargs)
        self.stations.setdefault(site_name, []).append(node)
        return number

    # ------------------------------------------------------------ output

    def describe(self) -> str:
        lines = [
            f"fabric '{self.kind}': {len(self.sites)} switches, "
            f"{len(self.hosts)} hosts, "
            f"{len(self.trunk_links)} inter-switch links"
            + (f" ({len(self.blocked_links)} blocked)" if self.blocked_links else "")
        ]
        for site in self.sites.values():
            lines.append(f"  {site.describe()}")
        for link in self.trunk_links:
            blocked = "  [blocked]" if link in self.blocked_links else ""
            lines.append(f"  link {link.name}{blocked}")
        return "\n".join(lines)


class _Builder:
    """Shared plumbing for the fabric families."""

    def __init__(
        self,
        kind: str,
        sim: "Simulator | None",
        vendor: str,
        host_bandwidth_bps: "float | None",
        trunk_bandwidth_bps: "float | None",
        queue_frames: int,
        processing_delay_s: float,
    ) -> None:
        self.fabric = Fabric(sim or Simulator(), kind)
        self.vendor = vendor
        self.host_bandwidth_bps = host_bandwidth_bps
        self.trunk_bandwidth_bps = trunk_bandwidth_bps
        self.queue_frames = queue_frames
        self.processing_delay_s = processing_delay_s

    def add_site(
        self,
        name: str,
        role: str,
        num_hosts: int = 0,
        num_uplinks: int = 0,
        num_gen_ports: int = 0,
        pod: "int | None" = None,
    ) -> FabricSite:
        """One legacy switch: hosts first, uplinks next, trunk last."""
        sim = self.fabric.sim
        num_ports = num_hosts + num_uplinks + num_gen_ports + 1
        switch = LegacySwitch(
            sim, name, num_ports=num_ports,
            processing_delay_s=self.processing_delay_s,
        )
        mib, _ = attach_bridge_mib(switch)
        driver = get_network_driver(self.vendor)(
            DeviceConnection(agent=SnmpAgent(mib), hostname=name)
        )
        driver.open()
        site = FabricSite(
            name=name, role=role, switch=switch, driver=driver,
            trunk_port=num_ports, pod=pod,
        )
        for offset in range(num_hosts):
            number = offset + 1
            index = self.fabric._next_host
            self.fabric._next_host += 1
            if index >= MAX_FABRIC_HOSTS:
                raise ValueError(
                    f"fabric builders support at most {MAX_FABRIC_HOSTS} hosts"
                )
            mac = MACAddress(HOST_MAC_BASE + index)
            ip = IPv4Address(f"10.0.{index // 250}.{index % 250 + 1}")
            host = Host(sim, f"{name}-h{offset + 1}", mac, ip)
            Link(
                host.port0,
                switch.port(number),
                bandwidth_bps=self.host_bandwidth_bps,
                queue_frames=self.queue_frames,
            )
            site.hosts.append(host)
            site.host_ports.append(number)
        site.uplink_ports = list(
            range(num_hosts + 1, num_hosts + num_uplinks + 1)
        )
        site.gen_ports = list(
            range(
                num_hosts + num_uplinks + 1,
                num_hosts + num_uplinks + num_gen_ports + 1,
            )
        )
        self.fabric.sites[name] = site
        return site

    def link(
        self, site_a: FabricSite, port_a: int, site_b: FabricSite, port_b: int
    ) -> Link:
        """An inter-switch trunk between two reserved uplink ports."""
        trunk = Link(
            site_a.switch.port(port_a),
            site_b.switch.port(port_b),
            bandwidth_bps=self.trunk_bandwidth_bps,
            queue_frames=self.queue_frames,
            name=f"{site_a.name}:{port_a}<->{site_b.name}:{port_b}",
        )
        self.fabric.trunk_links.append(trunk)
        return trunk

    def block(self, link: Link) -> None:
        """Administratively block both ends (the ring's loop breaker)."""
        for port in (link.port_a, link.port_b):
            switch = port.node
            assert isinstance(switch, LegacySwitch)
            switch.link_down(port.number)
        self.fabric.blocked_links.append(link)


def leaf_spine_fabric(
    edges: int = 4,
    spines: int = 1,
    hosts_per_edge: int = 2,
    gen_ports_per_edge: int = 0,
    sim: "Simulator | None" = None,
    vendor: str = "sim-ios",
    host_bandwidth_bps: "float | None" = DEFAULT_HOST_BANDWIDTH_BPS,
    trunk_bandwidth_bps: "float | None" = DEFAULT_TRUNK_BANDWIDTH_BPS,
    queue_frames: int = DEFAULT_QUEUE_FRAMES,
    processing_delay_s: float = DEFAULT_PROCESSING_DELAY_S,
) -> Fabric:
    """*edges* edge switches homed onto *spines* spine switches.

    Each edge is homed to exactly one spine (round-robin) and the
    spines are chained left-to-right, which keeps the fabric a tree —
    the legacy dataplane runs no loop protection, so the builder must
    not create loops.  Edge sites come first in ``fabric.sites`` (pod order)
    so a wave plan migrates the access tier before the spine tier.
    """
    if edges < 1 or spines < 1:
        raise ValueError("need at least one edge and one spine")
    builder = _Builder(
        "leaf-spine", sim, vendor, host_bandwidth_bps,
        trunk_bandwidth_bps, queue_frames, processing_delay_s,
    )
    edge_sites = [
        builder.add_site(
            f"edge{index + 1}", "edge",
            num_hosts=hosts_per_edge, num_uplinks=1,
            num_gen_ports=gen_ports_per_edge, pod=index,
        )
        for index in range(edges)
    ]
    homed: "list[list[FabricSite]]" = [[] for _ in range(spines)]
    for index, edge in enumerate(edge_sites):
        homed[index % spines].append(edge)
    spine_sites = []
    for index in range(spines):
        chain_links = (1 if index > 0 else 0) + (1 if index < spines - 1 else 0)
        spine_sites.append(
            builder.add_site(
                f"spine{index + 1}", "spine",
                num_uplinks=len(homed[index]) + chain_links,
            )
        )
    free_uplinks = [list(spine.uplink_ports) for spine in spine_sites]
    for index, spine in enumerate(spine_sites):
        for edge in homed[index]:
            builder.link(edge, edge.uplink_ports[0], spine, free_uplinks[index].pop(0))
    for index in range(spines - 1):
        left, right = spine_sites[index], spine_sites[index + 1]
        builder.link(
            left, free_uplinks[index].pop(0),
            right, free_uplinks[index + 1].pop(0),
        )
    return builder.fabric


def ring_fabric(
    switches: int = 4,
    hosts_per_switch: int = 2,
    gen_ports_per_switch: int = 0,
    sim: "Simulator | None" = None,
    vendor: str = "sim-ios",
    host_bandwidth_bps: "float | None" = DEFAULT_HOST_BANDWIDTH_BPS,
    trunk_bandwidth_bps: "float | None" = DEFAULT_TRUNK_BANDWIDTH_BPS,
    queue_frames: int = DEFAULT_QUEUE_FRAMES,
    processing_delay_s: float = DEFAULT_PROCESSING_DELAY_S,
) -> Fabric:
    """*switches* edge switches in a ring (each carries hosts).

    The closing link is built but administratively blocked on both
    ends (``fabric.blocked_links``): an unbroken ring floods broadcasts
    forever, for the legacy dataplane runs no loop protection.
    """
    if switches < 2:
        raise ValueError("a ring needs at least two switches")
    builder = _Builder(
        "ring", sim, vendor, host_bandwidth_bps,
        trunk_bandwidth_bps, queue_frames, processing_delay_s,
    )
    sites = [
        builder.add_site(
            f"ring{index + 1}", "edge",
            num_hosts=hosts_per_switch, num_uplinks=2,
            num_gen_ports=gen_ports_per_switch, pod=index,
        )
        for index in range(switches)
    ]
    for index in range(switches):
        left = sites[index]
        right = sites[(index + 1) % switches]
        link = builder.link(
            left, left.uplink_ports[1], right, right.uplink_ports[0]
        )
        if index == switches - 1:
            builder.block(link)
    return builder.fabric


def campus_fabric(
    distribution: int = 2,
    access_per_distribution: int = 2,
    hosts_per_access: int = 2,
    gen_ports_per_access: int = 0,
    sim: "Simulator | None" = None,
    vendor: str = "sim-ios",
    host_bandwidth_bps: "float | None" = DEFAULT_HOST_BANDWIDTH_BPS,
    trunk_bandwidth_bps: "float | None" = DEFAULT_TRUNK_BANDWIDTH_BPS,
    queue_frames: int = DEFAULT_QUEUE_FRAMES,
    processing_delay_s: float = DEFAULT_PROCESSING_DELAY_S,
) -> Fabric:
    """A campus tree: access switches under distribution under one core.

    Hosts live on the access tier; access sites come first in
    ``fabric.sites`` (pod order), then the distribution tier, then the
    core, so wave plans migrate the edge inward.
    """
    if distribution < 1 or access_per_distribution < 1:
        raise ValueError("need at least one distribution and one access switch")
    builder = _Builder(
        "campus", sim, vendor, host_bandwidth_bps,
        trunk_bandwidth_bps, queue_frames, processing_delay_s,
    )
    access_sites: "list[list[FabricSite]]" = []
    pod = 0
    for d_index in range(distribution):
        tier = []
        for a_index in range(access_per_distribution):
            tier.append(
                builder.add_site(
                    f"acc{d_index + 1}-{a_index + 1}", "access",
                    num_hosts=hosts_per_access, num_uplinks=1,
                    num_gen_ports=gen_ports_per_access, pod=pod,
                )
            )
            pod += 1
        access_sites.append(tier)
    dist_sites = [
        builder.add_site(
            f"dist{d_index + 1}", "distribution",
            num_uplinks=access_per_distribution + 1,
        )
        for d_index in range(distribution)
    ]
    core = builder.add_site("core", "core", num_uplinks=distribution)
    for d_index, dist in enumerate(dist_sites):
        ports = list(dist.uplink_ports)
        for access in access_sites[d_index]:
            builder.link(access, access.uplink_ports[0], dist, ports.pop(0))
        builder.link(dist, ports.pop(0), core, core.uplink_ports[d_index])
    return builder.fabric
