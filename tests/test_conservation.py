"""Conservation: every datagram a host sends is received or counted dropped.

The network-wide law, once the simulator drains::

    sent == received + Σ drops[reason]

*sent* counts the UDP datagrams the hosts' applications sent, *received*
the ones a host's UDP stack took in, and the sum runs over every
producer of a ``drops`` dict: each ``LegacySwitch``, every ``Port``,
both directions of every ``Link``, the two ``SoftSwitch``es of every
S4, every ``Host`` and every ``ControllerChannel``.

Each example builds one of the three fabric builders, unmigrated or
after ``HarmlessFleet.migrate_all``, teaches it every host with an
all-pairs ping (the FDBs, the hosts' ARP caches, the learning switch's
flows), then plays random unicast UDP bursts between random host pairs,
with no faults.  A warm fabric neither floods nor copies a unicast
frame, so each datagram is received once or dies once; a burst longer
than a link's queue makes the drops real.

Under faults (``test_every_frame_is_accounted_under_faults``) the same
examples also draw a :class:`~repro.netsim.FaultInjector` plan — link
flaps, cut-and-restore, legacy switch crashes, and, once migrated, site
crashes and controller-channel loss — plus a broadcast storm from a
host.  A flushed FDB floods, and a flood makes copies, so the law
checked there, over the measured window once the simulator drains, is::

    sent + storm frames + Σ_switching nodes (emitted − taken in)
        == received + Σ drops[reason] over every Port, Link direction and Host

where the storm frames are ``storm_frames_sent + storm_frames_lost``
(a frame its port or link refused is counted dropped there), and a
switching node (each ``LegacySwitch`` and S4 ``SoftSwitch``)
*emitted* what its ports sent or refused (``tx_frames + tx_dropped``)
and *took in* what its ports handed it (``rx_frames``).  Whatever a
switch floods, drops, sends to or receives from its controller is in
that difference; every frame on a wire, at a port or at a host must
land or be counted dropped.

Set ``DIFFERENTIAL_SCALE=<n>`` to multiply the example count.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HarmlessFleet
from repro.netsim import FaultInjector
from repro.fabric import campus_fabric, leaf_spine_fabric, ring_fabric

from differential import SCALE

EXAMPLES = 8
FAULT_EXAMPLES = 6

FABRICS = {
    "leaf-spine": lambda: leaf_spine_fabric(edges=3, spines=1, hosts_per_edge=2),
    "ring": lambda: ring_fabric(switches=3, hosts_per_switch=2),
    "campus": lambda: campus_fabric(distribution=2, access_per_distribution=1, hosts_per_access=2),
}

#: (source, destination offset, datagrams, start in simulated s); the
#: destination is the host *offset* places after the source, never it.
BURSTS = st.lists(
    st.tuples(
        st.integers(0, 63),
        st.integers(0, 63),
        st.integers(1, 300),
        st.sampled_from([0.0, 1e-5, 1e-3]),
    ),
    min_size=1,
    max_size=6,
)


def warm(fabric) -> None:
    """Every host pings every other, and the simulator drains."""
    for src in fabric.hosts:
        for dst in fabric.hosts:
            if src is not dst:
                src.ping(dst.ip)
    fabric.sim.run_until_idle()


def send(src, dst, count) -> None:
    for index in range(count):
        src.send_udp(dst.ip, 9, index.to_bytes(2, "big") * 16)


def drops(fabric, fleet) -> int:
    """Σ drops[reason] over every producer in the fabric."""
    nodes = [*fabric.hosts, *(site.switch for site in fabric.sites.values())]
    channels = []
    if fleet is not None:
        for deployment in fleet.deployments.values():
            nodes += [deployment.s4.ss1, deployment.s4.ss2]
        channels = [datapath.channel for datapath in fleet.controller.datapaths.values()]
    ports = [port for node in nodes for port in node.iter_ports()]
    links = {id(port.link): port.link for port in ports if port.link is not None}
    directions = [
        link.direction(end) for link in links.values() for end in (link.port_a, link.port_b)
    ]
    return sum(
        sum(producer.drops.values()) for producer in (*nodes, *ports, *directions, *channels)
    )


@pytest.mark.parametrize("migrated", [False, True], ids=["legacy", "migrated"])
@pytest.mark.parametrize("fabric_name", list(FABRICS))
@settings(max_examples=EXAMPLES * SCALE, deadline=None)
@given(bursts=BURSTS)
def test_every_datagram_is_received_or_counted_dropped(fabric_name, migrated, bursts):
    fabric = FABRICS[fabric_name]()
    fleet = None
    if migrated:
        fleet = HarmlessFleet(fabric, wave_size=2)
        fleet.migrate_all(verify=False)
        assert fleet.complete
    warm(fabric)
    hosts, sim = fabric.hosts, fabric.sim
    received_before = sum(len(host.udp_received) for host in hosts)
    dropped_before = drops(fabric, fleet)

    for src, offset, count, start in bursts:
        src_host = hosts[src % len(hosts)]
        dst_host = hosts[(src + 1 + offset % (len(hosts) - 1)) % len(hosts)]
        sim.schedule(start, send, src_host, dst_host, count)
    sim.run_until_idle()

    sent = sum(count for _, _, count, _ in bursts)
    received = sum(len(host.udp_received) for host in hosts) - received_before
    assert sent == received + drops(fabric, fleet) - dropped_before, (sent, received)


#: One fault: (kind, target index, start offset in s, hold in s).
FAULTS = st.lists(
    st.tuples(
        st.sampled_from(["flap", "cut", "switch_crash", "deployment_crash",
                         "controller_loss", "storm"]),
        st.integers(0, 63),
        st.sampled_from([0.0, 5e-5, 1e-3]),
        st.sampled_from([1e-4, 1e-3, 5e-3]),
    ),
    min_size=1,
    max_size=4,
)


def plan_faults(injector, fabric, fleet, faults) -> None:
    """Schedule *faults* from now on; a kind the fabric has nothing to
    aim at (a site crash or a lost channel before migration) is skipped."""
    now = fabric.sim.now
    links = sorted(all_links(fabric, fleet), key=lambda link: link.name)
    switches = [site.switch for site in fabric.sites.values()]
    deployments = list(fleet.deployments.values()) if fleet else []
    channels = [d.channel for d in fleet.controller.datapaths.values()] if fleet else []
    for kind, index, at, hold in faults:
        at += now
        if kind == "flap":
            injector.link_flap(links[index % len(links)], at, hold)
        elif kind == "cut":
            link = links[index % len(links)]
            injector.cut_link(link, at)
            injector.restore_link(link, at + hold)
        elif kind == "switch_crash":
            injector.switch_crash(switches[index % len(switches)], at, hold)
        elif kind == "deployment_crash" and deployments:
            deployment = deployments[index % len(deployments)]
            injector.deployment_crash(deployment, fleet.controller, at, hold)
        elif kind == "controller_loss" and channels:
            injector.controller_loss(channels[index % len(channels)], at, hold)
        elif kind == "storm":
            host = fabric.hosts[index % len(fabric.hosts)]
            injector.storm(host.port0, at, hold, rate_fps=20_000, burst=4)


def switching_nodes(fabric, fleet) -> list:
    nodes = [site.switch for site in fabric.sites.values()]
    if fleet is not None:
        for deployment in fleet.deployments.values():
            nodes += [deployment.s4.ss1, deployment.s4.ss2]
    return nodes


def all_links(fabric, fleet) -> list:
    ports = [port for node in [*fabric.hosts, *switching_nodes(fabric, fleet)]
             for port in node.iter_ports()]
    return list({id(port.link): port.link for port in ports if port.link is not None}.values())


def ledger(fabric, fleet) -> "tuple[int, int, int]":
    """(received, Σ_switching nodes (emitted − taken in), Σ drops over
    ports, link directions and hosts)."""
    switches = switching_nodes(fabric, fleet)
    ports = [port for node in [*fabric.hosts, *switches] for port in node.iter_ports()]
    directions = [link.direction(end) for link in all_links(fabric, fleet)
                  for end in (link.port_a, link.port_b)]
    received = sum(len(host.udp_received) for host in fabric.hosts)
    net = sum(port.tx_frames + port.tx_dropped - port.rx_frames
              for node in switches for port in node.iter_ports())
    dropped = sum(sum(producer.drops.values())
                  for producer in (*fabric.hosts, *ports, *directions))
    return received, net, dropped


@pytest.mark.parametrize("migrated", [False, True], ids=["legacy", "migrated"])
@pytest.mark.parametrize("fabric_name", list(FABRICS))
@settings(max_examples=FAULT_EXAMPLES * SCALE, deadline=None)
@given(bursts=BURSTS, faults=FAULTS)
def test_every_frame_is_accounted_under_faults(fabric_name, migrated, bursts, faults):
    fabric = FABRICS[fabric_name]()
    fleet = None
    if migrated:
        fleet = HarmlessFleet(fabric, wave_size=2)
        fleet.migrate_all(verify=False)
    warm(fabric)
    hosts, sim = fabric.hosts, fabric.sim
    before = ledger(fabric, fleet)
    injector = FaultInjector(sim)
    plan_faults(injector, fabric, fleet, faults)
    for src, offset, count, start in bursts:
        src_host = hosts[src % len(hosts)]
        dst_host = hosts[(src + 1 + offset % (len(hosts) - 1)) % len(hosts)]
        sim.schedule(start, send, src_host, dst_host, count)
    sim.run_until_idle()

    received, net, dropped = (after - was for after, was in zip(ledger(fabric, fleet), before))
    sent = sum(count for _, _, count, _ in bursts)
    # A storm frame the port or link refused is counted dropped there.
    injected = sent + injector.storm_frames_sent + injector.storm_frames_lost
    assert injected + net == received + dropped, (injected, net, received, dropped, injector.log)
