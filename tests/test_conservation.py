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

Set ``DIFFERENTIAL_SCALE=<n>`` to multiply the example count.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HarmlessFleet
from repro.fabric import campus_fabric, leaf_spine_fabric, ring_fabric

#: Example-count multiplier; the nightly extended job sets this to 5.
SCALE = max(1, int(os.environ.get("DIFFERENTIAL_SCALE", "1")))
EXAMPLES = 8

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

    def burst(src, dst, count):
        for index in range(count):
            src.send_udp(dst.ip, 9, index.to_bytes(2, "big") * 16)

    for src, offset, count, start in bursts:
        src_host = hosts[src % len(hosts)]
        dst_host = hosts[(src + 1 + offset % (len(hosts) - 1)) % len(hosts)]
        sim.schedule(start, burst, src_host, dst_host, count)
    sim.run_until_idle()

    sent = sum(count for _, _, count, _ in bursts)
    received = sum(len(host.udp_received) for host in hosts) - received_before
    assert sent == received + drops(fabric, fleet) - dropped_before, (sent, received)
