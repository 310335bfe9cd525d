"""UC-LB — use case (a): source-IP load balancing over HARMLESS.

Clients on a migrated legacy switch send web requests to a VIP; a
select group spreads them over backends by source IP.  ``build`` and
``run_workload`` are the scenario the ``UC-LB`` rows of
``tests/test_paper_claims.py`` check (balance under uniform and
Zipf-skewed client activity, connection affinity); ``main()`` times
the VIP pipeline compiled vs interpreted for the CI regression gate.
"""

from repro.apps import ArpResponderApp, Backend, LearningSwitchApp, LoadBalancerApp
from repro.core.verify import build_harmless_site
from repro.net import IPv4Address, MACAddress
from repro.net.build import udp_frame

from common import (
    measure_usecase_datapath,
    render_usecase_datapath,
    save_json,
    save_result,
)

VIP = IPv4Address("10.0.0.100")
VIP_MAC = MACAddress("02:00:00:00:0f:00")
NUM_CLIENTS = 12
NUM_BACKENDS = 3


def build(num_clients=NUM_CLIENTS, num_backends=NUM_BACKENDS):
    total = num_clients + num_backends
    lb_backends = [
        Backend(
            ip=IPv4Address(f"10.0.0.{num_clients + 1 + i}"),
            mac=MACAddress(0x020000000001 + num_clients + i),
            port=num_clients + 1 + i,
        )
        for i in range(num_backends)
    ]
    apps = [
        ArpResponderApp(bindings={VIP: VIP_MAC}),
        LoadBalancerApp(vip=VIP, vip_mac=VIP_MAC, backends=lb_backends),
        LearningSwitchApp(),
    ]
    sim, hosts, deployment, _ = build_harmless_site(total, apps)
    deployment.s4.ss2.select_hash_fields = ("ipv4_src",)
    clients = hosts[:num_clients]
    backends = hosts[num_clients:]
    for backend in backends:
        backend.serve_udp(80, lambda h, ip, sp, dp, pl: None)
    return sim, clients, backends, deployment


def run_workload(weights=None, requests_per_client=4):
    sim, clients, backends, _ = build()
    weights = weights or [1.0] * len(clients)
    for client, weight in zip(clients, weights):
        count = max(1, round(requests_per_client * weight * len(clients)))
        for index in range(count):
            sim.schedule(
                0.01 * index, lambda c=client: c.send_udp(VIP, 80, b"GET /")
            )
    sim.run(until=5.0)
    counts = [len(backend.udp_received) for backend in backends]
    offered = sum(
        max(1, round(requests_per_client * w * len(clients))) for w in weights
    )
    return counts, offered


def make_datapath_rig(specialize: bool):
    """The LB pipeline as a datapath workload: client requests to the
    VIP, spread over backends by the select group's source-IP hash.
    The VIP rule matches L3 only and the hash reads ``ipv4_src``, so
    the compiled tier bakes one bucket choice per client into its
    shrunk-key cache while the interpreter classifies and hashes every
    packet."""
    sim, clients, backends, deployment = build()
    switch = deployment.s4.ss2
    switch.specialize = specialize
    # 16_384 distinct source ports: longer than any measured run, so
    # the interpreted full-key cache never sees a repeated frame.
    stream = []
    for index in range(16_384):
        client = clients[index % len(clients)]
        sport = 1024 + (index * 11) % 16_384
        stream.append(
            udp_frame(client.mac, VIP_MAC, client.ip, VIP, sport, 80, b"GET /")
        )
    return sim, switch, stream, 1


def run_datapath_suite(packets: int = 12_000) -> list:
    return measure_usecase_datapath("usecase_lb", make_datapath_rig, packets)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI smoke: fewer packets"
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.fast else "full"
    rows = run_datapath_suite(packets=3_000 if args.fast else 12_000)
    save_result("usecase_lb_datapath", render_usecase_datapath("UC-LB", rows))
    save_json("usecase_lb", rows, mode)


if __name__ == "__main__":
    main()
