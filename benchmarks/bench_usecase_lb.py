"""UC-LB — use case (a): source-IP load balancing over HARMLESS.

Clients on a migrated legacy switch send web requests to a VIP; a
select group spreads them over backends by source IP.  Reports balance
quality (Jain fairness) under uniform and Zipf-skewed client activity
and verifies connection affinity.
"""

from repro.apps import ArpResponderApp, Backend, LearningSwitchApp, LoadBalancerApp
from repro.net import IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.traffic import zipf_weights

from common import (
    build_harmless_site,
    measure_usecase_datapath,
    render_usecase_datapath,
    save_json,
    save_result,
)

VIP = IPv4Address("10.0.0.100")
VIP_MAC = MACAddress("02:00:00:00:0f:00")
NUM_CLIENTS = 12
NUM_BACKENDS = 3


def jain_fairness(counts):
    total = sum(counts)
    if total == 0:
        return 0.0
    return total**2 / (len(counts) * sum(c * c for c in counts))


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

    def apps():
        return [
            ArpResponderApp(bindings={VIP: VIP_MAC}),
            LoadBalancerApp(vip=VIP, vip_mac=VIP_MAC, backends=lb_backends),
            LearningSwitchApp(),
        ]

    sim, hosts, deployment, _ = build_harmless_site(total, apps_factory=apps)
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


def test_datapath_runs_compiled():
    """The VIP/select-group pipeline compiles (select-bucket baking)
    and serves the steady client traffic from tier 0."""
    rows = run_datapath_suite(packets=3_000)
    specialized = rows[1]
    assert specialized["compiles"] >= 1
    assert specialized["specialized_share"] > 0.5
    assert specialized["speedup_vs_interpreted"] > 0


def test_load_balancer_uniform(benchmark):
    counts, offered = benchmark(run_workload)
    fairness = jain_fairness(counts)
    lines = [
        "=" * 72,
        "UC-LB: source-IP load balancing over HARMLESS (uniform clients)",
        "=" * 72,
        f"clients={NUM_CLIENTS} backends={NUM_BACKENDS} offered={offered}",
        f"per-backend deliveries: {counts}",
        f"Jain fairness: {fairness:.3f} (1.0 = perfect)",
    ]
    save_result("usecase_lb_uniform", "\n".join(lines))
    assert sum(counts) == offered  # nothing lost
    assert all(count > 0 for count in counts)  # every backend used
    assert fairness > 0.6  # hash-based spread, not perfect but balanced


def test_load_balancer_zipf(benchmark):
    weights = zipf_weights(NUM_CLIENTS, skew=1.2)
    counts, offered = benchmark(run_workload, weights)
    fairness = jain_fairness(counts)
    lines = [
        "=" * 72,
        "UC-LB: source-IP load balancing (Zipf-skewed client activity)",
        "=" * 72,
        f"per-backend deliveries: {counts}",
        f"Jain fairness: {fairness:.3f}",
        "note: source-IP hashing pins heavy hitters, so skewed client",
        "activity shows up as backend imbalance (the known trade-off of",
        "the paper's source-IP scheme vs 5-tuple hashing)",
    ]
    save_result("usecase_lb_zipf", "\n".join(lines))
    assert sum(counts) == offered
    assert jain_fairness(counts) > 0.3  # degraded but functional


def test_affinity_preserved(benchmark):
    def run():
        sim, clients, backends, _ = build(num_clients=4)
        for _ in range(6):
            clients[0].send_udp(VIP, 80, b"GET /same")
        sim.run(until=3.0)
        return [len(b.udp_received) for b in backends]

    counts = benchmark(run)
    assert sorted(counts)[-1] == 6  # all six on one backend
    assert sum(counts) == 6


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
