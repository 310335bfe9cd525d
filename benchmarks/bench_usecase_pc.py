"""UC-PC — use case (c): parental control with mid-stream rule flips.

A user x site blocking matrix enforced at DNS resolution time, plus L3
drops once addresses are learned; then mid-run block/unblock flips
("deny access ... on-the-fly").
"""

from repro.apps import LearningSwitchApp, ParentalControlApp
from repro.net import IPv4Address
from repro.net.build import udp_frame
from repro.net.dns import DNS_RCODE_REFUSED, DnsMessage, DnsResourceRecord

from common import (
    build_harmless_site,
    measure_usecase_datapath,
    render_usecase_datapath,
    save_json,
    save_result,
)

USERS = 3
SITES = ["news.example", "games.example", "video.example"]
ZONE = {name: IPv4Address(f"10.0.0.{200 + i}") for i, name in enumerate(SITES)}


def build(return_deployment=False):
    pc = ParentalControlApp()
    sim, hosts, deployment, _ = build_harmless_site(
        USERS + 1, apps_factory=lambda: [pc, LearningSwitchApp()]
    )
    users = hosts[:USERS]
    resolver = hosts[USERS]

    def dns_server(host, src_ip, src_port, dst_port, payload):
        query = DnsMessage.from_bytes(payload)
        name = query.questions[0].name
        if name in ZONE:
            response = query.make_response(
                [DnsResourceRecord.a_record(name, ZONE[name])]
            )
        else:
            response = query.make_response(rcode=3)
        host.send_udp(src_ip, src_port, response.to_bytes(), src_port=53)

    resolver.serve_udp(53, dns_server)
    if return_deployment:
        return sim, users, resolver, pc, deployment
    return sim, users, resolver, pc


def resolve(user, resolver, name, txid, results):
    def on_reply(h, src_ip, src_port, dst_port, payload):
        results.append((user.name, name, DnsMessage.from_bytes(payload).rcode))

    user.serve_udp(5353, on_reply)
    user.send_udp(resolver.ip, 53, DnsMessage.query(txid, name).to_bytes(), src_port=5353)


def run_matrix():
    sim, users, resolver, pc = build()
    # Block matrix: user i blocked from site i.
    for index, user in enumerate(users):
        pc.block(user.ip, SITES[index])
    results = []
    txid = 0
    delay = 0.1
    for user in users:
        for site in SITES:
            txid += 1
            sim.schedule(
                delay,
                lambda u=user, s=site, t=txid: resolve(u, resolver, s, t, results),
            )
            delay += 0.05
    sim.run(until=delay + 3.0)
    refused = [(u, s) for u, s, rcode in results if rcode == DNS_RCODE_REFUSED]
    resolved = [(u, s) for u, s, rcode in results if rcode == 0]
    return results, refused, resolved


def make_datapath_rig(specialize: bool):
    """The PC pipeline as a datapath workload: once site addresses are
    learned and blocks installed, enforcement is pure L3 drop rules on
    the migrated switch — fully compilable (the DNS packet-in rules
    compile too, and the measured traffic never hits them).  L4
    ports vary per packet, so the compiled tier's L3-only shrunk key
    coalesces what the interpreted full-key cache cannot."""
    sim, users, resolver, pc, deployment = build(return_deployment=True)
    results = []
    for txid, site in enumerate(SITES):
        resolve(users[0], resolver, site, txid + 1, results)  # learn the IPs
    sim.run(until=sim.now + 2.0)
    for user in users:
        for site in SITES:
            pc.block(user.ip, site)
    sim.run(until=sim.now + 0.5)
    switch = deployment.s4.ss2
    switch.specialize = specialize
    # 16_384 distinct source ports: longer than any measured run, so
    # the interpreted full-key cache never sees a repeated frame.
    stream = []
    for index in range(16_384):
        user = users[index % len(users)]
        site_ip = ZONE[SITES[(index // len(users)) % len(SITES)]]
        sport = 1024 + (index * 17) % 16_384
        stream.append(
            udp_frame(user.mac, resolver.mac, user.ip, site_ip, sport, 8080, b"x")
        )
    return sim, switch, stream, 1


def run_datapath_suite(packets: int = 12_000) -> list:
    return measure_usecase_datapath("usecase_pc", make_datapath_rig, packets)


def test_datapath_runs_compiled():
    """The L3 enforcement rules compile and serve the steady (blocked)
    traffic from tier 0."""
    rows = run_datapath_suite(packets=3_000)
    specialized = rows[1]
    assert specialized["compiles"] >= 1
    assert specialized["specialized_share"] > 0.5
    assert specialized["speedup_vs_interpreted"] > 0


def test_blocking_matrix(benchmark):
    results, refused, resolved = benchmark(run_matrix)
    lines = [
        "=" * 72,
        f"UC-PC: parental control, {USERS} users x {len(SITES)} sites",
        "=" * 72,
        f"lookups answered: {len(results)} / {USERS * len(SITES)}",
        f"refused (policy hits): {sorted(refused)}",
        f"resolved: {len(resolved)}",
    ]
    save_result("usecase_pc", "\n".join(lines))
    assert len(results) == USERS * len(SITES)
    # Exactly the diagonal is refused.
    assert sorted(refused) == sorted(
        (f"h{i + 1}", SITES[i]) for i in range(USERS)
    )
    assert len(resolved) == USERS * len(SITES) - USERS


def test_on_the_fly_flip(benchmark):
    """Block mid-run, then unblock: the demo's on-the-fly story."""

    def run():
        sim, users, resolver, pc = build()
        kid = users[0]
        outcomes = []
        results = []
        resolve(kid, resolver, SITES[0], 1, results)
        sim.run(until=2.0)
        outcomes.append(("before-block", results[-1][2]))
        pc.block(kid.ip, SITES[0])
        results2 = []
        resolve(kid, resolver, SITES[0], 2, results2)
        sim.run(until=4.0)
        outcomes.append(("after-block", results2[-1][2]))
        pc.unblock(kid.ip, SITES[0])
        results3 = []
        resolve(kid, resolver, SITES[0], 3, results3)
        sim.run(until=6.0)
        outcomes.append(("after-unblock", results3[-1][2]))
        return outcomes

    outcomes = benchmark(run)
    assert outcomes[0][1] == 0
    assert outcomes[1][1] == DNS_RCODE_REFUSED
    assert outcomes[2][1] == 0


def test_l3_drop_after_learning(benchmark):
    """Cached resolutions cannot bypass the filter once IPs are learned."""

    def run():
        sim, users, resolver, pc, deployment = build(return_deployment=True)
        kid, other = users[0], users[1]
        results = []
        resolve(other, resolver, SITES[1], 9, results)  # app learns the IP
        sim.run(until=2.0)
        pc.block(kid.ip, SITES[1])
        sim.run(until=2.5)
        # A drop flow for (kid -> site IP) must now sit on SS_2, scoped
        # to the kid alone.
        drops = []
        for table in deployment.s4.ss2.tables:
            for entry in table:
                src = entry.match.get("ipv4_src")
                dst = entry.match.get("ipv4_dst")
                if src and dst and not any(
                    True for i in entry.instructions for _ in getattr(i, "actions", ())
                ):
                    drops.append((src.value, dst.value))
        return drops, int(kid.ip), int(ZONE[SITES[1]]), int(other.ip)

    drops, kid_ip, site_ip, other_ip = benchmark(run)
    assert (kid_ip, site_ip) in drops
    assert all(src != other_ip for src, _ in drops)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI smoke: fewer packets"
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.fast else "full"
    rows = run_datapath_suite(packets=3_000 if args.fast else 12_000)
    save_result("usecase_pc_datapath", render_usecase_datapath("UC-PC", rows))
    save_json("usecase_pc", rows, mode)


if __name__ == "__main__":
    main()
