"""UC-PC — use case (c): parental control with mid-stream rule flips.

A user x site blocking matrix enforced at DNS resolution time, plus L3
drops once addresses are learned; then mid-run block/unblock flips
("deny access ... on-the-fly").  ``build``, ``resolve`` and
``run_matrix`` are the scenario the ``UC-PC`` rows of
``tests/test_paper_claims.py`` check; ``main()`` times the enforcement
pipeline compiled vs interpreted for the CI regression gate.
"""

from repro.apps import LearningSwitchApp, ParentalControlApp
from repro.core.verify import build_harmless_site
from repro.net import IPv4Address
from repro.net.build import udp_frame
from repro.net.dns import DNS_RCODE_REFUSED, DnsMessage, DnsResourceRecord

from common import (
    measure_usecase_datapath,
    render_usecase_datapath,
    save_json,
    save_result,
)

USERS = 3
SITES = ["news.example", "games.example", "video.example"]
ZONE = {name: IPv4Address(f"10.0.0.{200 + i}") for i, name in enumerate(SITES)}


def build():
    pc = ParentalControlApp()
    sim, hosts, deployment, _ = build_harmless_site(
        USERS + 1, [pc, LearningSwitchApp()]
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
    return sim, users, resolver, pc, deployment


def resolve(user, resolver, name, txid, results):
    def on_reply(h, src_ip, src_port, dst_port, payload):
        results.append((user.name, name, DnsMessage.from_bytes(payload).rcode))

    user.serve_udp(5353, on_reply)
    user.send_udp(resolver.ip, 53, DnsMessage.query(txid, name).to_bytes(), src_port=5353)


def run_matrix():
    sim, users, resolver, pc, _ = build()
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
    sim, users, resolver, pc, deployment = build()
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
