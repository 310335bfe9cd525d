"""UC-DMZ — use case (b): multi-tenant VM access policies.

N tenants x M VMs on a migrated switch, intra-tenant traffic allowed,
cross-tenant denied.  Reports enforcement correctness (no leaked
packet) and the rule-count footprint of the policy.
"""

import itertools


from repro.apps import DmzPolicyApp, Vm
from repro.net import IPv4Address, MACAddress
from repro.net.build import udp_frame

from common import (
    build_harmless_site,
    measure_usecase_datapath,
    render_usecase_datapath,
    save_json,
    save_result,
)

TENANTS = 3
VMS_PER_TENANT = 2


def build():
    total = TENANTS * VMS_PER_TENANT
    vms = []
    for tenant in range(TENANTS):
        for member in range(VMS_PER_TENANT):
            index = tenant * VMS_PER_TENANT + member
            vms.append(
                Vm(
                    name=f"t{tenant}vm{member}",
                    ip=IPv4Address(f"10.0.0.{index + 1}"),
                    mac=MACAddress(0x020000000001 + index),
                    port=index + 1,
                )
            )
    allowed = set()
    for tenant in range(TENANTS):
        members = [f"t{tenant}vm{m}" for m in range(VMS_PER_TENANT)]
        for a, b in itertools.combinations(members, 2):
            allowed.add((a, b))
    dmz = DmzPolicyApp(vms=vms, allowed_pairs=allowed)
    sim, hosts, deployment, _ = build_harmless_site(
        total, apps_factory=lambda: [dmz]
    )
    return sim, hosts, deployment, dmz


def run_matrix():
    sim, hosts, deployment, dmz = build()
    # Every ordered pair pings once.
    delay = 0.0
    for src in hosts:
        for dst in hosts:
            if src is dst:
                continue
            sim.schedule(delay, lambda s=src, d=dst: s.ping(d.ip))
            delay += 0.005
    sim.run(until=delay + 3.0)

    intra_ok = 0
    intra_total = 0
    leaks = 0
    cross_total = 0
    names = {host.name: i for i, host in enumerate(hosts)}
    for src in hosts:
        oks = len(src.rtts())
        total_pings = len(src.ping_results)
        same_tenant_targets = VMS_PER_TENANT - 1
        cross_targets = total_pings - same_tenant_targets
        intra_total += same_tenant_targets
        cross_total += cross_targets
        intra_ok += min(oks, same_tenant_targets)
        leaks += max(0, oks - same_tenant_targets)
    rules = sum(len(table) for table in deployment.s4.ss2.tables)
    return intra_ok, intra_total, leaks, cross_total, rules


def test_dmz_policy_matrix(benchmark):
    intra_ok, intra_total, leaks, cross_total, rules = benchmark(run_matrix)
    lines = [
        "=" * 72,
        f"UC-DMZ: {TENANTS} tenants x {VMS_PER_TENANT} VMs on HARMLESS",
        "=" * 72,
        f"intra-tenant pings delivered: {intra_ok}/{intra_total}",
        f"cross-tenant leaks: {leaks}/{cross_total}",
        f"flow rules installed on SS_2: {rules}",
    ]
    save_result("usecase_dmz", "\n".join(lines))
    assert intra_ok == intra_total  # policy permits what it should
    assert leaks == 0  # and nothing else


def make_datapath_rig(specialize: bool):
    """The DMZ pipeline as a datapath workload.

    Steady intra-tenant traffic through the proactively installed
    pair-allow rules, with the L4 ports varied per packet: the policy
    matches L3 only, so the compiled tier's shrunk flow key coalesces
    every port combination onto one cached decision per pair, while
    the interpreter classifies every packet — the miniflow-shrinking
    effect the compiled tier exists for."""
    sim, hosts, deployment, dmz = build()
    switch = deployment.s4.ss2
    switch.specialize = specialize
    pairs = []
    for a_name, b_name in sorted(dmz.allowed_pairs):
        a, b = dmz.vms[a_name], dmz.vms[b_name]
        pairs.append((a, b))
        pairs.append((b, a))
    # 16_384 distinct port combinations: longer than any measured run,
    # so the interpreted full-key cache never sees a repeated frame
    # (cycling a short stream would let it warm up and mask the
    # shrunk-key coalescing this bench measures).
    stream = []
    for index in range(16_384):
        a, b = pairs[index % len(pairs)]
        sport = 1024 + (index * 7) % 16_384
        dport = 2048 + (index * 13) % 16_384
        stream.append(udp_frame(a.mac, b.mac, a.ip, b.ip, sport, dport, b"x" * 32))
    return sim, switch, stream, 1


def run_datapath_suite(packets: int = 12_000) -> list:
    return measure_usecase_datapath("usecase_dmz", make_datapath_rig, packets)


def test_datapath_runs_compiled():
    """The policy pipeline compiles and serves the steady traffic from
    tier 0, with the compiled-vs-interpreted speedup recorded for the
    regression gate."""
    rows = run_datapath_suite(packets=3_000)
    specialized = rows[1]
    assert specialized["compiles"] >= 1
    assert specialized["specialized_share"] > 0.5
    assert specialized["speedup_vs_interpreted"] > 0


def test_dmz_runtime_policy_flip(benchmark):
    """Fine-tuning VM-level policies at runtime (the demo's pitch)."""

    def run():
        sim, hosts, deployment, dmz = build()
        datapath = deployment.datapath
        a, b = hosts[0], hosts[2]  # different tenants
        a.ping(b.ip)
        sim.run(until=2.0)
        denied_before = a.ping_loss_rate == 1.0
        dmz.allow(datapath, "t0vm0", "t1vm0")
        sim.run(until=2.2)
        a.ping(b.ip)
        sim.run(until=4.0)
        allowed_after = len(a.rtts()) == 1
        dmz.revoke(datapath, "t0vm0", "t1vm0")
        sim.run(until=4.4)
        a.ping(b.ip)
        sim.run(until=7.0)
        denied_again = len(a.rtts()) == 1
        return denied_before, allowed_after, denied_again

    denied_before, allowed_after, denied_again = benchmark(run)
    assert denied_before and allowed_after and denied_again


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI smoke: fewer packets"
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.fast else "full"
    rows = run_datapath_suite(packets=3_000 if args.fast else 12_000)
    save_result("usecase_dmz_datapath", render_usecase_datapath("UC-DMZ", rows))
    save_json("usecase_dmz", rows, mode)


if __name__ == "__main__":
    main()
