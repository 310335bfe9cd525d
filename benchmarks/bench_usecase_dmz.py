"""UC-DMZ — use case (b): multi-tenant VM access policies.

N tenants x M VMs on a migrated switch, intra-tenant traffic allowed,
cross-tenant denied.  ``run_matrix`` is the scenario the ``UC-DMZ``
rows of ``tests/test_paper_claims.py`` check (exactly the tenant pairs
answer, in both directions); ``main()`` times the policy pipeline
compiled vs interpreted for the CI regression gate.
"""

import itertools

from repro.apps import DmzPolicyApp, Vm
from repro.core.verify import build_harmless_site
from repro.net import IPv4Address, MACAddress
from repro.net.build import udp_frame

from common import (
    measure_usecase_datapath,
    render_usecase_datapath,
    save_json,
    save_result,
)

TENANTS = 3
VMS_PER_TENANT = 2


def tenant_pairs() -> "set[tuple[str, str]]":
    """Every pair of VMs of one tenant, once: the allowed pairs."""
    return {
        pair
        for tenant in range(TENANTS)
        for pair in itertools.combinations(
            [f"t{tenant}vm{m}" for m in range(VMS_PER_TENANT)], 2
        )
    }


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
    dmz = DmzPolicyApp(vms=vms, allowed_pairs=tenant_pairs())
    sim, hosts, deployment, _ = build_harmless_site(total, [dmz])
    return sim, hosts, deployment, dmz


def run_matrix() -> "set[tuple[str, str]]":
    """Every ordered VM pair pings once; the ``(src, dst)`` VM names of
    the pings that were answered."""
    sim, hosts, _, dmz = build()
    vm_of = {vm.ip: name for name, vm in dmz.vms.items()}
    pings = []
    delay = 0.0
    for src in hosts:
        for dst in hosts:
            if src is dst:
                continue
            sim.schedule(delay, lambda s=src, d=dst: pings.append((s, d, s.ping(d.ip))))
            delay += 0.005
    sim.run(until=delay + 3.0)
    return {(vm_of[src.ip], vm_of[dst.ip]) for src, dst, result in pings if not result.lost}


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
