"""Network-wide HARMLESS rollout: migrate a whole fabric, wave by wave.

Builds a leaf-spine campus fabric (4 legacy edge switches x 2 hosts
behind 1 spine), plans a HARMLESS-waves migration over it, then
*executes* the plan mid-simulation: each wave migrates two switches
behind HARMLESS servers while the rest keep bridging, and an all-pairs
ping sweep after every wave proves the hybrid network never lost
connectivity.  At the end every frame between pods crosses three
software datapaths and the controller sees a 5-switch OpenFlow network
it believes is native SDN hardware.

Run:  python examples/fabric_rollout.py
"""

from repro.core import HarmlessFleet
from repro.fabric import leaf_spine_fabric


def main() -> None:
    # --- the legacy estate: 4 edge switches + 1 spine, 8 hosts ---------
    fabric = leaf_spine_fabric(edges=4, spines=1, hosts_per_edge=2)
    print(fabric.describe())

    # --- plan the rollout: waves of 2, edge tier first -----------------
    fleet = HarmlessFleet(fabric, wave_size=2)
    print()
    print(fleet.plan.describe())

    # --- baseline: the pure-legacy fabric is connected -----------------
    print()
    baseline = fleet.verify_reachability()
    print(f"before any migration: {baseline.describe()}")
    sample_host = fabric.hosts[0]
    legacy_rtt = sample_host.rtts()[-1] if sample_host.rtts() else None

    # --- execute: migrate wave by wave, verifying after each -----------
    while not fleet.complete:
        report = fleet.migrate_next_wave(verify=True)
        print(report.describe())
    print()
    print(fleet.describe())

    # --- read-back validation + datapath statistics --------------------
    problems = fleet.verify_deployments()
    print(f"\nper-site config read-back: {'OK' if not problems else problems}")

    print("\nmigrated datapaths (frames compiled / interpreted per hop):")
    for name, deployment in fleet.deployments.items():
        ss1 = deployment.s4.ss1.stats()["specialization"]
        ss2 = deployment.s4.ss2.stats()["specialization"]
        print(
            f"  {name:<8s} dpid={deployment.datapath.dpid:#6x}  "
            f"SS_1 {ss1['specialized_frames']:>4} / {ss1['fallback_frames']:<4}  "
            f"SS_2 {ss2['specialized_frames']:>4} / {ss2['fallback_frames']}"
        )

    if legacy_rtt is not None and sample_host.rtts():
        print(
            f"\n{sample_host.name} cross-pod RTT: {legacy_rtt * 1e6:.0f}us legacy"
            f" -> {sample_host.rtts()[-1] * 1e6:.0f}us via 3 migrated hops"
        )
    total_packet_ins = sum(
        getattr(app, "packet_ins_handled", 0) for app in fleet.controller.apps
    )
    print(f"controller packet-ins over the whole rollout: {total_packet_ins}")


if __name__ == "__main__":
    main()
