"""The paper's claims, checked in simulated time.

``CLAIMS`` has one row per claim this repository reproduces: its id,
where the paper makes it, the statement, a function that measures the
value in simulated units (dollars, simulated seconds, packets per
simulated second, counts) and the bound that value must meet.  No
measured value comes from the wall clock, so a row's outcome does not
depend on the machine.  The README's "Paper claims" table lists the same ids, and
``tools/docs_lint.py`` keeps the two in step.

The three use-case sites and their datapath rigs come from
:mod:`repro.core.verify`, which ``benchmarks/bench_tiers.py`` times
too; the scenarios that drive them live here.  The mid-wave fault comes
from ``tests/fault_scenarios.py``, beside the other fault rows, and
``XPAR-TRANSP`` reads the small transparency scope's single-entry
verdict from ``tests/transparency_scope.py``.
"""

import itertools
import statistics
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.apps import DmzPolicyApp, LearningSwitchApp, Vm
from repro.core import (
    HarmlessS4,
    MigrationPlanner,
    PortVlanMap,
    SwitchSite,
    TransparencyHarness,
)
from repro.core.translator import generate_translator_rules, verify_translator_rules
from repro.core.verify import (
    DMZ_TENANTS,
    DMZ_VMS_PER_TENANT,
    LB_CLIENTS,
    LB_VIP,
    PC_SITES,
    PC_USERS,
    PC_ZONE,
    build_dmz_site,
    build_harmless_site,
    build_ideal_site,
    build_lb_site,
    build_pc_site,
    dmz_datapath_rig,
    lb_datapath_rig,
    make_hosts,
    pc_datapath_rig,
    random_udp_traffic,
    resolve,
    run_datapath_pass,
)
from repro.costmodel import CostModel
from repro.legacy import LegacySwitch
from repro.net import IPv4Address, MACAddress
from repro.net.dns import DNS_RCODE_REFUSED
from repro.netsim import Capture, Link, Simulator
from repro.nfpa.harness import make_sink, measure_forwarding
from repro.openflow import ApplyActions, FlowMod, Match, OutputAction
from repro.softswitch import ESWITCH_COST_MODEL, SoftSwitch
from repro.traffic import make_flow_population, zipf_weights

from fault_scenarios import converged_as, midwave
from transparency_scope import EXECUTORS, FILTERED, single_entry_verdict


# ------------------------------------------------------------- CLAIM-COST

COST_PORT_COUNTS = [8, 16, 24, 48, 96, 192, 384]


def capex_sweep():
    """(ports, HARMLESS, COTS OpenFlow, pure software) capex in dollars,
    legacy gear owned, 4:1 oversubscription."""
    model = CostModel(legacy_owned=True, oversubscription=4.0)
    rows = []
    for ports in COST_PORT_COUNTS:
        comparison = model.compare(ports)
        rows.append(
            (
                ports,
                comparison["harmless"].total,
                comparison["cots-hardware"].total,
                comparison["pure-software"].total,
            )
        )
    return rows


def harmless_cheapest(rows):
    # The paper's claim at SME scale; and pure software loses on port
    # density everywhere beyond trivial sizes.
    return all(harmless < cots for ports, harmless, cots, _ in rows if ports <= 192) and all(
        harmless < pure for ports, harmless, _, pure in rows if ports >= 48
    )


def capex_sensitivity():
    """HARMLESS capex at 96 ports under three provisioning assumptions."""
    return {
        "owned,4:1": CostModel(True, 4.0).harmless(96).total,
        "owned,1:1": CostModel(True, 1.0).harmless(96).total,
        "greenfield,4:1": CostModel(False, 4.0).harmless(96).total,
    }


# ------------------------------------------------------------------ FIG1


def fig1_worked_example():
    """The DMZ example of Fig. 1: Host 1 and Host 2 may talk only to each
    other; the trunk and Host 2's access port are captured."""
    vms = [
        Vm(
            name=f"vm{i + 1}",
            ip=IPv4Address(f"10.0.0.{i + 1}"),
            mac=MACAddress(0x020000000001 + i),
            port=i + 1,
        )
        for i in range(4)
    ]
    policy = DmzPolicyApp(vms=vms, allowed_pairs={("vm1", "vm2")})
    sim, (h1, h2, h3, h4), deployment, _ = build_harmless_site(4, [policy])
    legacy = deployment.legacy_switch
    trunk_capture = Capture("trunk").attach(legacy.port(deployment.trunk_port))
    host_capture = Capture("host2").attach(h2.port0)
    h1.ping(h2.ip)  # the green dashed arrow
    h3.ping(h4.ip)  # denied by the DMZ policy
    sim.run(until=3.0)
    return {
        "h1_pings_ok": len(h1.rtts()),
        "h3_pings_lost": sum(1 for r in h3.ping_results if r.lost),
        "trunk_vlans": {e.frame.vlan_id for e in trunk_capture if e.frame.vlan},
        "host2_saw_tags": any(e.frame.vlan for e in host_capture),
        "port_map_vlans": set(deployment.port_map.vlans),
    }


def fig1_holds(checks):
    # The worked example holds: the permitted pair talks, the denied pair
    # does not; tagging and hairpinning are visible on the trunk (both
    # directions tagged) and invisible to hosts.
    return (
        checks["h1_pings_ok"] == 1
        and checks["h3_pings_lost"] == 1
        and checks["trunk_vlans"] <= checks["port_map_vlans"]
        and len(checks["trunk_vlans"]) >= 2
        and not checks["host2_saw_tags"]
    )


# -------------------------------------------------------------- CLAIM-LAT

PINGS = 30


def build_legacy_site(num_hosts):
    """The pre-migration baseline: the same hosts on the plain legacy switch."""
    sim = Simulator()
    legacy = LegacySwitch(
        sim, "edge", num_ports=num_hosts + 1, processing_delay_s=4e-6
    )
    hosts = make_hosts(sim, num_hosts)
    for index, host in enumerate(hosts):
        Link(host.port0, legacy.port(index + 1))
    return sim, hosts


def steady_rtt_means():
    """Mean steady-state ping RTT (simulated seconds) per site, after a
    warm-up ping primes ARP and the reactive flows."""
    sites = {
        "legacy-only": lambda: build_legacy_site(2),
        "harmless": lambda: build_harmless_site(2, [LearningSwitchApp()])[:2],
        "native-softswitch": lambda: build_ideal_site(2, [LearningSwitchApp()])[:2],
    }
    means = {}
    for kind, build in sites.items():
        sim, (h1, h2) = build()
        h1.ping(h2.ip)
        sim.run(until=sim.now + 2.0)
        for index in range(PINGS):
            sim.schedule(0.01 * index, lambda: h1.ping(h2.ip))
        sim.run(until=sim.now + 5.0)
        rtts = h1.rtts()[1:]  # drop the warm-up ping
        assert len(rtts) == PINGS
        means[kind] = statistics.fmean(rtts)
    return means


def first_and_second_rtt():
    """Two pings over a 500 us controller channel (simulated seconds)."""
    sim, (h1, h2), _, _ = build_harmless_site(
        2, [LearningSwitchApp()], controller_latency_s=500e-6
    )
    h1.ping(h2.ip)
    sim.run(until=2.0)
    h1.ping(h2.ip)
    sim.run(until=4.0)
    return h1.rtts()


# ------------------------------------------------------------- CLAIM-PERF

OFFERED_PPS = 500_000
PACKETS = 3_000
FLOWS = 16


def install_port_forward(switch, in_port, out_port):
    flow = FlowMod(
        match=Match(in_port=in_port),
        instructions=[ApplyActions(actions=(OutputAction(port=out_port),))],
        priority=100,
    )
    assert not switch.handle_message(flow.to_bytes())


def build_native_dut():
    """source -> SoftSwitch -> sink with a one-flow pipeline."""
    sim = Simulator()
    switch = SoftSwitch(sim, "native", datapath_id=1, cost_model=ESWITCH_COST_MODEL)
    sink = make_sink(sim, "native")
    switch.add_port(1)
    Link(switch.add_port(2), sink.add_port(1), bandwidth_bps=10e9)
    install_port_forward(switch, 1, 2)
    return sim, (lambda frame: switch.inject(frame, 1)), sink


def build_harmless_dut():
    """source -> legacy access 1 -> trunk -> S4 -> trunk -> access 2 -> sink."""
    sim = Simulator()
    legacy = LegacySwitch(sim, "legacy", num_ports=3, processing_delay_s=4e-6)
    config = legacy.config.copy()
    config.set_access(1, 101)
    config.set_access(2, 102)
    config.set_trunk(3, {101, 102})
    legacy.apply_config(config)
    s4 = HarmlessS4(
        sim, "s4", access_ports=[1, 2], datapath_id=2, cost_model=ESWITCH_COST_MODEL
    )
    Link(legacy.port(3), s4.trunk_port, bandwidth_bps=10e9)
    s4.install_translator(PortVlanMap({1: 101, 2: 102}))
    install_port_forward(s4.ss2, 1, 2)
    sink = make_sink(sim, "harmless")
    Link(legacy.port(2), sink.add_port(1), bandwidth_bps=10e9)
    return sim, (lambda frame: legacy.receive(legacy.port(1), frame)), sink


def forwarding_at_demo_load():
    """Loss and delivered pps at a demo-scale offered load (well under
    capacity, as in the paper's live demo), and the analytic single-core
    capacity of the native switch over that of HARMLESS."""
    results = {}
    for kind, build in (("native", build_native_dut), ("harmless", build_harmless_dut)):
        sim, ingress, sink = build()
        results[kind] = measure_forwarding(
            sim,
            kind,
            ingress,
            sink,
            make_flow_population(FLOWS, seed=42),
            packets_per_flow=PACKETS // FLOWS,
            interval_s=1.0 / OFFERED_PPS,
            payload_len=56,
        )
    native_capacity = ESWITCH_COST_MODEL.peak_pps(lookups=1, actions=1)
    harmless_capacity = 1.0 / (
        ESWITCH_COST_MODEL.cost_s(lookups=1, actions=2, vlan_ops=1, patch_hops=1)
        + ESWITCH_COST_MODEL.cost_s(lookups=1, actions=1, patch_hops=1)
        + ESWITCH_COST_MODEL.cost_s(lookups=1, actions=3, vlan_ops=1)
    )
    return {
        "native_loss": results["native"].loss_rate,
        "harmless_loss": results["harmless"].loss_rate,
        "native_pps": results["native"].delivered_pps,
        "harmless_pps": results["harmless"].delivered_pps,
        "capacity_ratio": native_capacity / harmless_capacity,
    }


def no_major_penalty(m):
    # At demo-scale load HARMLESS delivers everything the native switch
    # delivers, while the per-core ceiling honestly reflects the extra
    # walks.
    return (
        m["harmless_loss"] == 0.0
        and m["native_loss"] == 0.0
        and m["harmless_pps"] == pytest.approx(m["native_pps"], rel=0.05)
        and 1.5 < m["capacity_ratio"] < 6.0
    )


def capacity_by_pipeline_depth():
    """Single-core peak pps for goto-table chains of 1, 2, 4 and 8."""
    return [ESWITCH_COST_MODEL.peak_pps(lookups=depth, actions=1) for depth in (1, 2, 4, 8)]


# ----------------------------------------------------------------- XPAR-*

TRANSPARENCY_SEEDS = list(range(8))

FLEET = [
    SwitchSite(name=f"edge{i:02d}", ports=48 if i % 3 else 24, ports_in_use=20 + i % 16)
    for i in range(12)
]

TRANSLATOR_PORT_COUNTS = [4, 8, 16, 48, 128, 512]
#: Policy size assumed for the merged-pipeline ablation (rules a
#: typical controller program keeps per switch).
POLICY_RULES = 50


def transparency():
    """Seeds whose host observations are identical on HARMLESS and on an
    ideal OpenFlow switch, same learning-switch program and traffic; and
    per executor, the single-entry scope's mismatches and the plays the
    bridge filtered in part (``tests/transparency_scope.py``)."""
    measured = {
        "seeds": sum(
            TransparencyHarness(num_hosts=4, app_factory=lambda: [LearningSwitchApp()])
            .run(random_udp_traffic(seed=seed, num_messages=30))
            .equivalent
            for seed in TRANSPARENCY_SEEDS
        )
    }
    for executor in EXECUTORS:
        verdict = single_entry_verdict(executor)
        measured[executor] = (len(verdict.mismatches), verdict.filtered)
    return measured


def harmless_waves_dominate(plans):
    harmless = plans["harmless-waves"]
    cots = plans["incremental-cots"]
    flag_day = plans["flag-day"]
    curve = harmless.coverage_curve()
    return (
        harmless.total_capex < cots.total_capex
        and harmless.total_capex < flag_day.total_capex
        and harmless.total_downtime_s < flag_day.total_downtime_s
        and flag_day.max_single_downtime_s >= cots.max_single_downtime_s
        # Incremental strategies reach full coverage gradually.
        and len(curve) == 4
        and curve[-1][1] == sum(site.ports_in_use for site in FLEET)
    )


def translator_rule_counts():
    """(ports, SS_1 rules, merged-pipeline rules, rules verify) per size."""
    rows = []
    for ports in TRANSLATOR_PORT_COUNTS:
        port_map = PortVlanMap.allocate(list(range(1, ports + 1)))
        rules = generate_translator_rules(
            port_map,
            trunk_port=10_000,
            patch_port_of={p: p for p in port_map.ports},
        )
        # Merged ablation (no SS_1): every policy rule needs a
        # VLAN-qualified variant per port — a lower bound.
        merged_rules = POLICY_RULES * ports
        rows.append(
            (ports, len(rules.flow_mods), merged_rules, verify_translator_rules(rules).ok)
        )
    return rows


def fleet_vlans(num_switches=24, ports_each=48):
    """The VLAN ids several legacy switches on one server reserve."""
    reserved = set()
    for _ in range(num_switches):
        pmap = PortVlanMap.allocate(list(range(1, ports_each + 1)), reserved=reserved)
        reserved.update(pmap.vlans)
    return reserved


# ------------------------------------------------------------------- UC-*

#: One pass of the use-case datapath rigs.
RIG_PACKETS = 3_000


def compiled_rig(make_rig):
    """The compiled-tier counters of one specialized pass through the
    use case's installed pipeline."""
    return lambda: run_datapath_pass(make_rig(True), RIG_PACKETS)


def served_compiled(counters):
    return counters["compiles"] >= 1 and 0.5 < counters["specialized_share"] <= 1.0


def same_tenant_pairs():
    """Every ordered pair of distinct VMs whose ``t<N>`` tenant prefixes
    match: the answers the DMZ matrix must see, derived from the VM
    names rather than from the allowed pairs the app is configured with."""
    names = [
        f"t{tenant}vm{member}"
        for tenant in range(DMZ_TENANTS)
        for member in range(DMZ_VMS_PER_TENANT)
    ]
    return {
        (a, b)
        for a in names
        for b in names
        if a != b and a.split("vm")[0] == b.split("vm")[0]
    }


def dmz_matrix() -> "set[tuple[str, str]]":
    """Every ordered VM pair pings once; the ``(src, dst)`` VM names of
    the pings that were answered."""
    sim, hosts, _, dmz = build_dmz_site()
    vm_of = {vm.ip: name for name, vm in dmz.vms.items()}
    pings = []
    delay = 0.0
    for src, dst in itertools.permutations(hosts, 2):
        sim.schedule(delay, lambda s=src, d=dst: pings.append((s, d, s.ping(d.ip))))
        delay += 0.005
    sim.run(until=delay + 3.0)
    return {(vm_of[src.ip], vm_of[dst.ip]) for src, dst, result in pings if not result.lost}


def dmz_runtime_flip():
    """A cross-tenant pair before an allow, after it, and after a revoke."""
    sim, hosts, deployment, policy = build_dmz_site()
    datapath = deployment.datapath
    a, b = hosts[0], hosts[2]  # different tenants
    a.ping(b.ip)
    sim.run(until=2.0)
    denied_before = a.ping_loss_rate == 1.0
    policy.allow(datapath, "t0vm0", "t1vm0")
    sim.run(until=2.2)
    a.ping(b.ip)
    sim.run(until=4.0)
    allowed_after = len(a.rtts()) == 1
    policy.revoke(datapath, "t0vm0", "t1vm0")
    sim.run(until=4.4)
    a.ping(b.ip)
    sim.run(until=7.0)
    denied_again = len(a.rtts()) == 1
    return {
        "denied_before": denied_before,
        "allowed_after": allowed_after,
        "denied_again": denied_again,
    }


def jain_fairness(counts):
    total = sum(counts)
    if total == 0:
        return 0.0
    return total**2 / (len(counts) * sum(c * c for c in counts))


def lb_balance(weights=None):
    """Requests per backend, requests offered and Jain fairness (1.0 is
    perfect) for clients weighted by *weights* (uniform by default):
    about four requests per client, at least one each."""
    sim, clients, backends, _ = build_lb_site()
    weights = weights or [1.0] * len(clients)
    offered = 0
    for client, weight in zip(clients, weights):
        count = max(1, round(4 * weight * len(clients)))
        offered += count
        for index in range(count):
            sim.schedule(0.01 * index, lambda c=client: c.send_udp(LB_VIP, 80, b"GET /"))
    sim.run(until=5.0)
    counts = [len(backend.udp_received) for backend in backends]
    return {"counts": counts, "offered": offered, "fairness": jain_fairness(counts)}


def lb_affinity():
    """Requests per backend after one client sends six."""
    sim, clients, backends, _ = build_lb_site(num_clients=4)
    for _ in range(6):
        clients[0].send_udp(LB_VIP, 80, b"GET /same")
    sim.run(until=3.0)
    return [len(b.udp_received) for b in backends]


def pc_matrix():
    """The user x site lookup matrix with user i blocked from site i."""
    sim, users, resolver, pc, _ = build_pc_site()
    for user, site in zip(users, PC_SITES):
        pc.block(user.ip, site)
    results = []
    delay = 0.1
    for txid, (user, site) in enumerate(itertools.product(users, PC_SITES), 1):
        sim.schedule(delay, lambda u=user, s=site, t=txid: resolve(u, resolver, s, t, results))
        delay += 0.05
    sim.run(until=delay + 3.0)
    return {
        "answered": len(results),
        "refused": sorted((u, s) for u, s, rcode in results if rcode == DNS_RCODE_REFUSED),
        "resolved": sum(1 for _, _, rcode in results if rcode == 0),
    }


def pc_runtime_flip():
    """One user's lookup rcode before a block, after it, after an unblock."""
    sim, users, resolver, policy, _ = build_pc_site()
    kid, site = users[0], PC_SITES[0]

    def lookup(txid, until):
        results = []
        resolve(kid, resolver, site, txid, results)
        sim.run(until=until)
        return results[-1][2]

    before_block = lookup(1, 2.0)
    policy.block(kid.ip, site)
    after_block = lookup(2, 4.0)
    policy.unblock(kid.ip, site)
    after_unblock = lookup(3, 6.0)
    return {
        "before-block": before_block,
        "after-block": after_block,
        "after-unblock": after_unblock,
    }


def pc_l3_drops():
    """The (src, dst) L3 drop flows on SS_2 once a blocked site's address
    is learned from another user's lookup."""
    sim, users, resolver, policy, deployment = build_pc_site()
    kid, other = users[0], users[1]
    results = []
    resolve(other, resolver, PC_SITES[1], 9, results)  # the app learns the IP
    sim.run(until=2.0)
    policy.block(kid.ip, PC_SITES[1])
    sim.run(until=2.5)
    drops = []
    for table in deployment.s4.ss2.tables:
        for entry in table:
            src = entry.match.get("ipv4_src")
            dst = entry.match.get("ipv4_dst")
            if src and dst and not any(
                True for i in entry.instructions for _ in getattr(i, "actions", ())
            ):
                drops.append((src.value, dst.value))
    return {
        "drops": drops,
        "kid": int(kid.ip),
        "site": int(PC_ZONE[PC_SITES[1]]),
        "other": int(other.ip),
    }


# ------------------------------------------------------------------ table


@dataclass(frozen=True)
class Claim:
    id: str
    where: str
    statement: str
    measure: Callable[[], Any]
    bound: Callable[[Any], bool]


CLAIMS = [
    Claim(
        "CLAIM-COST-SWEEP", "abstract",
        "No substantial price tag: HARMLESS capex is below a COTS OpenFlow "
        "switch up to 192 ports and below pure software from 48 ports",
        capex_sweep, harmless_cheapest,
    ),
    Claim(
        "CLAIM-COST-SENS", "abstract",
        "Line-rate server provisioning and buying the legacy switch each "
        "raise HARMLESS capex at 96 ports",
        capex_sensitivity,
        lambda c: c["owned,1:1"] >= c["owned,4:1"] and c["greenfield,4:1"] > c["owned,4:1"],
    ),
    Claim(
        "CLAIM-LAT-RTT", "abstract",
        "No major latency penalty: HARMLESS adds microseconds of RTT over the "
        "legacy switch and stays within 10x of a native software switch",
        steady_rtt_means,
        lambda m: 0 < m["harmless"] - m["legacy-only"] < 100e-6
        and m["harmless"] < 10 * m["native-softswitch"],
    ),
    Claim(
        "CLAIM-LAT-FIRST", "abstract",
        "Only a flow's first packet pays the controller round trip",
        first_and_second_rtt,
        lambda rtts: len(rtts) == 2 and rtts[0] > rtts[1] and rtts[0] > 1e-3,
    ),
    Claim(
        "CLAIM-PERF-LOAD", "abstract",
        "No major performance penalty: at demo load HARMLESS loses nothing and "
        "delivers the native switch's rate; its per-core ceiling is 1.5-6x lower",
        forwarding_at_demo_load, no_major_penalty,
    ),
    Claim(
        "CLAIM-PERF-DEPTH", "abstract",
        "Single-core capacity falls as the goto-table chain deepens",
        capacity_by_pipeline_depth,
        lambda rates: all(earlier > later for earlier, later in zip(rates, rates[1:])),
    ),
    Claim(
        "XPAR-TRANSP", "Fig. 1",
        "A controller program cannot tell the migrated switch from an ideal "
        "OpenFlow switch: host observations are identical on every seed, and "
        "for every single-entry pipeline of the small scope on both executors, "
        "outside its documented OUT_OF_SCOPE boundary",
        transparency,
        lambda m: m["seeds"] == len(TRANSPARENCY_SEEDS)
        and all(m[executor] == (0, FILTERED) for executor in EXECUTORS),
    ),
    Claim(
        "XPAR-MIGR", "§1",
        "Migrating in HARMLESS waves beats a flag day and an incremental COTS "
        "rollout on capex and downtime, reaching full coverage in four waves",
        lambda: MigrationPlanner(FLEET).compare_all(wave_size=3),
        harmless_waves_dominate,
    ),
    Claim(
        "XPAR-MIDWAVE", "§1",
        "Migration stays harmless under a live fault: a trunk flaps while "
        "the remaining waves migrate, and the fabric is clean in the first "
        "0.25 s sweep after the restore, with no probe lost",
        midwave,
        lambda row: row["verified"] and converged_as(row, 0.25, 0, 1),
    ),
    Claim(
        "XPAR-SCALE-RULES", "Fig. 1",
        "SS_1 needs 2 verified rules per port, fewer than folding VLAN "
        "handling into the controller program",
        translator_rule_counts,
        lambda rows: all(
            ok and ss1_rules == 2 * ports and merged > ss1_rules
            for ports, ss1_rules, merged, ok in rows
        ),
    ),
    Claim(
        "XPAR-SCALE-VLANS", "Fig. 1",
        "One 4k VLAN space holds 24 legacy switches of 48 ports on one server",
        fleet_vlans,
        lambda reserved: len(reserved) == 24 * 48 and max(reserved) < 4094,
    ),
    Claim(
        "FIG1", "Fig. 1",
        "The worked example: tag on ingress, hairpin through SS_1/SS_2, "
        "untagged delivery; the permitted pair talks, the denied pair does not",
        fig1_worked_example, fig1_holds,
    ),
    Claim(
        "UC-LB-UNIFORM", "use case (a)",
        "Source-IP load balancing loses no request and uses every backend",
        lb_balance,
        lambda m: sum(m["counts"]) == m["offered"]
        and all(count > 0 for count in m["counts"])
        and m["fairness"] > 0.6,
    ),
    Claim(
        "UC-LB-ZIPF", "use case (a)",
        "Under Zipf-skewed clients nothing is lost and the spread degrades "
        "but holds",
        lambda: lb_balance(zipf_weights(LB_CLIENTS, skew=1.2)),
        lambda m: sum(m["counts"]) == m["offered"] and m["fairness"] > 0.3,
    ),
    Claim(
        "UC-LB-AFFINITY", "use case (a)",
        "One client's requests all land on one backend",
        lb_affinity,
        lambda counts: sorted(counts)[-1] == 6 and sum(counts) == 6,
    ),
    Claim(
        "UC-LB-COMPILED", "use case (a)",
        "The VIP/select-group pipeline compiles and serves steady traffic",
        compiled_rig(lb_datapath_rig), served_compiled,
    ),
    Claim(
        "UC-DMZ-MATRIX", "use case (b)",
        "Every ordered VM pair pings once: exactly the same-tenant pairs "
        "answer, in both directions",
        dmz_matrix,
        lambda answered: answered == same_tenant_pairs(),
    ),
    Claim(
        "UC-DMZ-FLIP", "use case (b)",
        "VM-level policy is fine-tuned at runtime: allow, then revoke",
        dmz_runtime_flip,
        lambda m: m["denied_before"] and m["allowed_after"] and m["denied_again"],
    ),
    Claim(
        "UC-DMZ-COMPILED", "use case (b)",
        "The policy pipeline compiles and serves steady traffic",
        compiled_rig(dmz_datapath_rig), served_compiled,
    ),
    Claim(
        "UC-PC-MATRIX", "use case (c)",
        "Each user is refused exactly the sites blocked for them",
        pc_matrix,
        lambda m: m["answered"] == PC_USERS * len(PC_SITES)
        and m["refused"] == sorted((f"h{i + 1}", PC_SITES[i]) for i in range(PC_USERS))
        and m["resolved"] == PC_USERS * len(PC_SITES) - PC_USERS,
    ),
    Claim(
        "UC-PC-FLIP", "use case (c)",
        "Access is denied and restored on the fly",
        pc_runtime_flip,
        lambda m: m["before-block"] == 0
        and m["after-block"] == DNS_RCODE_REFUSED
        and m["after-unblock"] == 0,
    ),
    Claim(
        "UC-PC-L3DROP", "use case (c)",
        "Once a site's address is learned, an L3 drop scoped to the blocked "
        "user stops cached lookups",
        pc_l3_drops,
        lambda m: (m["kid"], m["site"]) in m["drops"]
        and all(src != m["other"] for src, _ in m["drops"]),
    ),
    Claim(
        "UC-PC-COMPILED", "use case (c)",
        "The L3 enforcement pipeline compiles and serves steady traffic",
        compiled_rig(pc_datapath_rig), served_compiled,
    ),
]


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim):
    value = claim.measure()
    assert claim.bound(value), f"{claim.where}: {claim.statement}; measured {value!r}"
