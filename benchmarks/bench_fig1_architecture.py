"""FIG1 — Reproduce Figure 1: architecture, SS_1 flow table, worked example.

Regenerates the paper's figure content as text: the HARMLESS-S4
composite, the "Flow table of SS_1", and the green-dashed-arrow trace
of the DMZ example (Host 1 -> Host 2 permitted to talk only to each
other): tag 101 on ingress, pop at SS_1, policy at SS_2, push 102 on
the way back, untagged delivery at Host 2.
"""

from repro.apps import DmzPolicyApp, Vm
from repro.net import IPv4Address, MACAddress
from repro.netsim import Capture

from common import build_harmless_site, save_result


def make_dmz_apps():
    vms = [
        Vm(
            name=f"vm{i + 1}",
            ip=IPv4Address(f"10.0.0.{i + 1}"),
            mac=MACAddress(0x020000000001 + i),
            port=i + 1,
        )
        for i in range(4)
    ]
    return [DmzPolicyApp(vms=vms, allowed_pairs={("vm1", "vm2")})]


def run_fig1():
    sim, hosts, deployment, _ = build_harmless_site(4, apps_factory=make_dmz_apps)
    h1, h2, h3, h4 = hosts
    legacy = deployment.legacy_switch

    trunk_capture = Capture("trunk").attach(legacy.port(deployment.trunk_port))
    host_capture = Capture("host2").attach(h2.port0)

    h1.ping(h2.ip)  # the green dashed arrow
    h3.ping(h4.ip)  # denied by the DMZ policy
    sim.run(until=3.0)

    report = [
        "=" * 72,
        "FIG1: HARMLESS architecture reproduction",
        "=" * 72,
        deployment.describe(),
        "",
        deployment.s4.dump(),
        "",
        "-- trunk trace (tagged hairpin traffic) --",
        trunk_capture.format_trace(),
        "",
        "-- Host 2 access-port trace (untagged delivery) --",
        host_capture.format_trace(),
        "",
        f"DMZ result: h1<->h2 pings ok={len(h1.rtts())}, "
        f"h3->h4 lost={sum(1 for r in h3.ping_results if r.lost)}",
    ]
    text = "\n".join(report)

    vlans_on_trunk = {
        entry.frame.vlan_id for entry in trunk_capture if entry.frame.vlan
    }
    return text, {
        "h1_pings_ok": len(h1.rtts()),
        "h3_pings_lost": sum(1 for r in h3.ping_results if r.lost),
        "trunk_vlans": vlans_on_trunk,
        "host2_saw_tags": any(e.frame.vlan for e in host_capture),
        "port_map_vlans": set(deployment.port_map.vlans),
    }


def test_fig1_architecture(benchmark):
    text, checks = benchmark(run_fig1)
    save_result("fig1_architecture", text)
    # The worked example holds: permitted pair talks, denied pair doesn't.
    assert checks["h1_pings_ok"] == 1
    assert checks["h3_pings_lost"] == 1
    # Tagging and hairpinning visible on the trunk, invisible to hosts.
    assert checks["trunk_vlans"] <= checks["port_map_vlans"]
    assert len(checks["trunk_vlans"]) >= 2  # both directions tagged
    assert not checks["host2_saw_tags"]
