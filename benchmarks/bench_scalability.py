"""XPAR-SCALE — translator scaling with port count.

Rule counts, setup time (simulated management-plane operations) and
the rule-count comparison against the merged-pipeline ablation (no
SS_1: VLAN handling folded into the controller program, costing
VLAN-aware copies of every policy rule).  No paper numbers; shape-only.
"""

import time


from repro.core import PortVlanMap
from repro.core.translator import generate_translator_rules, verify_translator_rules

from common import save_result

PORT_COUNTS = [4, 8, 16, 48, 128, 512]
#: Policy size assumed for the merged-pipeline ablation (rules a
#: typical controller program keeps per switch).
POLICY_RULES = 50


def translator_rule_counts():
    rows = []
    for ports in PORT_COUNTS:
        port_map = PortVlanMap.allocate(list(range(1, ports + 1)))
        started = time.perf_counter()
        rules = generate_translator_rules(
            port_map,
            trunk_port=10_000,
            patch_port_of={p: p for p in port_map.ports},
        )
        check = verify_translator_rules(rules)
        elapsed = time.perf_counter() - started
        assert check.ok
        # Merged ablation: every policy rule needs a VLAN-qualified
        # variant per port (match must include the tag), plus the
        # push/pop handling folded into each output — lower bound:
        merged_rules = POLICY_RULES * ports
        rows.append((ports, len(rules.flow_mods), merged_rules, elapsed))
    return rows


def test_translator_scaling(benchmark):
    rows = benchmark(translator_rule_counts)
    lines = [
        "=" * 72,
        "XPAR-SCALE: SS_1 rule count vs ports (and merged-pipeline ablation)",
        "=" * 72,
        f"{'ports':>6s} {'SS_1 rules':>11s} {'merged rules':>13s} {'gen+verify':>12s}",
    ]
    for ports, ss1_rules, merged, elapsed in rows:
        lines.append(
            f"{ports:6d} {ss1_rules:11d} {merged:13d} {elapsed * 1e3:10.2f}ms"
        )
    lines.append(
        "\nSS_1 grows 2 rules/port (linear, policy-independent); the merged"
        "\nvariant multiplies the *policy* by the port count — the reason"
        "\nthe paper separates SS_1 from SS_2."
    )
    save_result("scalability", "\n".join(lines))
    for ports, ss1_rules, merged, _ in rows:
        assert ss1_rules == 2 * ports
        assert merged > ss1_rules  # the ablation always loses


def test_many_switches_one_server(benchmark):
    """VLAN-space check: several legacy switches share one server."""

    def allocate_fleet(num_switches=24, ports_each=48):
        reserved = set()
        maps = []
        for _ in range(num_switches):
            pmap = PortVlanMap.allocate(
                list(range(1, ports_each + 1)), reserved=reserved
            )
            reserved.update(pmap.vlans)
            maps.append(pmap)
        return maps, reserved

    maps, reserved = benchmark(allocate_fleet)
    # All maps disjoint: one 4k VLAN space supports the whole fleet.
    assert len(reserved) == 24 * 48
    assert max(reserved) < 4094
