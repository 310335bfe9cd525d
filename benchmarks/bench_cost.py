"""CLAIM-COST — "nor any substantial price tag".

Capex per SDN-enabled port across port counts for the three
strategies, plus the HARMLESS-vs-COTS crossover search.  The expected
shape: HARMLESS wins clearly at SME port counts because the legacy
switches are already owned; the gap narrows under line-rate CPU
provisioning (no oversubscription) and when legacy gear must be bought.
"""

from repro.costmodel import CostModel

from common import save_result

PORT_COUNTS = [8, 16, 24, 48, 96, 192, 384]


def build_table(model):
    rows = []
    for ports in PORT_COUNTS:
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


def test_cost_sweep(benchmark):
    model = CostModel(legacy_owned=True, oversubscription=4.0)
    rows = benchmark(build_table, model)

    lines = [
        "=" * 72,
        "CLAIM-COST: capex per strategy (legacy owned, 4:1 oversubscription)",
        "=" * 72,
        f"{'ports':>6s} {'HARMLESS':>12s} {'COTS-OF':>12s} {'pure-SW':>12s}"
        f" {'HARMLESS $/port':>16s}",
    ]
    for ports, harmless, cots, pure in rows:
        lines.append(
            f"{ports:6d} {harmless:12,.0f} {cots:12,.0f} {pure:12,.0f}"
            f" {harmless / ports:16,.1f}"
        )
    crossover = model.crossover_vs_cots(max_ports=2048)
    lines.append(
        f"\nHARMLESS-vs-COTS crossover: "
        f"{'none up to 2048 ports' if crossover is None else f'{crossover} ports'}"
    )
    lines.append("\nitemised example at 96 ports (HARMLESS):")
    lines.append(model.harmless(96).breakdown.describe())
    save_result("cost", "\n".join(lines))

    # The paper's claim at SME scale.
    for ports, harmless, cots, pure in rows:
        if ports <= 192:
            assert harmless < cots, f"HARMLESS not cheaper at {ports} ports"
    # Pure software loses on port density everywhere beyond trivial sizes.
    for ports, harmless, _, pure in rows:
        if ports >= 48:
            assert harmless < pure


def test_sensitivity_to_assumptions(benchmark):
    """Ablations: oversubscription and legacy ownership move the needle."""

    def scenarios():
        return {
            "owned,4:1": CostModel(True, 4.0).harmless(96).total,
            "owned,1:1": CostModel(True, 1.0).harmless(96).total,
            "greenfield,4:1": CostModel(False, 4.0).harmless(96).total,
        }

    results = benchmark(scenarios)
    lines = [
        "=" * 72,
        "CLAIM-COST sensitivity (96 ports, HARMLESS capex)",
        "=" * 72,
    ]
    lines.extend(f"{k:<16s} ${v:10,.0f}" for k, v in results.items())
    cots = CostModel().cots_hardware(96).total
    lines.append(f"{'COTS reference':<16s} ${cots:10,.0f}")
    save_result("cost_sensitivity", "\n".join(lines))

    assert results["owned,1:1"] >= results["owned,4:1"]
    assert results["greenfield,4:1"] > results["owned,4:1"]
