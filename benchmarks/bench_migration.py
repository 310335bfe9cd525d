"""XPAR-MIGR — migration strategies over a campus network.

The paper's §1 argument quantified: flag-day vs incremental-COTS vs
HARMLESS waves over a fleet of edge switches.  Reports capex, total and
worst-case downtime, and SDN-coverage progression.  No paper numbers;
shape-only (HARMLESS must dominate on capex and downtime).
"""

from repro.core import MigrationPlanner, SwitchSite

from common import save_result

FLEET = [
    SwitchSite(name=f"edge{i:02d}", ports=48 if i % 3 else 24, ports_in_use=20 + i % 16)
    for i in range(12)
]


def run_plans():
    planner = MigrationPlanner(FLEET)
    return planner.compare_all(wave_size=3)


def test_migration_strategies(benchmark):
    plans = benchmark(run_plans)
    lines = [
        "=" * 72,
        f"XPAR-MIGR: migrating {len(FLEET)} edge switches to SDN",
        "=" * 72,
        f"{'strategy':<18s} {'capex':>10s} {'downtime':>10s} {'worst wave':>11s} {'waves':>6s}",
    ]
    for name, plan in plans.items():
        lines.append(
            f"{name:<18s} ${plan.total_capex:9,.0f} "
            f"{plan.total_downtime_s:9.0f}s {plan.max_single_downtime_s:10.0f}s "
            f"{plan.num_waves:6d}"
        )
    lines.append("\ncoverage curve (harmless-waves):")
    for wave, ports in plans["harmless-waves"].coverage_curve():
        lines.append(f"  after wave {wave}: {ports} SDN ports")
    lines.append("\n" + plans["harmless-waves"].describe())
    save_result("migration", "\n".join(lines))

    harmless = plans["harmless-waves"]
    cots = plans["incremental-cots"]
    flag_day = plans["flag-day"]
    assert harmless.total_capex < cots.total_capex
    assert harmless.total_capex < flag_day.total_capex
    assert harmless.total_downtime_s < flag_day.total_downtime_s
    assert flag_day.max_single_downtime_s >= cots.max_single_downtime_s
    # Incremental strategies reach full coverage gradually.
    curve = harmless.coverage_curve()
    assert len(curve) == 4
    assert curve[-1][1] == sum(site.ports_in_use for site in FLEET)
