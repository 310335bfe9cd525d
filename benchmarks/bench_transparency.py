"""XPAR-TRANSP — data-plane transparency (the architectural property).

Differential testing: the same controller program and the same seeded
traffic run against (a) a HARMLESS-migrated legacy switch and (b) an
ideal OpenFlow switch; host-observable behaviour must be identical.
No paper numbers exist for this row — the demo asserts the property,
we measure it.
"""

from repro.apps import LearningSwitchApp
from repro.core import TransparencyHarness
from repro.core.verify import random_udp_traffic

from common import save_result

SEEDS = list(range(8))


def run_all_seeds():
    outcomes = []
    for seed in SEEDS:
        harness = TransparencyHarness(
            num_hosts=4, app_factory=lambda: [LearningSwitchApp()]
        )
        result = harness.run(random_udp_traffic(seed=seed, num_messages=30))
        outcomes.append((seed, result.equivalent, len(result.mismatches)))
    return outcomes


def test_transparency_differential(benchmark):
    outcomes = benchmark(run_all_seeds)
    lines = [
        "=" * 72,
        "XPAR-TRANSP: HARMLESS vs ideal OpenFlow switch (differential)",
        "=" * 72,
        f"{'seed':>5s} {'equivalent':>11s} {'mismatches':>11s}",
    ]
    lines.extend(
        f"{seed:5d} {str(ok):>11s} {mismatches:11d}"
        for seed, ok, mismatches in outcomes
    )
    passed = sum(1 for _, ok, _ in outcomes if ok)
    lines.append(f"\n{passed}/{len(outcomes)} seeds behaviourally identical")
    save_result("transparency", "\n".join(lines))
    assert passed == len(outcomes)
