"""CLAIM-LAT — "... or latency penalty".

End-to-end host RTTs (steady state, proactive flows) across:

* legacy switch alone (the pre-migration baseline),
* HARMLESS (legacy + trunk + SS_1/SS_2 hairpin),
* native software switch (hosts directly on the server).

The penalty HARMLESS adds over the legacy baseline is two trunk-link
traversals plus the translator walks per direction — microseconds.
"""

import statistics

from common import (
    build_harmless_site,
    build_ideal_site,
    build_legacy_site,
    save_result,
    warm_up_pings,
)

PINGS = 30


def measure_rtts(kind):
    if kind == "harmless":
        sim, hosts, _, _ = build_harmless_site(2)
    elif kind == "native-softswitch":
        sim, hosts, _, _ = build_ideal_site(2)
    else:
        sim, hosts, _ = build_legacy_site(2)
    h1, h2 = hosts[0], hosts[1]
    warm_up_pings(sim, hosts, [(h1, h2)])
    for index in range(PINGS):
        sim.schedule(0.01 * index, lambda: h1.ping(h2.ip))
    sim.run(until=sim.now + 5.0)
    rtts = h1.rtts()[1:]  # drop the warm-up ping
    assert len(rtts) == PINGS
    return rtts


def test_latency_comparison(benchmark):
    rtts = {
        kind: measure_rtts(kind)
        for kind in ("legacy-only", "harmless", "native-softswitch")
    }
    benchmark(lambda: measure_rtts("harmless"))

    lines = [
        "=" * 72,
        "CLAIM-LAT: steady-state ping RTT (proactive flows, no controller hop)",
        "=" * 72,
    ]
    means = {}
    for kind, samples in rtts.items():
        mean = statistics.fmean(samples)
        means[kind] = mean
        lines.append(
            f"{kind:<22s} mean {mean * 1e6:8.2f}us  "
            f"min {min(samples) * 1e6:8.2f}us  max {max(samples) * 1e6:8.2f}us"
        )
    penalty = means["harmless"] - means["legacy-only"]
    lines.append(
        f"\nHARMLESS penalty over legacy: {penalty * 1e6:.2f}us per RTT "
        f"(trunk x4 + translator walks x4)"
    )
    save_result("latency", "\n".join(lines))

    # Shape: the added latency is microseconds, not milliseconds —
    # "no major latency penalty".
    assert penalty > 0  # it is not free...
    assert penalty < 100e-6  # ...but it is far below human/app thresholds
    # And HARMLESS stays in the same league as the pure software switch.
    assert means["harmless"] < 10 * means["native-softswitch"]


def test_first_packet_pays_controller_rtt(benchmark):
    """Reactive setup cost: the first flow packet detours via controller."""

    def run():
        sim, hosts, _, _ = build_harmless_site(2, controller_latency_s=500e-6)
        h1, h2 = hosts[0], hosts[1]
        h1.ping(h2.ip)
        sim.run(until=2.0)
        h1.ping(h2.ip)
        sim.run(until=4.0)
        return h1.rtts()

    rtts = benchmark(run)
    assert len(rtts) == 2
    first, second = rtts
    assert first > second  # reactive detour visible exactly once
    assert first > 1e-3  # at least one 2x500us controller round trip
