"""RESILIENCE — convergence time and loss per injected fault class.

Every other bench measures steady state; this one measures what happens
when the steady state breaks.  Four event classes are injected into a
leaf-spine and a ring fabric (the ring running live 802.1D spanning
tree from :mod:`repro.legacy.stp`, its closing link unblocked):

* ``flap``     — an inter-switch link fails and (leaf-spine) returns;
  the ring row measures the STP reroute onto the formerly blocked port
  while the link is still down.
* ``crash``    — a switch power-cycles.  The leaf-spine row crashes a
  *migrated* site (legacy half black-holes, both S4 datapaths lose
  their flow tables) and recovery replays the HARMLESS bring-up; the
  ring row crashes a legacy switch and recovery is an STP cold start.
* ``controller_loss`` — a migrated site's control channel black-holes
  for a window.  Reactive flows carry ``idle_timeout`` so the outage
  actually bites: once they expire, table misses die against the dead
  channel until the channel returns.
* ``midwave``  — the flap fires *during* the HARMLESS rollout: waves
  keep migrating while the fault is live, and the fleet must still
  verify clean after recovery (the paper's "transitioning must be
  harmless" claim, under failure).

Each row reports ``convergence_s`` — simulated time from the row's
measurement anchor (see EXPERIMENTS.md: fault onset, restore instant,
or deep-outage point, per event class) to the end of the first fully
clean reachability sweep, at 0.25 s sweep granularity — and
``frames_lost``, the probe pairs that failed across the sweeps on the
way there.  Both are **pure simulated-time metrics**: identical on any
machine, so ``check_regression.py`` gates them with zero machine
tolerance against ``baselines/resilience.json``, and ``--fast`` runs
the very same sizes (it exists only for CLI uniformity with the other
benches).

Run standalone: ``PYTHONPATH=src python benchmarks/bench_resilience.py
[--fast]``.
"""

import json

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.core import HarmlessFleet
from repro.fabric import leaf_spine_fabric, ring_fabric
from repro.netsim import FaultInjector

from common import RESULTS_DIR, save_result

#: Reachability-sweep window: one sweep every quarter simulated second.
SWEEP_WINDOW_S = 0.25
#: A row that has not reconverged by this much simulated time is a bug.
DEADLINE_S = 10.0
#: Link-flap hold (long enough that mid-wave migrations run under it).
FLAP_HOLD_S = 0.5
#: Switch-crash hold.
CRASH_HOLD_S = 0.5
#: Controller-channel outage and the idle gap that expires the reactive
#: flows first (idle_timeout is an OpenFlow uint16 — whole seconds).
OUTAGE_HOLD_S = 2.0
OUTAGE_IDLE_GAP_S = 1.5
FLOW_IDLE_TIMEOUT_S = 1

LEAF_SPINE = dict(edges=4, spines=1, hosts_per_edge=2)
RING = dict(switches=4, hosts_per_switch=2)


def build_leaf_spine(idle_timeout: int = 0):
    fabric = leaf_spine_fabric(**LEAF_SPINE)
    controller = Controller(fabric.sim)
    controller.add_app(LearningSwitchApp(idle_timeout=idle_timeout))
    fleet = HarmlessFleet(fabric, controller=controller, wave_size=2)
    return fabric, fleet


def build_ring(idle_timeout: int = 0):
    """A ring running live STP, settled past its initial election."""
    fabric = ring_fabric(stp=True, **RING)
    settle = max(tree.settle_s() for tree in fabric.stp.values())
    fabric.sim.run(until=fabric.sim.now + settle + 0.5)
    controller = Controller(fabric.sim)
    controller.add_app(LearningSwitchApp(idle_timeout=idle_timeout))
    fleet = HarmlessFleet(fabric, controller=controller, wave_size=2)
    return fabric, fleet


def channel_of(fleet, deployment):
    """The control channel serving a deployment's SS_2."""
    return next(
        dp.channel
        for dp in fleet.controller.datapaths.values()
        if dp.channel.switch is deployment.s4.ss2
    )


def measure(fleet, topology: str, event: str, injector) -> dict:
    report = fleet.await_reconvergence(
        event=event, window_s=SWEEP_WINDOW_S, deadline_s=DEADLINE_S
    )
    assert report.converged, (
        f"{topology}/{event}: no reconvergence within {DEADLINE_S}s "
        f"({report.probes_lost} probes lost; log {injector.log})"
    )
    return {
        "topology": topology,
        "event": event,
        "convergence_s": report.convergence_s,
        "frames_lost": report.probes_lost,
        "sweeps": report.sweeps,
        "pairs_per_sweep": report.pairs_per_sweep,
    }


# -------------------------------------------------------------- leaf-spine


def leaf_spine_flap() -> dict:
    """Trunk flap on the migrated fabric; measured from the restore."""
    fabric, fleet = build_leaf_spine()
    fleet.migrate_all(verify=True, strict=True)
    sim = fabric.sim
    injector = FaultInjector(sim)
    at = sim.now + 0.01
    injector.link_flap(fabric.trunk_links[0], at, hold_s=FLAP_HOLD_S)
    sim.run(until=at + FLAP_HOLD_S)
    return measure(fleet, "leaf-spine", "flap", injector)


def leaf_spine_crash() -> dict:
    """A migrated site power-cycles; measured from the restart."""
    fabric, fleet = build_leaf_spine()
    fleet.migrate_all(verify=True, strict=True)
    sim = fabric.sim
    injector = FaultInjector(sim)
    site = next(iter(fleet.deployments))
    at = sim.now + 0.01
    injector.deployment_crash(
        fleet.deployments[site], fleet.controller, at, hold_s=CRASH_HOLD_S
    )
    sim.run(until=at + CRASH_HOLD_S)
    return measure(fleet, "leaf-spine", "crash", injector)


def leaf_spine_controller_loss() -> dict:
    """Control channel dies; measured from the deep-outage point."""
    fabric, fleet = build_leaf_spine(idle_timeout=FLOW_IDLE_TIMEOUT_S)
    fleet.migrate_all(verify=True, strict=True)
    sim = fabric.sim
    injector = FaultInjector(sim)
    site = next(iter(fleet.deployments))
    channel = channel_of(fleet, fleet.deployments[site])
    at = sim.now + 0.01
    injector.controller_loss(channel, at, hold_s=OUTAGE_HOLD_S)
    # Idle past the flow timeout so the datapath actually depends on
    # the (dead) controller again, then measure through the recovery.
    sim.run(until=at + OUTAGE_IDLE_GAP_S)
    return measure(fleet, "leaf-spine", "controller_loss", injector)


def leaf_spine_midwave() -> dict:
    """Flap under a live rollout; waves keep landing during the fault."""
    fabric, fleet = build_leaf_spine()
    fleet.migrate_next_wave(verify=True)
    sim = fabric.sim
    injector = FaultInjector(sim)
    at = sim.now + 0.01
    injector.link_flap(fabric.trunk_links[0], at, hold_s=FLAP_HOLD_S)
    sim.run(until=at + 0.005)
    while not fleet.complete:
        fleet.migrate_next_wave(verify=False)
    sim.run(until=at + FLAP_HOLD_S)
    row = measure(fleet, "leaf-spine", "midwave", injector)
    final = fleet.verify_reachability()
    assert final.ok, f"post-recovery sweep failed: {final.describe()}"
    return row


# -------------------------------------------------------------------- ring


def ring_flap() -> dict:
    """Cut a live ring link; STP reroutes through the blocked port.

    Measured from the cut — the interesting dynamics (loss-of-light
    election, the ALTERNATE port walking to FORWARDING) all happen
    while the link is still down.  The fabric stays legacy: this is
    the pure 802.1D story, no SDN involved.
    """
    fabric, fleet = build_ring()
    assert fleet.verify_reachability().ok, "ring not converged pre-fault"
    sim = fabric.sim
    injector = FaultInjector(sim)
    at = sim.now + 0.01
    injector.link_flap(fabric.trunk_links[0], at, hold_s=DEADLINE_S)
    sim.run(until=at)
    return measure(fleet, "ring", "flap", injector)


def ring_crash() -> dict:
    """A legacy ring switch power-cycles; recovery is an STP cold start.

    Neighbours detect the crash by BPDU silence (max-age) because the
    crashed switch's ports stay physically up — a hung supervisor, not
    pulled cables.
    """
    fabric, fleet = build_ring()
    assert fleet.verify_reachability().ok, "ring not converged pre-fault"
    sim = fabric.sim
    injector = FaultInjector(sim)
    switch = next(iter(fabric.sites.values())).switch
    at = sim.now + 0.01
    injector.switch_crash(switch, at, hold_s=CRASH_HOLD_S)
    sim.run(until=at + CRASH_HOLD_S)
    return measure(fleet, "ring", "crash", injector)


def ring_controller_loss() -> dict:
    """Controller outage on a migrated ring site (STP stays live)."""
    fabric, fleet = build_ring(idle_timeout=FLOW_IDLE_TIMEOUT_S)
    fleet.migrate_all(verify=True, strict=True)
    sim = fabric.sim
    injector = FaultInjector(sim)
    site = next(iter(fleet.deployments))
    channel = channel_of(fleet, fleet.deployments[site])
    at = sim.now + 0.01
    injector.controller_loss(channel, at, hold_s=OUTAGE_HOLD_S)
    sim.run(until=at + OUTAGE_IDLE_GAP_S)
    return measure(fleet, "ring", "controller_loss", injector)


def ring_midwave() -> dict:
    """Ring-link flap while the rollout migrates the remaining waves."""
    fabric, fleet = build_ring(idle_timeout=FLOW_IDLE_TIMEOUT_S)
    fleet.migrate_next_wave(verify=True)
    sim = fabric.sim
    injector = FaultInjector(sim)
    at = sim.now + 0.01
    injector.link_flap(fabric.trunk_links[1], at, hold_s=FLAP_HOLD_S)
    sim.run(until=at + 0.005)
    while not fleet.complete:
        fleet.migrate_next_wave(verify=False)
    sim.run(until=at + FLAP_HOLD_S)
    row = measure(fleet, "ring", "midwave", injector)
    final = fleet.verify_reachability()
    assert final.ok, f"post-recovery sweep failed: {final.describe()}"
    return row


ROWS = [
    leaf_spine_flap,
    leaf_spine_crash,
    leaf_spine_controller_loss,
    leaf_spine_midwave,
    ring_flap,
    ring_crash,
    ring_controller_loss,
    ring_midwave,
]


def run_suite() -> list:
    return [row_fn() for row_fn in ROWS]


def render(rows: list, mode: str) -> str:
    lines = [
        "=" * 76,
        "RESILIENCE: convergence time and probe loss per injected fault",
        "=" * 76,
        f"mode: {mode}; sweep window {SWEEP_WINDOW_S}s, "
        "all metrics pure simulated time (machine-independent)",
        "",
        f"{'topology':>10} {'event':>16} {'convergence':>12} "
        f"{'frames lost':>12} {'sweeps':>7} {'pairs':>6}",
    ]
    for row in rows:
        lines.append(
            f"{row['topology']:>10} {row['event']:>16} "
            f"{row['convergence_s'] * 1e3:>9.0f} ms "
            f"{row['frames_lost']:>12} {row['sweeps']:>7} "
            f"{row['pairs_per_sweep']:>6}"
        )
    return "\n".join(lines)


def save_json(rows: list, mode: str):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"bench": "resilience", "mode": mode, "rows": rows}
    path = RESULTS_DIR / "resilience.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="accepted for CI uniformity; sizes are identical either way "
        "(the metrics are deterministic simulated time)",
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.fast else "full"
    rows = run_suite()
    save_result("resilience", render(rows, mode=mode))
    path = save_json(rows, mode=mode)
    print(f"JSON archived at {path}")


if __name__ == "__main__":
    main()
