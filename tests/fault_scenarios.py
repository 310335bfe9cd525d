"""The fault scenarios: one fault class injected into a migrated leaf-spine.

Each scenario injects its fault into a 4-edge leaf-spine fabric and
scores the recovery with :meth:`repro.core.manager.HarmlessFleet
.await_reconvergence`: all-pairs ping sweeps every ``SWEEP_WINDOW_S``
until one comes back clean.

* ``flap`` — an edge trunk fails and returns; measured from the restore.
* ``crash`` — a migrated site power-cycles: the legacy half black-holes,
  both S4 datapaths lose their flow tables, and the restore replays the
  HARMLESS bring-up; measured from the restart.
* ``controller_loss`` — a migrated site's control channel black-holes.
  Reactive flows carry ``idle_timeout``, so once they expire table
  misses die against the dead channel; measured from the deep-outage
  point, while the channel is still down.
* ``midwave`` — the flap fires during the rollout and the remaining
  waves migrate while it holds: the paper's "transitioning is harmless"
  claim under a live fault.

``convergence_s`` is simulated time from the anchor to the end of the
first clean sweep, ``frames_lost`` the probes that failed on the way and
``sweeps`` how many it took.  ``tests/test_resilience.py`` pins the
first three; ``midwave`` is the ``XPAR-MIDWAVE`` row of
``tests/test_paper_claims.py``.
"""

from repro.apps import LearningSwitchApp
from repro.controller import Controller
from repro.core import HarmlessFleet
from repro.fabric import leaf_spine_fabric
from repro.netsim import FaultInjector

#: Reachability-sweep window: one sweep every quarter simulated second.
SWEEP_WINDOW_S = 0.25
#: A row that has not reconverged by this much simulated time is a bug.
DEADLINE_S = 10.0
#: Link-flap hold (long enough that mid-wave migrations run under it).
FLAP_HOLD_S = 0.5
#: Switch-crash hold.
CRASH_HOLD_S = 0.5
#: Controller-channel outage and the idle gap that expires the reactive
#: flows first (idle_timeout is an OpenFlow uint16: whole seconds).
OUTAGE_HOLD_S = 2.0
OUTAGE_IDLE_GAP_S = 1.5
FLOW_IDLE_TIMEOUT_S = 1


def build(idle_timeout: int = 0):
    """A 4-edge, 1-spine fabric with two hosts per edge, and its fleet."""
    fabric = leaf_spine_fabric(edges=4, spines=1, hosts_per_edge=2)
    controller = Controller(fabric.sim)
    controller.add_app(LearningSwitchApp(idle_timeout=idle_timeout))
    return fabric, HarmlessFleet(fabric, controller=controller, wave_size=2)


def measure(fleet, injector) -> dict:
    """Sweep until the fabric is clean again; the row's three numbers."""
    report = fleet.await_reconvergence(window_s=SWEEP_WINDOW_S, deadline_s=DEADLINE_S)
    assert report.converged, (
        f"no reconvergence within {DEADLINE_S}s "
        f"({report.probes_lost} probes lost; log {injector.log})"
    )
    return {
        "convergence_s": report.convergence_s,
        "frames_lost": report.probes_lost,
        "sweeps": report.sweeps,
    }


def flap() -> dict:
    fabric, fleet = build()
    fleet.migrate_all(verify=True, strict=True)
    sim = fabric.sim
    injector = FaultInjector(sim)
    at = sim.now + 0.01
    injector.link_flap(fabric.trunk_links[0], at, hold_s=FLAP_HOLD_S)
    sim.run(until=at + FLAP_HOLD_S)
    return measure(fleet, injector)


def crash() -> dict:
    fabric, fleet = build()
    fleet.migrate_all(verify=True, strict=True)
    sim = fabric.sim
    injector = FaultInjector(sim)
    deployment = next(iter(fleet.deployments.values()))
    at = sim.now + 0.01
    injector.deployment_crash(deployment, fleet.controller, at, hold_s=CRASH_HOLD_S)
    sim.run(until=at + CRASH_HOLD_S)
    return measure(fleet, injector)


def controller_loss() -> dict:
    fabric, fleet = build(idle_timeout=FLOW_IDLE_TIMEOUT_S)
    fleet.migrate_all(verify=True, strict=True)
    sim = fabric.sim
    injector = FaultInjector(sim)
    ss2 = next(iter(fleet.deployments.values())).s4.ss2
    channel = next(
        dp.channel for dp in fleet.controller.datapaths.values() if dp.channel.switch is ss2
    )
    at = sim.now + 0.01
    injector.controller_loss(channel, at, hold_s=OUTAGE_HOLD_S)
    # Idle past the flow timeout, so the datapath depends on the dead
    # controller again, then measure through the recovery.
    sim.run(until=at + OUTAGE_IDLE_GAP_S)
    return measure(fleet, injector)


def midwave() -> dict:
    """The row, plus ``verified``: a sweep after recovery is clean."""
    fabric, fleet = build()
    fleet.migrate_next_wave(verify=True)
    sim = fabric.sim
    injector = FaultInjector(sim)
    at = sim.now + 0.01
    injector.link_flap(fabric.trunk_links[0], at, hold_s=FLAP_HOLD_S)
    sim.run(until=at + 0.005)
    while not fleet.complete:
        fleet.migrate_next_wave(verify=False)
    sim.run(until=at + FLAP_HOLD_S)
    row = measure(fleet, injector)
    row["verified"] = fleet.verify_reachability().ok
    return row


def converged_as(row: dict, convergence_s: float, frames_lost: int, sweeps: int) -> bool:
    return (
        abs(row["convergence_s"] - convergence_s) <= 1e-9
        and row["frames_lost"] == frames_lost
        and row["sweeps"] == sweeps
    )
