"""The HARMLESS Manager: end-to-end migration orchestration.

Reproduces the paper's workflow: "the manager configures the legacy
switch, then instantiates HARMLESS-S4.  Finally, it installs the
corresponding flow rules into SS_1 and connects SS_2 to the SDN
controller."  Discovery and configuration go through the NAPALM-style
driver (which speaks SNMP to the device), so the manager is vendor-
neutral exactly as the paper claims.

Two scales of orchestration live here:

* :class:`HarmlessManager` — migrates one switch at a time (the
  paper's single-device workflow);
* :class:`HarmlessFleet` — executes a :class:`repro.core.migration
  .MigrationPlan` against a real :class:`repro.fabric.topology.Fabric`:
  wave by wave, mid-simulation, with un-migrated legacy switches
  forwarding throughout and all-pairs host reachability verified after
  every wave (the hybrid operation regime the ONF migration brief
  describes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.controller.core import Controller, Datapath
from repro.legacy.switch import LegacySwitch
from repro.mgmt.base import ConfigOp, DriverError, NetworkDriver
from repro.netsim.link import DEFAULT_QUEUE_FRAMES, Link
from repro.netsim.simulator import Simulator
from repro.snmp.agent import SnmpError
from repro.snmp.client import SnmpTimeout
from repro.softswitch.costmodel import DatapathCostModel, ESWITCH_COST_MODEL
from repro.core.migration import (
    MigrationPlan,
    MigrationPlanner,
    MigrationStrategy,
    MigrationWave,
    SwitchSite,
)
from repro.core.portmap import DEFAULT_VLAN_BASE, PortVlanMap
from repro.core.s4 import SS1_TRUNK_PORT, HarmlessS4

if TYPE_CHECKING:  # pragma: no cover - layering: fabric imports nothing from core
    from repro.fabric.topology import Fabric

#: Default trunk interconnect speed (legacy switch <-> server NIC).
DEFAULT_TRUNK_BANDWIDTH_BPS = 10_000_000_000
#: Two metres of fibre/DAC between switch and server.
DEFAULT_TRUNK_DELAY_S = 1e-6


class HarmlessError(Exception):
    """Deployment failure (with rollback already attempted)."""


#: What a bring-up expects to go wrong, and reports as a
#: :class:`HarmlessError` once it has rolled back: the device refused a
#: PDU or did not answer, the config session was misused, or the S4
#: could not be wired (a port already cabled, a port map that does not
#: fit).  Anything else is a bug: it is rolled back all the same, then
#: re-raised as itself.
BRING_UP_ERRORS = (SnmpError, SnmpTimeout, DriverError, ValueError, HarmlessError)


@dataclass
class HarmlessDeployment:
    """Handle for one migrated legacy switch."""

    legacy_switch: LegacySwitch
    driver: NetworkDriver
    s4: HarmlessS4
    port_map: PortVlanMap
    trunk_port: int
    trunk_link: Link
    datapath: Optional[Datapath] = None
    vendor_config: str = ""
    active: bool = True
    log: list[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.datapath is None:
            controller_line = "  controller: not connected"
        elif self.datapath.dpid is None:
            controller_line = "  controller: handshake in progress"
        else:
            controller_line = f"  controller dpid: {self.datapath.dpid:#x}"
        lines = [
            f"HARMLESS deployment over {self.legacy_switch.name} "
            f"({self.driver.vendor})",
            f"  managed access ports: {self.port_map.ports}",
            f"  trunk: legacy port {self.trunk_port} <-> SS_1 port {SS1_TRUNK_PORT}",
            f"  port->vlan: {self.port_map.describe()}",
            controller_line,
        ]
        return "\n".join(lines)

    def teardown(self) -> None:
        """Undo the migration: restore the legacy VLAN config."""
        if not self.active:
            return
        self.driver.rollback()
        self.active = False
        self.log.append("teardown: legacy configuration restored")


class HarmlessManager:
    """Drives migrations; one manager can migrate many switches."""

    def __init__(
        self,
        sim: Simulator,
        controller: "Controller | None" = None,
        vlan_base: int = DEFAULT_VLAN_BASE,
        cost_model: DatapathCostModel = ESWITCH_COST_MODEL,
        trunk_bandwidth_bps: float = DEFAULT_TRUNK_BANDWIDTH_BPS,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.vlan_base = vlan_base
        self.cost_model = cost_model
        self.trunk_bandwidth_bps = trunk_bandwidth_bps
        #: Drop-tail depth of the S4 trunk and patch links (burst-heavy
        #: fabric benches raise it so coalesced bursts are not tail-dropped).
        self.queue_frames = queue_frames
        self._next_dpid = 0x100
        self.deployments: list[HarmlessDeployment] = []

    # ------------------------------------------------------------ workflow

    def migrate(
        self,
        legacy_switch: LegacySwitch,
        driver: NetworkDriver,
        trunk_port: int,
        access_ports: "list[int] | None" = None,
        controller_latency_s: float = 50e-6,
    ) -> HarmlessDeployment:
        """Migrate *legacy_switch* to SDN through *driver*.

        *trunk_port* is the legacy port cabled to the HARMLESS server.
        *access_ports* defaults to every other wired port.  On any
        failure the legacy configuration is rolled back before raising.
        """
        log: list[str] = []

        # 1. Discover the device: one ifTable walk.
        interfaces = driver.get_interfaces()
        log.append(
            f"discovered {legacy_switch.name} ({driver.vendor}), "
            f"{len(interfaces)} interfaces"
        )
        all_ports = sorted(info["port"] for info in interfaces.values())
        if trunk_port not in all_ports:
            raise HarmlessError(f"trunk port {trunk_port} does not exist on device")
        if access_ports is None:
            access_ports = [
                info["port"]
                for info in interfaces.values()
                if info["port"] != trunk_port and info["is_up"]
            ]
        access_ports = sorted(set(access_ports))
        if not access_ports:
            raise HarmlessError("no access ports to manage")
        if trunk_port in access_ports:
            raise HarmlessError("trunk port cannot also be an access port")

        # 2. Plan the VLAN scheme, avoiding ids already on the device.
        reserved = set(driver.get_vlans())
        port_map = PortVlanMap.allocate(
            access_ports, base=self.vlan_base, reserved=reserved
        )
        log.append(f"allocated VLANs: {port_map.describe()}")

        # 3. Push the config through the vendor driver (candidate+commit
        #    so we get NAPALM's preview and rollback behaviour).
        ops = self._config_ops(port_map, trunk_port)
        vendor_config = driver.render_config(ops)
        driver.load_merge_candidate(vendor_config)
        try:
            driver.commit_config()  # restores the device itself on failure
        except BRING_UP_ERRORS as exc:
            raise HarmlessError(f"legacy switch rejected config: {exc}") from exc
        log.append(f"pushed {len(ops)} config ops to {legacy_switch.name}")

        trunk_link = None
        try:
            # 4. Instantiate HARMLESS-S4 and wire the trunk.
            dpid = self._next_dpid
            self._next_dpid += 1
            s4 = HarmlessS4(
                self.sim,
                f"harmless-{legacy_switch.name}",
                access_ports=access_ports,
                datapath_id=dpid,
                cost_model=self.cost_model,
                queue_frames=self.queue_frames,
            )
            trunk_link = Link(
                legacy_switch.port(trunk_port),
                s4.trunk_port,
                bandwidth_bps=self.trunk_bandwidth_bps,
                propagation_delay_s=DEFAULT_TRUNK_DELAY_S,
                queue_frames=self.queue_frames,
                name=f"{legacy_switch.name}-trunk",
            )
            log.append(
                f"S4 instantiated: dpid={dpid:#x}, "
                f"{len(access_ports)} patch ports, trunk wired"
            )

            # 5. Install the translator program into SS_1.
            rules = s4.install_translator(port_map)
            log.append(f"installed {len(rules.flow_mods)} rules into SS_1")

            # 6. Connect SS_2 to the SDN controller.
            datapath = None
            if self.controller is not None:
                datapath = self.controller.connect(
                    s4.ss2, latency_s=controller_latency_s
                )
                log.append("SS_2 connected to SDN controller")
        except Exception as exc:
            if trunk_link is not None:
                trunk_link.disconnect()  # frees the trunk port for a retry
            driver.rollback()
            if not isinstance(exc, BRING_UP_ERRORS):
                raise
            raise HarmlessError(f"deployment failed, rolled back: {exc}") from exc

        deployment = HarmlessDeployment(
            legacy_switch=legacy_switch,
            driver=driver,
            s4=s4,
            port_map=port_map,
            trunk_port=trunk_port,
            trunk_link=trunk_link,
            datapath=datapath,
            vendor_config=vendor_config,
            log=log,
        )
        self.deployments.append(deployment)
        return deployment

    @staticmethod
    def _config_ops(port_map: PortVlanMap, trunk_port: int) -> "list[ConfigOp]":
        """The vendor-neutral ops implementing tagging + hairpinning."""
        ops: list[ConfigOp] = []
        for access_port, vlan in port_map:
            ops.append(
                ConfigOp(
                    kind="vlan", vlan_id=vlan, name=f"harmless-p{access_port}"
                )
            )
            ops.append(ConfigOp(kind="access", vlan_id=vlan, port=access_port))
        ops.append(
            ConfigOp(
                kind="trunk",
                port=trunk_port,
                allowed_vlans=tuple(port_map.vlans),
            )
        )
        return ops

    # --------------------------------------------------------- validation

    def verify_deployment(self, deployment: HarmlessDeployment) -> list[str]:
        """Read back device state and check the scheme is in place.

        Returns a list of problems (empty = healthy).
        """
        problems: list[str] = []
        vlans = deployment.driver.get_vlans()
        for access_port, vlan in deployment.port_map:
            view = vlans.get(vlan)
            if view is None:
                problems.append(f"VLAN {vlan} missing on device")
                continue
            if view.untagged != [access_port]:
                problems.append(
                    f"VLAN {vlan}: expected untagged [{access_port}], "
                    f"got {view.untagged}"
                )
            if deployment.trunk_port not in view.tagged:
                problems.append(f"VLAN {vlan}: trunk not a tagged member")
        if deployment.s4.translator_rules is None:
            problems.append("SS_1 has no translator rules")
        return problems


# --------------------------------------------------------------------------
# Network-wide rollout: executing migration plans against a live fabric
# --------------------------------------------------------------------------


@dataclass
class ReachabilityReport:
    """Outcome of one all-pairs reachability sweep."""

    pairs: int
    answered: int
    lost: "list[tuple[str, str]]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.lost

    @property
    def loss_rate(self) -> float:
        return len(self.lost) / self.pairs if self.pairs else 0.0

    def describe(self) -> str:
        if self.ok:
            return f"reachability OK ({self.answered}/{self.pairs} pairs)"
        sample = ", ".join(f"{a}->{b}" for a, b in self.lost[:5])
        more = "" if len(self.lost) <= 5 else f" (+{len(self.lost) - 5} more)"
        return (
            f"reachability FAILED: {len(self.lost)}/{self.pairs} pairs lost "
            f"[{sample}{more}]"
        )


@dataclass
class ResilienceReport:
    """Convergence scoring for one injected fault (or its recovery).

    Produced by :meth:`HarmlessFleet.await_reconvergence`: repeated
    short reachability sweeps run until the first fully clean sweep,
    so ``convergence_s`` is the simulated time from the measurement
    start to the end of that sweep (granularity = one sweep window)
    and ``probes_lost`` counts every failed probe pair along the way.
    """

    event: str
    started_at: float
    converged_at: "float | None"
    sweeps: int
    probes_lost: int
    pairs_per_sweep: int

    @property
    def converged(self) -> bool:
        return self.converged_at is not None

    @property
    def convergence_s(self) -> float:
        """Time to the first clean sweep (inf when the deadline hit)."""
        if self.converged_at is None:
            return float("inf")
        return self.converged_at - self.started_at

    def describe(self) -> str:
        if not self.converged:
            return (
                f"{self.event}: NOT converged after {self.sweeps} sweep(s), "
                f"{self.probes_lost} probe(s) lost"
            )
        return (
            f"{self.event}: reconverged in {self.convergence_s * 1e3:.1f} ms "
            f"({self.sweeps} sweep(s), {self.probes_lost} probe(s) lost, "
            f"{self.pairs_per_sweep} pairs/sweep)"
        )


@dataclass
class FleetWaveReport:
    """One executed wave: what migrated and whether the fabric held."""

    index: int
    sites: "list[str]"
    capex_usd: float
    downtime_s: float
    sdn_ports_after: int
    deployments: "list[HarmlessDeployment]"
    reachability: "ReachabilityReport | None" = None

    def describe(self) -> str:
        names = ",".join(self.sites)
        line = (
            f"wave {self.index}: migrated [{names}] "
            f"capex ${self.capex_usd:,.0f} -> {self.sdn_ports_after} SDN ports"
        )
        if self.reachability is not None:
            line += f"; {self.reachability.describe()}"
        return line


class HarmlessFleet:
    """Network-wide HARMLESS rollout over a multi-switch fabric.

    Where :class:`repro.core.migration.MigrationPlanner` only *accounts*
    waves over abstract sites, the fleet executes them: each wave
    migrates its fabric switches mid-simulation through one shared
    :class:`HarmlessManager` (one SDN controller, one growing set of S4
    deployments), while un-migrated switches keep forwarding as plain
    802.1Q bridges.  Inter-switch links are re-homed onto the migrated
    datapaths by the migration itself — the uplink port becomes a
    managed access port whose traffic hairpins through SS_1/SS_2, so a
    frame crossing N migrated hops traverses N software datapaths.

    After each wave the fleet runs an all-pairs ping sweep across every
    fabric host, proving the hybrid (part-legacy, part-SDN) network
    stayed connected — the property the incremental strategy is sold on.
    """

    def __init__(
        self,
        fabric: "Fabric",
        controller: "Controller | None" = None,
        wave_size: int = 2,
        vlan_base: int = DEFAULT_VLAN_BASE,
        cost_model: DatapathCostModel = ESWITCH_COST_MODEL,
        trunk_bandwidth_bps: float = DEFAULT_TRUNK_BANDWIDTH_BPS,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
        controller_latency_s: float = 50e-6,
        settle_s: float = 0.05,
        verify_window_s: float = 2.0,
    ) -> None:
        self.fabric = fabric
        if controller is None:
            # Late import: apps sit above core in the layering.
            from repro.apps.learning_switch import LearningSwitchApp

            controller = Controller(fabric.sim)
            controller.add_app(LearningSwitchApp())
        self.controller = controller
        self.manager = HarmlessManager(
            fabric.sim,
            controller=controller,
            vlan_base=vlan_base,
            cost_model=cost_model,
            trunk_bandwidth_bps=trunk_bandwidth_bps,
            queue_frames=queue_frames,
        )
        self.controller_latency_s = controller_latency_s
        self.settle_s = settle_s
        self.verify_window_s = verify_window_s
        #: Site order is the fabric's insertion order (edge tier first).
        self._site_order = list(fabric.sites)
        self.plan: MigrationPlan = MigrationPlanner(
            [self._planning_site(name) for name in self._site_order]
        ).plan(MigrationStrategy.HARMLESS_WAVES, wave_size=wave_size)
        self.reports: "list[FleetWaveReport]" = []
        self.deployments: "dict[str, HarmlessDeployment]" = {}

    def _planning_site(self, name: str) -> SwitchSite:
        site = self.fabric.sites[name]
        return SwitchSite(
            name=name,
            ports=len(site.switch.ports),
            ports_in_use=len(site.access_ports),
        )

    # ------------------------------------------------------------- state

    @property
    def migrated_sites(self) -> "list[str]":
        return [name for report in self.reports for name in report.sites]

    @property
    def pending_waves(self) -> "list[MigrationWave]":
        return self.plan.waves[len(self.reports):]

    @property
    def complete(self) -> bool:
        return not self.pending_waves

    # ---------------------------------------------------------- execution

    def migrate_next_wave(self, verify: bool = True) -> FleetWaveReport:
        """Execute the next planned wave; returns its report."""
        if self.complete:
            raise HarmlessError("migration plan already fully executed")
        wave = self.plan.waves[len(self.reports)]
        deployments = []
        try:
            for planned in wave.sites:
                site = self.fabric.sites[planned.name]
                deployment = self.manager.migrate(
                    site.switch,
                    site.driver,
                    trunk_port=site.trunk_port,
                    access_ports=site.access_ports,
                    controller_latency_s=self.controller_latency_s,
                )
                deployments.append(deployment)
                self.deployments[planned.name] = deployment
        except Exception as exc:
            # Unwind the wave's partial progress so it can be retried:
            # restore each migrated site's legacy config, unwire its S4
            # trunk (freeing the reserved port) and forget the
            # deployment — the fleet's state then matches the fabric's.
            for deployment in reversed(deployments):
                deployment.teardown()
                deployment.trunk_link.disconnect()
                self.manager.deployments.remove(deployment)
                self.deployments = {
                    name: kept
                    for name, kept in self.deployments.items()
                    if kept is not deployment
                }
            if not isinstance(exc, BRING_UP_ERRORS):
                raise
            raise HarmlessError(
                f"wave {wave.index} failed and was rolled back: {exc}"
            ) from exc
        # Let the OpenFlow handshakes and table-miss installs complete
        # before any verification traffic hits the new datapaths.
        self.fabric.sim.run(until=self.fabric.sim.now + self.settle_s)
        report = FleetWaveReport(
            index=wave.index,
            sites=[planned.name for planned in wave.sites],
            capex_usd=wave.capex_usd,
            downtime_s=wave.downtime_s,
            sdn_ports_after=wave.sdn_ports_after,
            deployments=deployments,
            reachability=self.verify_reachability() if verify else None,
        )
        self.reports.append(report)
        return report

    def migrate_all(
        self, verify: bool = True, strict: bool = False
    ) -> "list[FleetWaveReport]":
        """Execute every remaining wave in plan order.

        With *strict* a failed post-wave reachability sweep raises
        :class:`HarmlessError` instead of carrying on.
        """
        while not self.complete:
            report = self.migrate_next_wave(verify=verify)
            if strict and report.reachability is not None and not report.reachability.ok:
                raise HarmlessError(
                    f"wave {report.index} broke the fabric: "
                    f"{report.reachability.describe()}"
                )
        return self.reports

    # --------------------------------------------------------- validation

    def verify_reachability(
        self,
        hosts: "list | None" = None,
        window_s: "float | None" = None,
    ) -> ReachabilityReport:
        """All-pairs ping sweep across the fabric's hosts.

        Every ordered (src, dst) host pair sends one echo request; the
        simulation then runs for ``verify_window_s`` so replies (and
        ping timeouts) resolve.  Works at any point of the rollout —
        before, between and after waves — because legacy bridging and
        migrated S4 hops interoperate on the same untagged frames.

        *window_s* overrides the fleet-wide ``verify_window_s`` for this
        sweep — probes still pending when a short window closes count as
        lost, which is the conservative reading resilience scoring wants.
        """
        sim = self.fabric.sim
        hosts = list(hosts if hosts is not None else self.fabric.hosts)
        probes = []
        for src in hosts:
            for dst in hosts:
                if src is dst:
                    continue
                probes.append((src, dst, src.ping(dst.ip)))
        window = self.verify_window_s if window_s is None else window_s
        sim.run(until=sim.now + window)
        lost = [
            (src.name, dst.name)
            for src, dst, result in probes
            if result.lost
        ]
        return ReachabilityReport(
            pairs=len(probes), answered=len(probes) - len(lost), lost=lost
        )

    def await_reconvergence(
        self,
        event: str = "fault",
        window_s: float = 0.25,
        deadline_s: float = 10.0,
        hosts: "list | None" = None,
    ) -> ResilienceReport:
        """Measure time-to-reconverge after a fault, by repeated sweeps.

        Runs back-to-back reachability sweeps of *window_s* simulated
        seconds each until the first sweep where every probe pair
        answers, or until *deadline_s* of simulated time has elapsed.
        The returned report's ``convergence_s`` is the time from this
        call to the end of the first clean sweep (so the measurement
        has sweep-window granularity and slightly over-reports — call
        it right when the fault or its repair is injected), and
        ``probes_lost`` totals the failed pairs of every sweep on the
        way, a frames-lost proxy at probe granularity.

        Deterministic: all timing is simulated time, so identical
        scenarios score identically on any machine.
        """
        if window_s <= 0:
            raise ValueError("sweep window must be positive")
        sim = self.fabric.sim
        started_at = sim.now
        sweeps = 0
        probes_lost = 0
        pairs = 0
        converged_at = None
        while sim.now - started_at < deadline_s - 1e-12:
            report = self.verify_reachability(hosts=hosts, window_s=window_s)
            sweeps += 1
            pairs = report.pairs
            if report.ok:
                converged_at = sim.now
                break
            probes_lost += len(report.lost)
        return ResilienceReport(
            event=event,
            started_at=started_at,
            converged_at=converged_at,
            sweeps=sweeps,
            probes_lost=probes_lost,
            pairs_per_sweep=pairs,
        )

    def verify_deployments(self) -> "dict[str, list[str]]":
        """Per-site read-back validation; only unhealthy sites appear."""
        problems = {}
        for name, deployment in self.deployments.items():
            site_problems = self.manager.verify_deployment(deployment)
            if site_problems:
                problems[name] = site_problems
        return problems

    # ------------------------------------------------------------- output

    def describe(self) -> str:
        lines = [
            f"HARMLESS fleet over fabric '{self.fabric.kind}': "
            f"{len(self.migrated_sites)}/{len(self._site_order)} sites migrated, "
            f"{len(self.reports)}/{self.plan.num_waves} waves executed"
        ]
        lines.extend(f"  {report.describe()}" for report in self.reports)
        for wave in self.pending_waves:
            names = ",".join(site.name for site in wave.sites)
            lines.append(f"  wave {wave.index}: pending [{names}]")
        return "\n".join(lines)
