"""Data-plane transparency verification by differential testing.

The architectural property everything rests on: a controller program
cannot tell a HARMLESS-migrated legacy switch from an ideal OpenFlow
switch.  The harness builds both environments with identical hosts and
identical controller apps, drives both with the same seeded traffic,
and diffs what the hosts observed.

:func:`build_harmless_site` and :func:`build_ideal_site` are the two
environments, and the one site builder the use-case benches and the
tests share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.controller.core import Controller
from repro.legacy.switch import LegacySwitch
from repro.mgmt import DeviceConnection, get_network_driver
from repro.net.addresses import IPv4Address, MACAddress
from repro.netsim.host import Host
from repro.netsim.link import Link
from repro.netsim.simulator import Simulator
from repro.snmp import SnmpAgent, attach_bridge_mib
from repro.softswitch.datapath import SoftSwitch
from repro.core.manager import HarmlessDeployment, HarmlessManager

AppFactory = Callable[[], list]
TrafficScript = Callable[["Environment"], None]


@dataclass
class Environment:
    """One side of the differential setup."""

    kind: str  # "harmless" | "ideal"
    sim: Simulator
    hosts: list[Host]
    controller: Controller

    def observations(self) -> dict[str, object]:
        """What the hosts experienced, in comparable form."""
        result: dict[str, object] = {}
        for host in self.hosts:
            result[host.name] = {
                "udp": sorted(
                    (str(src), src_port, dst_port, payload)
                    for src, src_port, dst_port, payload in host.udp_received
                ),
                "pings_ok": len(host.rtts()),
                "pings_lost": sum(1 for r in host.ping_results if r.lost),
            }
        return result


@dataclass
class DifferentialResult:
    """Outcome of one differential run."""

    equivalent: bool
    mismatches: list[str] = field(default_factory=list)
    harmless_obs: dict = field(default_factory=dict)
    ideal_obs: dict = field(default_factory=dict)


def make_hosts(sim: Simulator, count: int) -> list[Host]:
    """Hosts h1..hN: MACs from 02:00:00:00:00:01, IPs from 10.0.0.1."""
    return [
        Host(
            sim,
            f"h{index + 1}",
            MACAddress(0x020000000001 + index),
            IPv4Address(f"10.0.0.{index + 1}"),
        )
        for index in range(count)
    ]


def _controller(sim: Simulator, apps: list) -> Controller:
    controller = Controller(sim)
    for app in apps:
        controller.add_app(app)
    return controller


def build_harmless_site(
    num_hosts: int, apps: list, controller_latency_s: float = 50e-6
) -> "tuple[Simulator, list[Host], HarmlessDeployment, Controller]":
    """Hosts h1..hN on ports 1..N of a legacy switch, migrated by the
    HARMLESS Manager over trunk port N+1, with *apps* on the controller.

    Returns ``(sim, hosts, deployment, controller)`` once the handshake
    and the apps' proactive rules have settled.
    """
    sim = Simulator()
    legacy = LegacySwitch(
        sim, "edge", num_ports=num_hosts + 1, processing_delay_s=4e-6
    )
    hosts = make_hosts(sim, num_hosts)
    for index, host in enumerate(hosts):
        Link(host.port0, legacy.port(index + 1))
    mib, _ = attach_bridge_mib(legacy)
    driver = get_network_driver("sim-ios")(
        DeviceConnection(agent=SnmpAgent(mib), hostname="edge")
    )
    driver.open()
    controller = _controller(sim, apps)
    deployment = HarmlessManager(sim, controller=controller).migrate(
        legacy,
        driver,
        trunk_port=num_hosts + 1,
        controller_latency_s=controller_latency_s,
    )
    sim.run(until=0.05)
    return sim, hosts, deployment, controller


def build_ideal_site(
    num_hosts: int, apps: list
) -> "tuple[Simulator, list[Host], SoftSwitch, Controller]":
    """The reference: the same hosts directly on one software OpenFlow
    switch.  Returns ``(sim, hosts, switch, controller)``, settled."""
    sim = Simulator()
    switch = SoftSwitch(sim, "ideal", datapath_id=0x100)
    hosts = make_hosts(sim, num_hosts)
    for index, host in enumerate(hosts):
        Link(host.port0, switch.add_port(index + 1))
    controller = _controller(sim, apps)
    controller.connect(switch, latency_s=50e-6)
    sim.run(until=0.05)
    return sim, hosts, switch, controller


class TransparencyHarness:
    """Builds paired environments and runs differential experiments."""

    def __init__(self, num_hosts: int, app_factory: AppFactory) -> None:
        self.num_hosts = num_hosts
        self.app_factory = app_factory

    def run(
        self, traffic: TrafficScript, horizon_s: float = 5.0
    ) -> DifferentialResult:
        """Drive both environments with *traffic* and diff the outcome."""
        envs = []
        for kind, build in (
            ("harmless", build_harmless_site),
            ("ideal", build_ideal_site),
        ):
            sim, hosts, _, controller = build(self.num_hosts, self.app_factory())
            env = Environment(kind=kind, sim=sim, hosts=hosts, controller=controller)
            traffic(env)
            env.sim.run(until=env.sim.now + horizon_s)
            envs.append(env)
        harmless_obs, ideal_obs = (env.observations() for env in envs)
        mismatches = []
        for host_name in sorted(set(harmless_obs) | set(ideal_obs)):
            mine = harmless_obs.get(host_name)
            theirs = ideal_obs.get(host_name)
            if mine != theirs:
                mismatches.append(
                    f"{host_name}: harmless={mine!r} ideal={theirs!r}"
                )
        return DifferentialResult(
            equivalent=not mismatches,
            mismatches=mismatches,
            harmless_obs=harmless_obs,
            ideal_obs=ideal_obs,
        )


def random_udp_traffic(
    seed: int, num_messages: int = 40, window_s: float = 2.0
) -> TrafficScript:
    """A seeded random unicast UDP workload (same in both environments)."""

    def script(env: Environment) -> None:
        rng = random.Random(seed)
        for index in range(num_messages):
            sender, receiver = rng.sample(env.hosts, 2)
            delay = rng.uniform(0.0, window_s)
            payload = f"msg-{index}".encode()
            port = rng.choice([4000, 5000, 6000])
            env.sim.schedule(
                delay,
                lambda s=sender, r=receiver, p=payload, dp=port, i=index: s.send_udp(
                    r.ip, dp, p, src_port=10000 + i % 1000
                ),
            )

    return script
