"""Data-plane transparency verification by differential testing.

The architectural property everything rests on: a controller program
cannot tell a HARMLESS-migrated legacy switch from an ideal OpenFlow
switch.  The harness builds both environments with identical hosts and
identical controller apps, drives both with the same seeded traffic,
and diffs what the hosts observed.

:func:`build_harmless_site` and :func:`build_ideal_site` are the two
environments, and the one site builder the tests and the bench share.
The paper's three use cases are sites built on it
(:func:`build_dmz_site`, :func:`build_lb_site`, :func:`build_pc_site`),
and each is also a datapath rig: the claims table checks that a
:func:`run_datapath_pass` is served compiled, and
``benchmarks/bench_tiers.py`` times the rig compiled vs interpreted.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.apps import (
    ArpResponderApp,
    Backend,
    DmzPolicyApp,
    LearningSwitchApp,
    LoadBalancerApp,
    ParentalControlApp,
    Vm,
)
from repro.controller.core import Controller
from repro.legacy.switch import LegacySwitch
from repro.mgmt import DeviceConnection, get_network_driver
from repro.net.addresses import IPv4Address, MACAddress
from repro.net.build import udp_frame
from repro.net.dns import DnsMessage, DnsResourceRecord
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


# ------------------------------------------------------------- use cases

DMZ_TENANTS = 3
DMZ_VMS_PER_TENANT = 2


def build_dmz_site():
    """Use case (b): tenants of VMs on a migrated switch, intra-tenant
    traffic allowed, cross-tenant denied.  Returns ``(sim, hosts,
    deployment, dmz)``; host *i* is VM ``t<tenant>vm<member>``."""
    vms = []
    for tenant in range(DMZ_TENANTS):
        for member in range(DMZ_VMS_PER_TENANT):
            index = tenant * DMZ_VMS_PER_TENANT + member
            vms.append(
                Vm(
                    name=f"t{tenant}vm{member}",
                    ip=IPv4Address(f"10.0.0.{index + 1}"),
                    mac=MACAddress(0x020000000001 + index),
                    port=index + 1,
                )
            )
    allowed = {
        pair
        for tenant in range(DMZ_TENANTS)
        for pair in itertools.combinations(
            [f"t{tenant}vm{m}" for m in range(DMZ_VMS_PER_TENANT)], 2
        )
    }
    dmz = DmzPolicyApp(vms=vms, allowed_pairs=allowed)
    sim, hosts, deployment, _ = build_harmless_site(len(vms), [dmz])
    return sim, hosts, deployment, dmz


LB_VIP = IPv4Address("10.0.0.100")
LB_VIP_MAC = MACAddress("02:00:00:00:0f:00")
LB_CLIENTS = 12
LB_BACKENDS = 3


def build_lb_site(num_clients: int = LB_CLIENTS):
    """Use case (a): clients send web requests to a VIP, and a select
    group spreads them over backends by source IP.  Returns ``(sim,
    clients, backends, deployment)``; each backend serves UDP port 80."""
    lb_backends = [
        Backend(
            ip=IPv4Address(f"10.0.0.{num_clients + 1 + i}"),
            mac=MACAddress(0x020000000001 + num_clients + i),
            port=num_clients + 1 + i,
        )
        for i in range(LB_BACKENDS)
    ]
    apps = [
        ArpResponderApp(bindings={LB_VIP: LB_VIP_MAC}),
        LoadBalancerApp(vip=LB_VIP, vip_mac=LB_VIP_MAC, backends=lb_backends),
        LearningSwitchApp(),
    ]
    sim, hosts, deployment, _ = build_harmless_site(num_clients + LB_BACKENDS, apps)
    deployment.s4.ss2.select_hash_fields = ("ipv4_src",)
    clients = hosts[:num_clients]
    backends = hosts[num_clients:]
    for backend in backends:
        backend.serve_udp(80, lambda h, ip, sp, dp, pl: None)
    return sim, clients, backends, deployment


PC_USERS = 3
PC_SITES = ["news.example", "games.example", "video.example"]
PC_ZONE = {name: IPv4Address(f"10.0.0.{200 + i}") for i, name in enumerate(PC_SITES)}


def build_pc_site():
    """Use case (c): parental control, users blocked from sites at DNS
    resolution time and by L3 drops once addresses are learned.  Returns
    ``(sim, users, resolver, pc, deployment)``; the resolver answers
    ``PC_ZONE`` on UDP port 53."""
    pc = ParentalControlApp()
    sim, hosts, deployment, _ = build_harmless_site(
        PC_USERS + 1, [pc, LearningSwitchApp()]
    )
    users = hosts[:PC_USERS]
    resolver = hosts[PC_USERS]

    def dns_server(host, src_ip, src_port, dst_port, payload):
        query = DnsMessage.from_bytes(payload)
        name = query.questions[0].name
        if name in PC_ZONE:
            response = query.make_response(
                [DnsResourceRecord.a_record(name, PC_ZONE[name])]
            )
        else:
            response = query.make_response(rcode=3)
        host.send_udp(src_ip, src_port, response.to_bytes(), src_port=53)

    resolver.serve_udp(53, dns_server)
    return sim, users, resolver, pc, deployment


def resolve(user: Host, resolver: Host, name: str, txid: int, results: list) -> None:
    """*user* looks *name* up; the answer lands in *results* as
    ``(user name, name, rcode)``."""

    def on_reply(h, src_ip, src_port, dst_port, payload):
        results.append((user.name, name, DnsMessage.from_bytes(payload).rcode))

    user.serve_udp(5353, on_reply)
    user.send_udp(resolver.ip, 53, DnsMessage.query(txid, name).to_bytes(), src_port=5353)


# A use case as a datapath rig: ``(sim, switch, stream, in_port)``,
# SS_2 of the settled site with the use case's rules installed and a
# stream of steady-state frames that arrive on *in_port*.  The stream's
# L4 ports vary per frame while the use case's rules match L3 only, so
# the compiled program's shrunk flow key folds every port combination
# of a pair onto one cached decision, where the interpreter classifies
# each frame.

#: Frames in a rig's stream: longer than any pass.
RIG_STREAM = 16_384
#: Frames a :func:`run_datapath_pass` hands its switch at a time.
RIG_BURST = 32


def dmz_datapath_rig(specialize: bool) -> tuple:
    """Intra-tenant traffic through the proactive pair-allow rules."""
    sim, _, deployment, dmz = build_dmz_site()
    pairs = []
    for a_name, b_name in sorted(dmz.allowed_pairs):
        a, b = dmz.vms[a_name], dmz.vms[b_name]
        pairs += [(a, b), (b, a)]
    stream = []
    for index in range(RIG_STREAM):
        a, b = pairs[index % len(pairs)]
        sport = 1024 + (index * 7) % 16_384
        dport = 2048 + (index * 13) % 16_384
        stream.append(udp_frame(a.mac, b.mac, a.ip, b.ip, sport, dport, b"x" * 32))
    deployment.s4.ss2.specialize = specialize
    return sim, deployment.s4.ss2, stream, 1


def lb_datapath_rig(specialize: bool) -> tuple:
    """Client requests to the VIP, spread over the backends by the
    select group's ``ipv4_src`` hash: the compiled program bakes one
    bucket per client into its cache, the interpreter hashes each frame."""
    sim, clients, _, deployment = build_lb_site()
    stream = []
    for index in range(RIG_STREAM):
        client = clients[index % len(clients)]
        sport = 1024 + (index * 11) % 16_384
        stream.append(
            udp_frame(client.mac, LB_VIP_MAC, client.ip, LB_VIP, sport, 80, b"GET /")
        )
    deployment.s4.ss2.specialize = specialize
    return sim, deployment.s4.ss2, stream, 1


def pc_datapath_rig(specialize: bool) -> tuple:
    """Users' traffic to blocked sites once their addresses are learned:
    pure L3 drop rules (the DNS packet-in rules compile too, and this
    traffic never hits them)."""
    sim, users, resolver, pc, deployment = build_pc_site()
    results = []
    for txid, site in enumerate(PC_SITES):
        resolve(users[0], resolver, site, txid + 1, results)  # learn the IPs
    sim.run(until=sim.now + 2.0)
    for user in users:
        for site in PC_SITES:
            pc.block(user.ip, site)
    sim.run(until=sim.now + 0.5)
    stream = []
    for index in range(RIG_STREAM):
        user = users[index % len(users)]
        site_ip = PC_ZONE[PC_SITES[(index // len(users)) % len(PC_SITES)]]
        sport = 1024 + (index * 17) % 16_384
        stream.append(
            udp_frame(user.mac, resolver.mac, user.ip, site_ip, sport, 8080, b"x")
        )
    deployment.s4.ss2.specialize = specialize
    return sim, deployment.s4.ss2, stream, 1


def run_datapath_pass(rig: tuple, packets: int) -> dict:
    """The rig's first *packets* frames through its switch,
    ``RIG_BURST`` at a time, and the site run until it settles.

    Returns ``compiles``, the programs the switch has built, and
    ``specialized_share``: the frames of this pass the compiled program
    served over the frames of this pass (frames served while the site
    was set up, or by an earlier pass, are not counted).
    """
    sim, switch, stream, in_port = rig
    frames = stream[:packets]
    served_before = switch.specialized_frames
    process_batch = switch.process_batch
    for start in range(0, packets, RIG_BURST):
        process_batch(in_port, frames[start : start + RIG_BURST])
    sim.run()
    served = switch.specialized_frames - served_before
    return {
        "compiles": switch.program_compiles,
        "specialized_share": served / packets if switch.specialize else 0.0,
    }
