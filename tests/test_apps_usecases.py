"""Tests for the three demo use cases, each run through real HARMLESS.

Every test here builds the full stack — hosts on a legacy switch,
migrated by the Manager, apps on the SDN controller — because the
paper's demo point is that these OpenFlow programs run unmodified on a
migrated dumb switch.  What the ``UC-*`` rows of ``test_paper_claims.py``
already check (load balancing, the DMZ matrix and runtime flips, the
parental-control matrix and flips) is not checked again here.
"""

import pytest

from repro.apps import DmzPolicyApp, LearningSwitchApp, ParentalControlApp, Vm
from repro.core.verify import build_harmless_site
from repro.net import IPv4Address, MACAddress
from repro.net.dns import DNS_RCODE_REFUSED, DnsMessage, DnsResourceRecord


class TestDmzUseCase:
    """Use case (b): pairwise VM access policy, default deny."""

    def build(self):
        vms = [
            Vm(
                name=f"vm{i + 1}",
                ip=IPv4Address(f"10.0.0.{i + 1}"),
                mac=MACAddress(0x020000000001 + i),
                port=i + 1,
            )
            for i in range(3)
        ]
        dmz = DmzPolicyApp(vms=vms, allowed_pairs={("vm1", "vm2")})
        sim, hosts, _, _ = build_harmless_site(3, [dmz])
        return sim, hosts

    def test_allowed_pair_can_talk(self):
        sim, (h1, h2, h3) = self.build()
        h1.ping(h2.ip)
        sim.run(until=2.0)
        assert len(h1.rtts()) == 1

    def test_unknown_vm_in_pair_rejected(self):
        vms = [
            Vm(
                name="vm1",
                ip=IPv4Address("10.0.0.1"),
                mac=MACAddress(0x02AA),
                port=1,
            )
        ]
        with pytest.raises(ValueError):
            DmzPolicyApp(vms=vms, allowed_pairs={("vm1", "ghost")})


class TestParentalControlUseCase:
    """Use case (c): per-user site blocking, flipped on the fly."""

    def build(self):
        pc = ParentalControlApp()
        learning = LearningSwitchApp()
        sim, hosts, _, _ = build_harmless_site(3, [pc, learning])
        kid, parent, resolver = hosts

        zone = {
            "allowed.example": IPv4Address("10.0.0.200"),
            "blocked.example": IPv4Address("10.0.0.201"),
        }

        def dns_server(host, src_ip, src_port, dst_port, payload):
            query = DnsMessage.from_bytes(payload)
            name = query.questions[0].name
            if name in zone:
                answer = DnsResourceRecord.a_record(name, zone[name])
                response = query.make_response([answer])
            else:
                response = query.make_response(rcode=3)
            host.send_udp(src_ip, src_port, response.to_bytes(), src_port=53)

        resolver.serve_udp(53, dns_server)
        return sim, kid, parent, resolver, pc

    def resolve(self, sim, host, resolver, name, txid):
        results = []

        def on_reply(h, src_ip, src_port, dst_port, payload):
            results.append(DnsMessage.from_bytes(payload))

        host.serve_udp(5353, on_reply)
        query = DnsMessage.query(txid, name)
        host.send_udp(resolver.ip, 53, query.to_bytes(), src_port=5353)
        return results

    def test_unblocked_name_resolves(self):
        sim, kid, parent, resolver, pc = self.build()
        results = self.resolve(sim, kid, resolver, "allowed.example", 1)
        sim.run(until=2.0)
        assert len(results) == 1
        assert results[0].rcode == 0
        assert results[0].answers[0].address == IPv4Address("10.0.0.200")

    def test_blocked_name_refused_for_kid_only(self):
        sim, kid, parent, resolver, pc = self.build()
        pc.block(kid.ip, "blocked.example")
        kid_results = self.resolve(sim, kid, resolver, "blocked.example", 2)
        parent_results = self.resolve(sim, parent, resolver, "blocked.example", 3)
        sim.run(until=2.0)
        assert len(kid_results) == 1
        assert kid_results[0].rcode == DNS_RCODE_REFUSED
        assert len(parent_results) == 1
        assert parent_results[0].rcode == 0
        assert pc.queries_refused == 1

    def test_ip_drop_installed_after_dns_learning(self):
        """Once the name's IP flows past, L3 drops stop cached clients."""
        sim, kid, parent, resolver, pc = self.build()
        # Parent resolves first: the app learns blocked.example -> .201.
        self.resolve(sim, parent, resolver, "blocked.example", 6)
        sim.run(until=2.0)
        pc.block(kid.ip, "blocked.example")
        sim.run(until=2.5)
        # Kid pings the (cached) address directly: dropped at L3.
        kid.ping(IPv4Address("10.0.0.201"))
        sim.run(until=4.5)
        assert kid.ping_loss_rate == 1.0
