"""Tests for the host mini-stack: ARP, ping, UDP, simplified TCP."""

import pytest

from repro.net import IPv4Address, MACAddress
from repro.netsim import Host, Simulator
from repro.netsim.link import Link


def make_hosts(n=2):
    """n hosts wired through direct links is wrong for n>2; for 2 it's a cable."""
    sim = Simulator()
    hosts = [
        Host(
            sim,
            f"h{i}",
            MACAddress(0x020000000001 + i),
            IPv4Address(f"10.0.0.{i + 1}"),
        )
        for i in range(n)
    ]
    return sim, hosts


class TestArpAndPing:
    def test_ping_resolves_arp_then_echoes(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        h1.ping(h2.ip)
        sim.run(until=0.5)
        rtts = h1.rtts()
        assert len(rtts) == 1
        assert rtts[0] > 0
        # Both ends learned each other.
        assert h1.resolve(h2.ip) == h2.mac
        assert h2.resolve(h1.ip) == h1.mac

    def test_second_ping_skips_arp(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        h1.ping(h2.ip)
        sim.run(until=0.5)
        first_tx = h1.port0.tx_frames
        h1.ping(h2.ip)
        sim.run(until=1.0)
        # Only the echo request went out the second time (no ARP).
        assert h1.port0.tx_frames == first_tx + 1
        assert len(h1.rtts()) == 2

    def test_ping_unreachable_is_lost(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        h1.ping(IPv4Address("10.0.0.99"))
        sim.run(until=2.0)
        assert h1.ping_loss_rate == 1.0

    def test_arp_entry_expires(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        h1.ping(h2.ip)
        sim.run(until=0.5)
        assert h1.resolve(h2.ip) is not None
        sim.schedule(100.0, lambda: None)
        sim.run()
        assert h1.resolve(h2.ip) is None

    def test_pending_frames_flushed_after_reply(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        # Two packets before any ARP entry exists: one ARP request total.
        h1.send_udp(h2.ip, 9999, b"one")
        h1.send_udp(h2.ip, 9999, b"two")
        sim.run(until=0.5)
        payloads = [payload for *_, payload in h2.udp_received]
        assert payloads == [b"one", b"two"]


class TestUdp:
    def test_udp_handler_invoked(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        seen = []

        def handler(host, src_ip, src_port, dst_port, payload):
            seen.append((src_ip, dst_port, payload))

        h2.serve_udp(5353, handler)
        h1.send_udp(h2.ip, 5353, b"hello")
        sim.run(until=0.5)
        assert seen == [(h1.ip, 5353, b"hello")]

    def test_udp_reply_path(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)

        def echo_server(host, src_ip, src_port, dst_port, payload):
            host.send_udp(src_ip, src_port, payload.upper())

        h2.serve_udp(7, echo_server)
        h1.send_udp(h2.ip, 7, b"shout", src_port=50000)
        sim.run(until=0.5)
        replies = [p for _, _, dst, p in h1.udp_received if dst == 50000]
        assert replies == [b"SHOUT"]

    def test_ephemeral_ports_increment(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        p1 = h1.send_udp(h2.ip, 1, b"a")
        p2 = h1.send_udp(h2.ip, 1, b"b")
        assert p2 == p1 + 1


class TestTcp:
    def test_request_response_exchange(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        responses = []

        def server(host, src_ip, src_port, request):
            assert request == b"GET /"
            return b"200 OK"

        h2.serve_tcp(80, server)
        h1.tcp_request(h2.ip, 80, b"GET /", on_response=responses.append)
        sim.run(until=0.5)
        assert responses == [b"200 OK"]

    def test_two_parallel_connections(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        responses = []
        h2.serve_tcp(80, lambda host, ip, port, req: b"resp:" + req)
        h1.tcp_request(h2.ip, 80, b"a", on_response=responses.append)
        h1.tcp_request(h2.ip, 80, b"b", on_response=responses.append)
        sim.run(until=0.5)
        assert sorted(responses) == [b"resp:a", b"resp:b"]

    def test_no_server_means_no_response(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        responses = []
        h1.tcp_request(h2.ip, 8080, b"x", on_response=responses.append)
        sim.run(until=0.5)
        assert responses == []


class TestHostFiltering:
    def test_foreign_unicast_ignored(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        from repro.net.build import udp_frame

        stray = udp_frame(
            h1.mac,
            MACAddress("02:00:00:00:99:99"),
            h1.ip,
            h2.ip,
            1,
            2,
            b"not-for-you",
        )
        h1.port0.send(stray)
        sim.run(until=0.1)
        assert h2.udp_received == []
        assert h2.rx_unhandled == 1

    def test_tagged_frame_ignored(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        from repro.net.build import udp_frame

        tagged = udp_frame(h1.mac, h2.mac, h1.ip, h2.ip, 1, 2, b"x", vlan_id=101)
        h1.port0.send(tagged)
        sim.run(until=0.1)
        assert h2.udp_received == []

    def test_foreign_ip_ignored(self):
        sim, (h1, h2) = make_hosts()
        Link(h1.port0, h2.port0)
        from repro.net.build import udp_frame

        wrong_ip = udp_frame(
            h1.mac, h2.mac, h1.ip, IPv4Address("10.0.0.50"), 1, 2, b"x"
        )
        h1.port0.send(wrong_ip)
        sim.run(until=0.1)
        assert h2.udp_received == []


class TestDropReasons:
    """Every way a frame dies in the host stack, walked with a crafted
    frame: each bumps exactly its reason, and ``rx_unhandled`` stays
    the sum of the receive-side ones."""

    @staticmethod
    def walk(sim, hosts, act, reason, count=1):
        def ledger():
            return {
                (host.name, name): value
                for host in hosts for name, value in host.drops.items() if value
            }

        before = ledger()
        act()
        sim.run()
        after = ledger()
        moved = {key: after[key] - before.get(key, 0) for key in after
                 if after[key] != before.get(key, 0)}
        assert moved == {reason: count}

    def test_every_drop_site_counts_its_reason(self):
        from repro.net import EthernetFrame
        from repro.net.build import tcp_frame, udp_frame
        from repro.net.ethernet import ETHERTYPE_IPV4
        from repro.net.ipv4 import IPv4Packet
        from repro.net.tcp import TcpSegment

        sim, hosts = make_hosts()
        sender, receiver = hosts
        Link(sender.port0, receiver.port0)
        sender.ping(receiver.ip)  # both learn the other: the walks send no ARP
        sim.run()
        src, dst = sender.mac, receiver.mac
        src_ip, dst_ip = sender.ip, receiver.ip
        stranger = MACAddress("02:00:00:00:99:99")
        gre = IPv4Packet(src=src_ip, dst=dst_ip, protocol=47, payload=b"gre")
        sites = [
            (udp_frame(src, dst, src_ip, dst_ip, 1, 2, b"x", vlan_id=101), "tagged"),
            (udp_frame(src, stranger, src_ip, dst_ip, 1, 2, b"x"), "not-for-me:mac"),
            (EthernetFrame(dst=dst, src=src, ethertype=0x88B5, payload=b"\x00" * 46),
             "unknown-ethertype"),
            (EthernetFrame(dst=dst, src=src, ethertype=ETHERTYPE_IPV4, payload=b"\x45\x00"),
             "malformed"),
            (udp_frame(src, dst, src_ip, IPv4Address("10.0.0.50"), 1, 2, b"x"),
             "not-for-me:ip"),
            (EthernetFrame(dst=dst, src=src, ethertype=ETHERTYPE_IPV4, payload=gre.to_bytes()),
             "unknown-ip-protocol"),
            (tcp_frame(src, dst, src_ip, dst_ip, TcpSegment(5000, 6000)), "tcp-no-connection"),
        ]
        for frame, reason in sites:
            self.walk(sim, hosts, lambda: sender.port0.send(frame), (receiver.name, reason))
        assert receiver.rx_unhandled == len(sites) and sender.rx_unhandled == 0

        def park_two():
            sender.send_udp(IPv4Address("10.0.0.99"), 9, b"a")
            sender.send_udp(IPv4Address("10.0.0.99"), 9, b"b")

        self.walk(sim, hosts, park_two, (sender.name, "arp-timeout"), count=2)
        assert sender.rx_unhandled == 0  # not a receive-side reason

    def test_arp_timeout_is_one_bound_method_event(self):
        sim, (sender, receiver) = make_hosts()
        Link(sender.port0, receiver.port0)
        scheduled = []

        def recording(delay, callback, *args, schedule=sim.schedule):
            scheduled.append((callback, args))
            return schedule(delay, callback, *args)

        sim.schedule = recording
        sender.send_udp(IPv4Address("10.0.0.99"), 9, b"a")
        sender.send_udp(IPv4Address("10.0.0.99"), 9, b"b")  # parks behind the first
        assert scheduled == [(sender._arp_timeout, (IPv4Address("10.0.0.99"),))]
        assert scheduled[0][0].__self__ is sender
