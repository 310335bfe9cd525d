"""Tests for the DNS codec and the frame builders."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import (
    DnsMessage,
    DnsResourceRecord,
    IPv4Address,
    MACAddress,
    PacketDecodeError,
)
from repro.net.build import (
    arp_frame,
    parse_arp,
    parse_ipv4,
    parse_udp,
    tcp_frame,
    udp_frame,
)
from repro.net.dns import DNS_RCODE_NXDOMAIN, decode_name, encode_name
from repro.net.tcp import TCP_FLAG_SYN, TcpSegment
from repro.net.arp import ArpPacket

MAC_A = MACAddress("02:00:00:00:00:01")
MAC_B = MACAddress("02:00:00:00:00:02")
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")

label = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
    min_size=1,
    max_size=20,
).filter(lambda s: not s.startswith("-") and not s.endswith("-"))
hostnames = st.lists(label, min_size=1, max_size=4).map(".".join)


class TestDnsNames:
    def test_encode_simple(self):
        assert encode_name("a.bc") == b"\x01a\x02bc\x00"

    def test_root(self):
        assert encode_name("") == b"\x00"
        assert encode_name(".") == b"\x00"

    def test_decode(self):
        name, offset = decode_name(b"\x03www\x07example\x03com\x00rest", 0)
        assert name == "www.example.com"
        assert offset == 17

    def test_long_label_rejected(self):
        with pytest.raises(ValueError):
            encode_name("a" * 64)

    def test_truncated_raises(self):
        with pytest.raises(PacketDecodeError):
            decode_name(b"\x05ab", 0)

    @given(hostnames)
    def test_round_trip(self, name):
        encoded = encode_name(name)
        decoded, offset = decode_name(encoded, 0)
        assert decoded == name
        assert offset == len(encoded)


class TestDnsMessage:
    def test_query_round_trip(self):
        query = DnsMessage.query(0x1234, "www.example.com")
        parsed = DnsMessage.from_bytes(query.to_bytes())
        assert parsed == query

    def test_response_with_a_record(self):
        query = DnsMessage.query(7, "site.test")
        answer = DnsResourceRecord.a_record("site.test", IPv4Address("1.2.3.4"))
        response = query.make_response([answer])
        parsed = DnsMessage.from_bytes(response.to_bytes())
        assert parsed.is_response
        assert parsed.transaction_id == 7
        assert parsed.answers[0].address == IPv4Address("1.2.3.4")

    def test_nxdomain_rcode(self):
        response = DnsMessage.query(1, "nope.test").make_response(
            rcode=DNS_RCODE_NXDOMAIN
        )
        parsed = DnsMessage.from_bytes(response.to_bytes())
        assert parsed.rcode == DNS_RCODE_NXDOMAIN
        assert parsed.answers == []

    def test_non_a_record_address_raises(self):
        record = DnsResourceRecord(name="x.test", rtype=16, rdata=b"text")
        with pytest.raises(ValueError):
            record.address

    def test_truncated_message_raises(self):
        with pytest.raises(PacketDecodeError):
            DnsMessage.from_bytes(b"\x00" * 11)

    @given(st.integers(min_value=0, max_value=0xFFFF), hostnames)
    def test_query_round_trip_property(self, transaction_id, name):
        query = DnsMessage.query(transaction_id, name)
        assert DnsMessage.from_bytes(query.to_bytes()) == query


class TestBuilders:
    def test_udp_frame_parses_back(self):
        frame = udp_frame(MAC_A, MAC_B, IP_A, IP_B, 1234, 53, b"query")
        result = parse_udp(frame)
        assert result is not None
        packet, datagram = result
        assert packet.src == IP_A
        assert datagram.dst_port == 53
        assert datagram.payload == b"query"

    def test_udp_frame_with_vlan(self):
        frame = udp_frame(MAC_A, MAC_B, IP_A, IP_B, 1, 2, vlan_id=101)
        assert frame.vlan_id == 101

    def test_tcp_frame_parses_back(self):
        segment = TcpSegment(src_port=5555, dst_port=80, flags=TCP_FLAG_SYN)
        frame = tcp_frame(MAC_A, MAC_B, IP_A, IP_B, segment)
        packet = parse_ipv4(frame)
        assert packet is not None
        assert TcpSegment.from_bytes(packet.payload, packet.src, packet.dst) == segment

    def test_arp_request_frame_is_broadcast(self):
        frame = arp_frame(ArpPacket.request(MAC_A, IP_A, IP_B))
        assert frame.dst.is_broadcast
        arp = parse_arp(frame)
        assert arp is not None
        assert arp.target_ip == IP_B

    def test_arp_reply_frame_is_unicast(self):
        reply = ArpPacket.request(MAC_A, IP_A, IP_B).make_reply(MAC_B)
        frame = arp_frame(reply)
        assert frame.dst == MAC_A

    def test_parse_helpers_return_none_on_mismatch(self):
        frame = udp_frame(MAC_A, MAC_B, IP_A, IP_B, 1, 2)
        assert parse_arp(frame) is None
