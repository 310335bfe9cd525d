"""Tests for ARP / IPv4 / ICMP / UDP / TCP wire formats, and every
decoder's boundary on hostile bytes (DNS's included)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    ARP_OP_REPLY,
    ARP_OP_REQUEST,
    ArpPacket,
    IcmpPacket,
    IPv4Address,
    IPv4Packet,
    MACAddress,
    PacketDecodeError,
    TCP_FLAG_ACK,
    TCP_FLAG_SYN,
    TcpSegment,
    UdpDatagram,
)
from repro.net.checksum import internet_checksum
from repro.net.dns import DnsMessage, DnsResourceRecord

from differential import SCALE

IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")
MAC_A = MACAddress("00:00:00:00:00:0a")
MAC_B = MACAddress("00:00:00:00:00:0b")


class TestChecksum:
    def test_rfc1071_example(self):
        # Example from RFC 1071 §3: words 0001 f203 f4f5 f6f7
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == ~0xDDF2 & 0xFFFF

    def test_zero_buffer(self):
        assert internet_checksum(b"\x00" * 8) == 0xFFFF

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x12") == internet_checksum(b"\x12\x00")

    @given(st.binary(min_size=0, max_size=128))
    def test_embedding_checksum_verifies(self, data):
        # Real headers place the checksum at an even offset, so align first.
        if len(data) % 2:
            data += b"\x00"
        checksum = internet_checksum(data)
        assert internet_checksum(data + checksum.to_bytes(2, "big")) == 0


class TestArp:
    def test_request_round_trip(self):
        request = ArpPacket.request(MAC_A, IP_A, IP_B)
        parsed = ArpPacket.from_bytes(request.to_bytes())
        assert parsed == request
        assert parsed.opcode == ARP_OP_REQUEST

    @given(
        st.sampled_from([ARP_OP_REQUEST, ARP_OP_REPLY]),
        st.integers(min_value=0, max_value=(1 << 48) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=(1 << 48) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_round_trip_property(self, opcode, sender_mac, sender_ip, target_mac, target_ip):
        # The decode builds its packet without the dataclass's checks:
        # it must equal one built through them, field types included.
        packet = ArpPacket(opcode, sender_mac, sender_ip, target_mac, target_ip)
        parsed = ArpPacket.from_bytes(packet.to_bytes())
        assert parsed == packet
        assert [type(parsed.sender_mac), type(parsed.sender_ip)] == [MACAddress, IPv4Address]
        assert [type(parsed.target_mac), type(parsed.target_ip)] == [MACAddress, IPv4Address]

    @pytest.mark.parametrize("opcode", [0, 3, 0xFFFF])
    def test_unknown_opcode_is_a_decode_error(self, opcode):
        raw = bytearray(ArpPacket.request(MAC_A, IP_A, IP_B).to_bytes())
        raw[6:8] = opcode.to_bytes(2, "big")
        with pytest.raises(PacketDecodeError):
            ArpPacket.from_bytes(bytes(raw))

    def test_reply_swaps_direction(self):
        request = ArpPacket.request(MAC_A, IP_A, IP_B)
        reply = request.make_reply(MAC_B)
        assert reply.opcode == ARP_OP_REPLY
        assert reply.sender_ip == IP_B
        assert reply.sender_mac == MAC_B
        assert reply.target_ip == IP_A
        assert reply.target_mac == MAC_A

    def test_cannot_reply_to_reply(self):
        reply = ArpPacket.request(MAC_A, IP_A, IP_B).make_reply(MAC_B)
        with pytest.raises(ValueError):
            reply.make_reply(MAC_A)

    def test_short_packet_raises(self):
        with pytest.raises(PacketDecodeError):
            ArpPacket.from_bytes(b"\x00" * 27)

    def test_wrong_htype_raises(self):
        raw = bytearray(ArpPacket.request(MAC_A, IP_A, IP_B).to_bytes())
        raw[0:2] = b"\x00\x02"
        with pytest.raises(PacketDecodeError):
            ArpPacket.from_bytes(bytes(raw))

    def test_bad_opcode_rejected(self):
        with pytest.raises(ValueError):
            ArpPacket(
                opcode=9,
                sender_mac=MAC_A,
                sender_ip=IP_A,
                target_mac=MAC_B,
                target_ip=IP_B,
            )


class TestIPv4Packet:
    def test_round_trip(self):
        packet = IPv4Packet(src=IP_A, dst=IP_B, protocol=17, payload=b"data", ttl=33)
        parsed = IPv4Packet.from_bytes(packet.to_bytes())
        assert parsed == packet

    def test_checksum_is_valid(self):
        raw = IPv4Packet(src=IP_A, dst=IP_B, protocol=6).to_bytes()
        assert internet_checksum(raw[:20]) == 0

    def test_corrupted_header_raises(self):
        raw = bytearray(IPv4Packet(src=IP_A, dst=IP_B, protocol=6).to_bytes())
        raw[8] ^= 0xFF  # flip TTL without fixing checksum
        with pytest.raises(PacketDecodeError):
            IPv4Packet.from_bytes(bytes(raw))

    def test_total_length(self):
        packet = IPv4Packet(src=IP_A, dst=IP_B, protocol=17, payload=b"12345")
        assert packet.total_length == 25
        assert len(packet.to_bytes()) == 25

    def test_options_round_trip(self):
        packet = IPv4Packet(
            src=IP_A, dst=IP_B, protocol=6, options=b"\x94\x04\x00\x00"
        )
        parsed = IPv4Packet.from_bytes(packet.to_bytes())
        assert parsed.options == b"\x94\x04\x00\x00"
        assert parsed.ihl == 6

    def test_unpadded_options_rejected(self):
        with pytest.raises(ValueError):
            IPv4Packet(src=IP_A, dst=IP_B, protocol=6, options=b"\x01")

    def test_non_v4_rejected(self):
        raw = bytearray(IPv4Packet(src=IP_A, dst=IP_B, protocol=6).to_bytes())
        raw[0] = (6 << 4) | 5
        with pytest.raises(PacketDecodeError):
            IPv4Packet.from_bytes(bytes(raw))

    def test_short_buffer_rejected(self):
        with pytest.raises(PacketDecodeError):
            IPv4Packet.from_bytes(b"\x45" + b"\x00" * 10)

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=1, max_value=255),
        st.binary(max_size=64),
        st.tuples(
            st.integers(0, 63), st.integers(0, 3), st.integers(0, 0xFFFF),
            st.integers(0, 7), st.integers(0, 0x1FFF),
        ),
        st.integers(0, 10).flatmap(lambda words: st.binary(min_size=4 * words, max_size=4 * words)),
    )
    def test_round_trip_property(self, src, dst, protocol, ttl, payload, header, options):
        # Every header field, so the encoder's packing is checked whole.
        dscp, ecn, identification, flags, fragment_offset = header
        packet = IPv4Packet(
            src=IPv4Address(src),
            dst=IPv4Address(dst),
            protocol=protocol,
            ttl=ttl,
            payload=payload,
            dscp=dscp,
            ecn=ecn,
            identification=identification,
            flags=flags,
            fragment_offset=fragment_offset,
            options=options,
        )
        assert IPv4Packet.from_bytes(packet.to_bytes()) == packet


class TestIcmp:
    def test_echo_round_trip(self):
        echo = IcmpPacket.echo_request(identifier=7, sequence=3, payload=b"ping")
        parsed = IcmpPacket.from_bytes(echo.to_bytes())
        assert parsed == echo

    def test_reply_mirrors_request(self):
        echo = IcmpPacket.echo_request(identifier=7, sequence=3, payload=b"ping")
        reply = echo.make_reply()
        assert reply.icmp_type == 0
        assert reply.identifier == 7
        assert reply.sequence == 3
        assert reply.payload == b"ping"

    def test_reply_to_reply_raises(self):
        with pytest.raises(ValueError):
            IcmpPacket.echo_request(1, 1).make_reply().make_reply()

    def test_corruption_detected(self):
        raw = bytearray(IcmpPacket.echo_request(1, 1, b"abc").to_bytes())
        raw[-1] ^= 0x55
        with pytest.raises(PacketDecodeError):
            IcmpPacket.from_bytes(bytes(raw))

    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0xFFFF),
        st.binary(max_size=64),
    )
    def test_round_trip_property(self, identifier, sequence, payload):
        # The request, the decode and the reply build their message
        # without the dataclass's checks: each must equal one built
        # through them.
        echo = IcmpPacket.echo_request(identifier, sequence, bytearray(payload))
        assert echo == IcmpPacket(8, 0, identifier, sequence, payload)
        assert type(echo.payload) is bytes
        assert IcmpPacket.from_bytes(echo.to_bytes()) == echo
        reply = echo.make_reply()
        assert reply == IcmpPacket(0, 0, identifier, sequence, payload)
        assert IcmpPacket.from_bytes(reply.to_bytes()) == reply
        assert type(reply.payload) is bytes


class TestUdp:
    def test_round_trip(self):
        datagram = UdpDatagram(src_port=5000, dst_port=53, payload=b"query")
        raw = datagram.to_bytes(IP_A, IP_B)
        parsed = UdpDatagram.from_bytes(raw, IP_A, IP_B)
        assert parsed == datagram

    def test_length_field(self):
        datagram = UdpDatagram(src_port=1, dst_port=2, payload=b"12345")
        assert datagram.length == 13
        assert len(datagram.to_bytes(IP_A, IP_B)) == 13

    def test_checksum_mismatch_detected(self):
        raw = bytearray(UdpDatagram(1, 2, b"abc").to_bytes(IP_A, IP_B))
        raw[-1] ^= 0xFF
        with pytest.raises(PacketDecodeError):
            UdpDatagram.from_bytes(bytes(raw), IP_A, IP_B)

    def test_parse_without_ips_skips_checksum(self):
        raw = bytearray(UdpDatagram(1, 2, b"abc").to_bytes(IP_A, IP_B))
        raw[-1] ^= 0xFF
        parsed = UdpDatagram.from_bytes(bytes(raw))
        assert parsed.src_port == 1

    def test_port_range_enforced(self):
        with pytest.raises(ValueError):
            UdpDatagram(src_port=70000, dst_port=1)


class TestTcp:
    def test_round_trip(self):
        segment = TcpSegment(
            src_port=40000,
            dst_port=80,
            seq=1000,
            ack=2000,
            flags=TCP_FLAG_SYN | TCP_FLAG_ACK,
            payload=b"GET",
        )
        raw = segment.to_bytes(IP_A, IP_B)
        assert TcpSegment.from_bytes(raw, IP_A, IP_B) == segment

    def test_flag_names(self):
        segment = TcpSegment(1, 2, flags=TCP_FLAG_SYN | TCP_FLAG_ACK)
        assert segment.flag_names() == "SYN|ACK"
        assert TcpSegment(1, 2).flag_names() == "none"

    def test_options_round_trip(self):
        segment = TcpSegment(1, 2, options=b"\x02\x04\x05\xb4")
        raw = segment.to_bytes(IP_A, IP_B)
        parsed = TcpSegment.from_bytes(raw, IP_A, IP_B)
        assert parsed.options == b"\x02\x04\x05\xb4"
        assert parsed.data_offset == 6

    def test_checksum_mismatch_detected(self):
        raw = bytearray(TcpSegment(1, 2, payload=b"xyz").to_bytes(IP_A, IP_B))
        raw[-2] ^= 0x0F
        with pytest.raises(PacketDecodeError):
            TcpSegment.from_bytes(bytes(raw), IP_A, IP_B)

    def test_unpadded_options_rejected(self):
        with pytest.raises(ValueError):
            TcpSegment(1, 2, options=b"\x01\x02")


# -- decoder boundaries: hostile bytes are refused, never raised through --

_u16 = st.integers(0, 0xFFFF)
_u32 = st.integers(0, (1 << 32) - 1)
_dns_label = st.text("abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=8)


@st.composite
def _dns_message(draw):
    name = ".".join(draw(st.lists(_dns_label, min_size=1, max_size=3)))
    query = DnsMessage.query(draw(_u16), name)
    if not draw(st.booleans()):
        return query
    answers = [DnsResourceRecord.a_record(name, IPv4Address(draw(_u32)), ttl=draw(_u32))]
    return query.make_response(answers, rcode=draw(st.integers(0, 15)))


#: codec -> (decode, encode, a strategy of valid values).  UDP and TCP
#: decode against the pseudo-header's addresses, so their checksums count.
CODECS = {
    "arp": (ArpPacket.from_bytes, ArpPacket.to_bytes, st.builds(
        ArpPacket,
        opcode=st.sampled_from([ARP_OP_REQUEST, ARP_OP_REPLY]),
        sender_mac=st.builds(MACAddress, st.integers(0, (1 << 48) - 1)),
        sender_ip=st.builds(IPv4Address, _u32),
        target_mac=st.builds(MACAddress, st.integers(0, (1 << 48) - 1)),
        target_ip=st.builds(IPv4Address, _u32),
    )),
    "ipv4": (IPv4Packet.from_bytes, IPv4Packet.to_bytes, st.builds(
        IPv4Packet,
        src=st.builds(IPv4Address, _u32),
        dst=st.builds(IPv4Address, _u32),
        protocol=st.integers(0, 255),
        ttl=st.integers(1, 255),
        payload=st.binary(max_size=12),
        identification=_u16,
        flags=st.integers(0, 7),
        fragment_offset=st.integers(0, 0x1FFF),
        options=st.integers(0, 2).flatmap(lambda words: st.binary(min_size=4 * words,
                                                                  max_size=4 * words)),
    )),
    "icmp": (IcmpPacket.from_bytes, IcmpPacket.to_bytes, st.builds(
        IcmpPacket, st.integers(0, 255), st.integers(0, 255), _u16, _u16,
        st.binary(max_size=12),
    )),
    "udp": (
        lambda data: UdpDatagram.from_bytes(data, IP_A, IP_B),
        lambda datagram: datagram.to_bytes(IP_A, IP_B),
        st.builds(UdpDatagram, _u16, _u16, st.binary(max_size=12)),
    ),
    "tcp": (
        lambda data: TcpSegment.from_bytes(data, IP_A, IP_B),
        lambda segment: segment.to_bytes(IP_A, IP_B),
        st.builds(
            TcpSegment, _u16, _u16, seq=_u32, ack=_u32, flags=st.integers(0, 0x3F),
            window=_u16, options=st.sampled_from([b"", b"\x02\x04\x05\xb4"]),
            payload=st.binary(max_size=12),
        ),
    ),
    "dns": (DnsMessage.from_bytes, DnsMessage.to_bytes, _dns_message()),
}


class TestDecoderBoundaries:
    """Every layer's ``from_bytes`` on hostile bytes (ROADMAP item 2b),
    as ``test_net_ethernet.TestDecoderBoundaries`` has it for frames:
    every truncation and every single-bit flip of a valid encoding
    either raises :class:`PacketDecodeError` — which a host counts as a
    ``malformed`` frame and an app skips — or decodes to a value whose
    own encoding decodes back to it.  No other exception escapes."""

    @pytest.mark.parametrize("codec", list(CODECS))
    @settings(max_examples=50 * SCALE, deadline=None)
    @given(data=st.data())
    def test_every_truncation_and_bit_flip_decodes_or_is_refused(self, codec, data):
        decode, encode, values = CODECS[codec]
        value = data.draw(values)
        raw = encode(value)
        assert decode(raw) == value
        inputs = [raw[:end] for end in range(len(raw))]
        flipped = bytearray(raw)
        for bit in range(8 * len(raw)):
            flipped[bit >> 3] ^= 0x80 >> (bit & 7)
            inputs.append(bytes(flipped))
            flipped[bit >> 3] ^= 0x80 >> (bit & 7)
        for hostile in inputs:
            try:
                decoded = decode(hostile)
            except PacketDecodeError:
                continue
            assert decode(encode(decoded)) == decoded, (codec, hostile.hex())
