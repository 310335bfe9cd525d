"""Unit tests for MAC/IPv4 address value types."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import BROADCAST_MAC, IPv4Address, MACAddress


class TestMACAddress:
    def test_parse_colon_form(self):
        mac = MACAddress("00:11:22:33:44:55")
        assert int(mac) == 0x001122334455

    def test_parse_dash_form(self):
        assert MACAddress("00-11-22-33-44-55") == MACAddress("00:11:22:33:44:55")

    def test_parse_bytes(self):
        assert MACAddress(b"\x00\x11\x22\x33\x44\x55") == MACAddress(
            "00:11:22:33:44:55"
        )

    def test_str_round_trip(self):
        text = "de:ad:be:ef:00:01"
        assert str(MACAddress(text)) == text

    def test_packed_length(self):
        assert len(MACAddress(0).packed) == 6

    def test_broadcast_is_multicast(self):
        assert BROADCAST_MAC.is_broadcast
        assert BROADCAST_MAC.is_multicast
        assert not BROADCAST_MAC.is_unicast

    def test_multicast_bit(self):
        assert MACAddress("01:00:5e:00:00:01").is_multicast
        assert MACAddress("00:00:5e:00:00:01").is_unicast

    def test_rejects_bad_strings(self):
        for bad in ("", "00:11:22:33:44", "gg:11:22:33:44:55", "001122334455"):
            with pytest.raises(ValueError):
                MACAddress(bad)

    def test_rejects_out_of_range_int(self):
        with pytest.raises(ValueError):
            MACAddress(1 << 48)
        with pytest.raises(ValueError):
            MACAddress(-1)

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            MACAddress(3.14)

    def test_ordering(self):
        assert MACAddress(1) < MACAddress(2)
        assert sorted([MACAddress(5), MACAddress(1)])[0] == MACAddress(1)

    def test_hashable_as_dict_key(self):
        table = {MACAddress("00:00:00:00:00:01"): "port1"}
        assert table[MACAddress(1)] == "port1"

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_int_round_trip(self, value):
        assert int(MACAddress(value)) == value

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_str_parse_round_trip(self, value):
        mac = MACAddress(value)
        assert MACAddress(str(mac)) == mac

    @given(st.binary(min_size=6, max_size=6))
    def test_packed_round_trip(self, raw):
        assert MACAddress(raw).packed == raw


class TestIPv4Address:
    def test_parse_dotted_quad(self):
        assert int(IPv4Address("10.0.0.1")) == 0x0A000001

    def test_str_round_trip(self):
        assert str(IPv4Address("192.168.1.254")) == "192.168.1.254"

    def test_rejects_bad_strings(self):
        for bad in ("", "10.0.0", "10.0.0.256", "10.0.0.1.2", "a.b.c.d"):
            with pytest.raises(ValueError):
                IPv4Address(bad)

    def test_rejects_out_of_range_int(self):
        with pytest.raises(ValueError):
            IPv4Address(1 << 32)

    def test_classification(self):
        assert IPv4Address("224.0.0.1").is_multicast
        assert IPv4Address("255.255.255.255").is_broadcast

    def test_addition_wraps(self):
        assert IPv4Address("10.0.0.1") + 1 == IPv4Address("10.0.0.2")
        assert IPv4Address("255.255.255.255") + 1 == IPv4Address("0.0.0.0")

    def test_ordering(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_round_trips(self, value):
        addr = IPv4Address(value)
        assert int(IPv4Address(str(addr))) == value
        assert IPv4Address(addr.packed) == addr

