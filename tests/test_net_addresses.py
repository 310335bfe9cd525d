"""Unit tests for MAC/IPv4 address value types."""

import copy
import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import BROADCAST_MAC, IPv4Address, MACAddress
from repro.net.addresses import GROUP_BIT


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



class TestAddressesAreInts:
    """Addresses are ``int`` subclasses: what that keeps, and the
    consequences the rest of the code may rely on."""

    MAC = MACAddress("02:00:5e:10:00:01")
    IP = IPv4Address("10.1.2.3")

    def test_rewrapping_returns_the_same_object(self):
        assert MACAddress(self.MAC) is self.MAC
        assert IPv4Address(self.IP) is self.IP

    def test_hash_and_equality_are_the_ints(self):
        for address in (self.MAC, self.IP):
            assert hash(address) == hash(int(address))
            assert address == int(address) and int(address) == address
            assert type(int(address)) is int
        table = {(7, int(self.MAC)): "port"}
        assert table[(7, self.MAC)] == "port"

    def test_a_mac_and_an_ipv4_address_of_one_value_are_equal(self):
        assert MACAddress(0x0A010203) == IPv4Address("10.1.2.3")

    def test_zero_addresses_are_falsy(self):
        assert not MACAddress(0) and not IPv4Address("0.0.0.0")
        assert self.MAC and self.IP

    def test_json_and_isinstance_accept_addresses(self):
        assert isinstance(self.MAC, int) and isinstance(self.IP, int)
        assert json.loads(json.dumps([self.MAC, self.IP])) == [int(self.MAC), int(self.IP)]

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda a: pickle.loads(pickle.dumps(a))])
    def test_copies_keep_the_type_and_value(self, copier):
        for address in (self.MAC, self.IP, BROADCAST_MAC):
            clone = copier(address)
            assert type(clone) is type(address) and clone == address
            assert str(clone) == str(address)

    def test_text_forms_are_unchanged(self):
        assert str(self.MAC) == "02:00:5e:10:00:01"
        assert repr(self.MAC) == "MACAddress('02:00:5e:10:00:01')"
        assert f"{self.MAC}" == "02:00:5e:10:00:01" and "%s" % self.MAC == str(self.MAC)
        assert str(MACAddress(0)) == "00:00:00:00:00:00"
        assert str(self.IP) == "10.1.2.3" and repr(self.IP) == "IPv4Address('10.1.2.3')"
        assert f"{self.IP}" == "10.1.2.3"

    def test_validation_is_unchanged(self):
        for bad in (1 << 48, -1):
            with pytest.raises(ValueError, match="MAC integer out of range"):
                MACAddress(bad)
        with pytest.raises(ValueError, match="MAC bytes must be 6 long"):
            MACAddress(b"\x00" * 5)
        with pytest.raises(ValueError, match="malformed MAC address"):
            MACAddress("00:11:22:33:44")
        with pytest.raises(ValueError, match="IPv4 integer out of range"):
            IPv4Address(1 << 32)
        with pytest.raises(ValueError, match="IPv4 octet out of range"):
            IPv4Address("10.0.0.256")
        # An address of the other kind is not a number to convert.
        for value, kind in ((self.IP, MACAddress), (self.MAC, IPv4Address), (3.5, MACAddress),
                            (None, IPv4Address)):
            with pytest.raises(TypeError, match="cannot build"):
                kind(value)

    def test_group_bit_is_the_multicast_predicate(self):
        for text in ("01:00:5e:00:00:01", "ff:ff:ff:ff:ff:ff", "00:00:5e:00:00:01",
                     "02:00:00:00:00:01", "33:33:00:00:00:01"):
            mac = MACAddress(text)
            assert bool(mac & GROUP_BIT) is mac.is_multicast is not mac.is_unicast

    def test_arithmetic_other_than_addition_yields_ints(self):
        assert type(self.IP + 1) is IPv4Address
        assert type(self.IP - 1) is int and type(self.MAC >> 8) is int
