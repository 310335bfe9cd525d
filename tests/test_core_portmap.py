"""Tests for the port<->VLAN bijection."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PortVlanMap


class TestAssignment:
    def test_basic_bijection(self):
        pmap = PortVlanMap({1: 101, 2: 102})
        assert pmap.vlan_of(1) == 101
        assert pmap.port_of(102) == 2
        assert len(pmap) == 2

    def test_duplicate_port_rejected(self):
        pmap = PortVlanMap({1: 101})
        with pytest.raises(ValueError):
            pmap.assign(1, 200)

    def test_duplicate_vlan_rejected(self):
        pmap = PortVlanMap({1: 101})
        with pytest.raises(ValueError):
            pmap.assign(2, 101)

    def test_vlan_range_enforced(self):
        with pytest.raises(ValueError):
            PortVlanMap({1: 1})  # default VLAN not usable
        with pytest.raises(ValueError):
            PortVlanMap({1: 4095})

    def test_port_range_enforced(self):
        with pytest.raises(ValueError):
            PortVlanMap({0: 101})

    def test_unknown_lookups_raise(self):
        pmap = PortVlanMap({1: 101})
        with pytest.raises(KeyError, match="port 9"):
            pmap.vlan_of(9)
        with pytest.raises(KeyError, match="VLAN 999"):
            pmap.port_of(999)


class TestAllocation:
    def test_dense_allocation_from_base(self):
        pmap = PortVlanMap.allocate([3, 1, 2], base=101)
        assert pmap.vlan_of(1) == 101
        assert pmap.vlan_of(2) == 102
        assert pmap.vlan_of(3) == 103

    def test_reserved_vlans_skipped(self):
        pmap = PortVlanMap.allocate([1, 2], base=101, reserved={101, 103})
        assert pmap.vlan_of(1) == 102
        assert pmap.vlan_of(2) == 104

    def test_exhaustion_raises(self):
        with pytest.raises(ValueError):
            PortVlanMap.allocate([1, 2], base=4094)

    def test_duplicate_ports_deduped(self):
        pmap = PortVlanMap.allocate([1, 1, 2])
        assert len(pmap) == 2

    @given(
        st.lists(
            st.integers(min_value=1, max_value=500), min_size=1, max_size=64, unique=True
        ),
        st.integers(min_value=2, max_value=3000),
    )
    def test_allocation_is_always_bijective(self, ports, base):
        pmap = PortVlanMap.allocate(ports, base=base)
        pmap.validate()
        assert sorted(pmap.ports) == sorted(ports)
        for port in ports:
            assert pmap.port_of(pmap.vlan_of(port)) == port


class TestPersistence:
    def test_iteration_order(self):
        pmap = PortVlanMap({5: 105, 1: 101, 3: 103})
        assert list(pmap) == [(1, 101), (3, 103), (5, 105)]

    def test_describe(self):
        assert "1->101" in PortVlanMap({1: 101}).describe()
