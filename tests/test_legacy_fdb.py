"""Tests for the forwarding database."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.legacy import ForwardingDatabase
from repro.net import MACAddress

MAC1 = MACAddress(0x020000000001)
MAC2 = MACAddress(0x020000000002)


class TestLearning:
    def test_learn_and_lookup(self):
        fdb = ForwardingDatabase()
        fdb.learn(10, MAC1, 3, now=0.0)
        assert fdb.lookup(10, MAC1, now=1.0) == 3

    def test_lookup_is_per_vlan(self):
        fdb = ForwardingDatabase()
        fdb.learn(10, MAC1, 3, now=0.0)
        assert fdb.lookup(20, MAC1, now=0.0) is None

    def test_station_move_updates_port(self):
        fdb = ForwardingDatabase()
        fdb.learn(10, MAC1, 3, now=0.0)
        fdb.learn(10, MAC1, 7, now=1.0)
        assert fdb.lookup(10, MAC1, now=1.0) == 7
        assert fdb.move_events == 1

    def test_multicast_never_learned(self):
        fdb = ForwardingDatabase()
        fdb.learn(10, MACAddress("01:00:5e:00:00:01"), 3, now=0.0)
        assert len(fdb) == 0

    def test_refresh_resets_age(self):
        fdb = ForwardingDatabase(aging_s=10.0)
        fdb.learn(10, MAC1, 3, now=0.0)
        fdb.learn(10, MAC1, 3, now=8.0)
        assert fdb.lookup(10, MAC1, now=15.0) == 3


class TestAging:
    def test_expired_entry_gone(self):
        fdb = ForwardingDatabase(aging_s=10.0)
        fdb.learn(10, MAC1, 3, now=0.0)
        assert fdb.lookup(10, MAC1, now=11.0) is None

    def test_the_boundary_lives_and_one_ulp_later_does_not(self):
        fdb = ForwardingDatabase(aging_s=300.0)
        fdb.learn(1, MAC1, 3, now=0.0)
        assert fdb.peek(1, MAC1).alive(300.0, 300.0)
        assert fdb.lookup(1, MAC1, now=300.0) == 3
        assert fdb.lookup(1, MAC1, now=math.nextafter(300.0, math.inf)) is None

    def test_expire_sweep(self):
        fdb = ForwardingDatabase(aging_s=10.0)
        fdb.learn(10, MAC1, 3, now=0.0)
        fdb.learn(10, MAC2, 4, now=5.0)
        assert fdb.expire(now=12.0) == 1
        assert len(fdb) == 1

    def test_static_never_ages(self):
        fdb = ForwardingDatabase(aging_s=10.0)
        fdb.add_static(10, MAC1, 3)
        assert fdb.lookup(10, MAC1, now=1e9) == 3


class TestCapacity:
    def test_eviction_at_capacity(self):
        fdb = ForwardingDatabase(capacity=2)
        fdb.learn(1, MACAddress(0x02_00_00_00_00_01), 1, now=0.0)
        fdb.learn(1, MACAddress(0x02_00_00_00_00_02), 2, now=1.0)
        fdb.learn(1, MACAddress(0x02_00_00_00_00_03), 3, now=2.0)
        assert len(fdb) == 2
        assert fdb.evictions == 1
        # Oldest entry was the victim.
        assert fdb.lookup(1, MACAddress(0x02_00_00_00_00_01), now=2.0) is None
        assert fdb.lookup(1, MACAddress(0x02_00_00_00_00_03), now=2.0) == 3

    def test_full_of_statics_raises(self):
        fdb = ForwardingDatabase(capacity=1)
        fdb.add_static(1, MAC1, 1)
        with pytest.raises(RuntimeError):
            fdb.learn(1, MAC2, 2, now=0.0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ForwardingDatabase(capacity=0)


class TestStats:
    def test_stats_pins_the_policy_counters(self):
        fdb = ForwardingDatabase(capacity=2)
        fdb.learn(1, MACAddress(0x02_00_00_00_00_01), 1, now=0.0)
        fdb.learn(1, MACAddress(0x02_00_00_00_00_02), 2, now=1.0)
        fdb.learn(1, MACAddress(0x02_00_00_00_00_03), 3, now=2.0)  # evicts
        fdb.learn(1, MACAddress(0x02_00_00_00_00_02), 4, now=3.0)  # moves
        assert fdb.stats() == {
            "size": 2,
            "capacity": 2,
            "inserts": 3,
            "moves": 1,
            "evictions": 1,
            "flood_fallbacks": 0,
        }

    def test_churn_stays_bounded_and_degrades_to_flooding(self):
        """MAC churn far beyond capacity: memory bounded, never refuses
        to learn, and the evicted MACs resolve to None — the dataplane
        floods (counting ``flood_fallbacks``) instead of crashing."""
        fdb = ForwardingDatabase(capacity=64, aging_s=1e9)
        for index in range(4096):
            fdb.learn(
                1,
                MACAddress(0x02_00_00_10_00_00 + index),
                1 + index % 8,
                now=float(index),
            )
        stats = fdb.stats()
        assert len(fdb) == 64
        assert stats["size"] == 64 <= stats["capacity"]
        assert stats["inserts"] == 4096
        assert stats["evictions"] == 4096 - 64
        assert fdb.lookup(1, MACAddress(0x02_00_00_10_00_00), now=4096.0) is None
        assert (
            fdb.lookup(1, MACAddress(0x02_00_00_10_00_00 + 4095), now=4096.0)
            == 4095 % 8 + 1
        )


class TestFlush:
    def test_flush_port(self):
        fdb = ForwardingDatabase()
        fdb.learn(1, MAC1, 3, now=0.0)
        fdb.learn(1, MAC2, 4, now=0.0)
        assert fdb.flush_port(3) == 1
        assert fdb.lookup(1, MAC1, now=0.0) is None
        assert fdb.lookup(1, MAC2, now=0.0) == 4

    def test_flush_vlan(self):
        fdb = ForwardingDatabase()
        fdb.learn(1, MAC1, 3, now=0.0)
        fdb.learn(2, MAC2, 3, now=0.0)
        assert fdb.flush_vlan(1) == 1
        assert fdb.lookup(2, MAC2, now=0.0) == 3

    def test_flush_spares_static(self):
        fdb = ForwardingDatabase()
        fdb.add_static(1, MAC1, 3)
        assert fdb.flush_port(3) == 0
        assert fdb.lookup(1, MAC1, now=0.0) == 3


class TestIteration:
    def test_entries_sorted_by_vlan_then_mac(self):
        fdb = ForwardingDatabase()
        fdb.learn(2, MAC1, 1, now=0.0)
        fdb.learn(1, MAC2, 2, now=0.0)
        fdb.learn(1, MAC1, 3, now=0.0)
        keys = [(entry.vlan_id, int(entry.mac)) for entry in fdb.entries()]
        assert keys == sorted(keys)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),
                st.integers(min_value=0, max_value=0xFF).map(
                    lambda v: MACAddress(0x020000000000 + v)
                ),
                st.integers(min_value=1, max_value=48),
            ),
            max_size=50,
        )
    )
    def test_lookup_always_returns_last_learned_port(self, events):
        fdb = ForwardingDatabase(capacity=1000, aging_s=1e9)
        expected = {}
        for time, (vlan, mac, port) in enumerate(events):
            fdb.learn(vlan, mac, port, now=float(time))
            expected[(vlan, mac)] = port
        for (vlan, mac), port in expected.items():
            assert fdb.lookup(vlan, mac, now=len(events)) == port


class TestGeneration:
    """``generation`` is what the switch's forwarding cache is valid
    against: it moves with every change of a binding and with nothing
    else."""

    def test_moves_with_every_binding_change_and_not_with_a_refresh(self):
        fdb = ForwardingDatabase(capacity=2, aging_s=10.0)
        seen = [fdb.generation]

        def moved():
            seen.append(fdb.generation)
            return seen[-1] > seen[-2]

        fdb.learn(1, MAC1, 3, now=0.0)
        assert moved()  # a new address
        fdb.learn(1, MAC1, 3, now=1.0)
        assert not moved()  # a refresh
        assert fdb.lookup(1, MAC1, now=2.0) == 3 and fdb.peek(1, MAC1) is not None
        assert not moved()  # reads
        fdb.learn(1, MAC1, 4, now=2.0)
        assert moved()  # a move
        fdb.learn(1, MAC2, 5, now=3.0)
        fdb.learn(2, MAC2, 5, now=4.0)
        assert moved() and fdb.evictions == 1  # an eviction (and the insert)
        assert fdb.lookup(2, MAC2, now=100.0) is None
        assert moved()  # an age-out at lookup
        fdb.add_static(1, MAC2, 6)
        assert moved()  # a pin, here over a dynamic entry
        fdb.learn(1, MAC2, 7, now=5.0)
        assert not moved()  # ... which learning leaves alone
        for flush in (
            lambda: fdb.expire(1000.0),
            lambda: fdb.flush_port(6),
            lambda: fdb.flush_vlan(1),
            fdb.flush_dynamic,
        ):
            flush()
            assert moved()

    def test_entries_at_an_instant_leave_out_the_aged_without_removing_them(self):
        fdb = ForwardingDatabase(aging_s=10.0)
        fdb.learn(1, MAC1, 3, now=0.0)
        fdb.learn(1, MAC2, 4, now=5.0)
        fdb.add_static(2, MAC1, 9)
        generation = fdb.generation
        assert [e.port for e in fdb.entries(now=10.0)] == [3, 4, 9]  # age == aging_s lives
        assert [e.port for e in fdb.entries(now=10.5)] == [4, 9]
        assert [e.port for e in fdb.entries(now=1e6)] == [9]
        assert [e.port for e in fdb.entries()] == [3, 4, 9]
        assert len(fdb) == 3 and fdb.generation == generation
