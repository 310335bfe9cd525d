"""Tests for OIDs, the MIB tree and agent/client semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.snmp import (
    MibTree,
    OID,
    PduType,
    SnmpAgent,
    SnmpClient,
    SnmpError,
    SnmpErrorStatus,
    SnmpPdu,
)
from repro.snmp.client import SnmpTimeout


class TestOID:
    def test_parse_dotted(self):
        assert OID("1.3.6.1").parts == (1, 3, 6, 1)

    def test_leading_dot_ok(self):
        assert OID(".1.3.6") == OID("1.3.6")

    def test_from_tuple(self):
        assert OID((1, 3, 6)) == OID("1.3.6")

    def test_str_round_trip(self):
        assert str(OID("1.3.6.1.2.1")) == "1.3.6.1.2.1"

    def test_child(self):
        assert OID("1.3").child(6, 1) == OID("1.3.6.1")

    def test_prefix(self):
        assert OID("1.3.6").is_prefix_of(OID("1.3.6.1.2"))
        assert OID("1.3.6").is_prefix_of(OID("1.3.6"))
        assert not OID("1.3.6").is_prefix_of(OID("1.3.7"))
        assert not OID("1.3.6").is_prefix_of(OID("1.3"))

    def test_strip_prefix(self):
        assert OID("1.3.6.1.5").strip_prefix(OID("1.3.6")) == (1, 5)
        with pytest.raises(ValueError):
            OID("1.3.6").strip_prefix(OID("2"))

    def test_lexicographic_order(self):
        assert OID("1.3.6") < OID("1.3.6.0")
        assert OID("1.3.6.2") < OID("1.3.10")
        assert OID("1.3") < OID("2")

    def test_malformed_rejected(self):
        for bad in ("", "1..3", "1.a.3", "1.-3", (), [], (1, -3), [0, 3, -1]):
            with pytest.raises(ValueError):
                OID(bad)

    def test_hashable(self):
        assert len({OID("1.2"), OID("1.2"), OID("1.3")}) == 2

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=8))
    def test_round_trip_property(self, parts):
        oid = OID(tuple(parts))
        assert OID(str(oid)) == oid


def build_tree():
    tree = MibTree()
    state = {"name": "sw1", "rw": 0}
    tree.scalar(OID("1.3.6.1.2.1.1.1"), read=lambda: "a test device")
    tree.scalar(
        OID("1.3.6.1.2.1.1.5"),
        read=lambda: state["name"],
        write=lambda v: state.__setitem__("name", v),
    )
    rows_data = {(1, 1): "row-a", (1, 2): "row-b", (2, 1): 10, (2, 2): 20}
    tree.table(
        OID("1.3.6.1.2.1.2.2.1"),
        rows=lambda: sorted(rows_data.items()),
        write=lambda suffix, value: rows_data.__setitem__(suffix, value),
    )
    return tree, state, rows_data


class TestMibTree:
    def test_scalar_get_at_instance(self):
        tree, _, _ = build_tree()
        found, value = tree.get(OID("1.3.6.1.2.1.1.1.0"))
        assert found and value == "a test device"

    def test_scalar_get_without_instance_fails(self):
        tree, _, _ = build_tree()
        found, _ = tree.get(OID("1.3.6.1.2.1.1.1"))
        assert not found

    def test_table_get(self):
        tree, _, _ = build_tree()
        found, value = tree.get(OID("1.3.6.1.2.1.2.2.1.1.2"))
        assert found and value == "row-b"

    # SET has one dispatch, ``SnmpAgent.handle`` (locate + node.set).

    @staticmethod
    def handle_set(tree, oid, value):
        request = SnmpPdu(pdu_type=PduType.SET, request_id=1, community="private")
        return SnmpAgent(tree).handle(request.bind(oid, value))

    def test_set_scalar(self):
        tree, state, _ = build_tree()
        response = self.handle_set(tree, "1.3.6.1.2.1.1.5.0", "renamed")
        assert response.error_status == SnmpErrorStatus.NO_ERROR
        assert state["name"] == "renamed"

    def test_set_readonly_scalar(self):
        tree, _, _ = build_tree()
        response = self.handle_set(tree, "1.3.6.1.2.1.1.1.0", "nope")
        assert response.error_status == SnmpErrorStatus.READ_ONLY
        assert response.error_index == 1
        assert tree.get(OID("1.3.6.1.2.1.1.1.0")) == (True, "a test device")

    def test_set_creates_table_row(self):
        # The row need not exist: that is how RowStatus createAndGo works.
        tree, _, rows = build_tree()
        response = self.handle_set(tree, "1.3.6.1.2.1.2.2.1.1.3", "row-c")
        assert response.error_status == SnmpErrorStatus.NO_ERROR
        assert rows[(1, 3)] == "row-c"
        assert tree.get(OID("1.3.6.1.2.1.2.2.1.1.3")) == (True, "row-c")

    def test_successor_chain_is_sorted_walk(self):
        tree, _, _ = build_tree()
        cursor = OID("1.3.6.1.2.1.2.2.1")
        seen = []
        while True:
            successor = tree.successor(cursor)
            if successor is None or not OID("1.3.6.1.2.1.2.2.1").is_prefix_of(
                successor[0]
            ):
                break
            seen.append(successor[0])
            cursor = successor[0]
        assert seen == sorted(seen)
        assert len(seen) == 4

    def test_region_conflict_rejected(self):
        tree, _, _ = build_tree()
        with pytest.raises(ValueError):
            tree.scalar(OID("1.3.6.1.2.1.1.1.0"), read=lambda: 1)
        with pytest.raises(ValueError):
            tree.scalar(OID("1.3.6.1.2.1"), read=lambda: 1)


class TestAgentClient:
    def make(self):
        tree, state, rows = build_tree()
        agent = SnmpAgent(tree, read_community="public", write_community="secret")
        return agent, state, rows

    def test_get(self):
        agent, _, _ = self.make()
        client = SnmpClient(agent, community="public")
        assert client.get("1.3.6.1.2.1.1.5.0") == "sw1"

    def test_get_many(self):
        agent, _, _ = self.make()
        client = SnmpClient(agent, community="public")
        values = client.get_many(["1.3.6.1.2.1.1.1.0", "1.3.6.1.2.1.1.5.0"])
        assert values == ["a test device", "sw1"]

    def test_get_missing_raises_no_such_name(self):
        agent, _, _ = self.make()
        client = SnmpClient(agent)
        with pytest.raises(SnmpError) as excinfo:
            client.get("1.3.6.9.9.9.0")
        assert excinfo.value.status is SnmpErrorStatus.NO_SUCH_NAME

    def test_wrong_community_times_out(self):
        agent, _, _ = self.make()
        client = SnmpClient(agent, community="wrong")
        with pytest.raises(SnmpTimeout):
            client.get("1.3.6.1.2.1.1.5.0")
        assert agent.auth_failures == 1

    def test_set_needs_write_community(self):
        agent, state, _ = self.make()
        reader = SnmpClient(agent, community="public")
        with pytest.raises(SnmpTimeout):
            reader.set("1.3.6.1.2.1.1.5.0", "x")
        writer = SnmpClient(agent, community="secret")
        writer.set("1.3.6.1.2.1.1.5.0", "x")
        assert state["name"] == "x"

    def test_set_readonly_raises(self):
        agent, _, _ = self.make()
        writer = SnmpClient(agent, community="secret")
        with pytest.raises(SnmpError) as excinfo:
            writer.set("1.3.6.1.2.1.1.1.0", "derp")
        assert excinfo.value.status is SnmpErrorStatus.READ_ONLY

    def test_set_atomicity_on_missing_oid(self):
        agent, state, _ = self.make()
        writer = SnmpClient(agent, community="secret")
        with pytest.raises(SnmpError):
            writer.set_many(
                [("1.3.6.1.2.1.1.5.0", "changed"), ("1.3.6.9.9.9.0", "missing")]
            )
        assert state["name"] == "sw1"  # first write did not happen

    def test_walk_table(self):
        agent, _, _ = self.make()
        client = SnmpClient(agent)
        results = client.walk("1.3.6.1.2.1.2.2.1")
        assert [str(oid) for oid, _ in results] == [
            "1.3.6.1.2.1.2.2.1.1.1",
            "1.3.6.1.2.1.2.2.1.1.2",
            "1.3.6.1.2.1.2.2.1.2.1",
            "1.3.6.1.2.1.2.2.1.2.2",
        ]

    def test_walk_whole_mib(self):
        agent, _, _ = self.make()
        client = SnmpClient(agent)
        results = client.walk("1")
        oids = [oid for oid, _ in results]
        assert oids == sorted(oids)
        assert len(results) == 2 + 4  # two scalars + four table cells

    def test_table_rows_keyed_by_suffix(self):
        agent, _, _ = self.make()
        client = SnmpClient(agent)
        rows = client.table_rows("1.3.6.1.2.1.2.2.1")
        assert rows[(1, 1)] == "row-a"
        assert rows[(2, 2)] == 20

    def test_getnext_past_end(self):
        agent, _, _ = self.make()
        client = SnmpClient(agent)
        with pytest.raises(SnmpError):
            client.get_next("9.9.9")

    def test_response_echoes_request_id(self):
        agent, _, _ = self.make()
        request = SnmpPdu(pdu_type=PduType.GET, request_id=77, community="public")
        request.bind("1.3.6.1.2.1.1.5.0")
        response = agent.handle(request)
        assert response is not None
        assert response.request_id == 77


class TestWalkContracts:
    """What a walk may assume of the agent, and what it must not."""

    @staticmethod
    def scripted_agent(*oids):
        """Answers every GETNEXT with the next OID of a fixed script."""
        script = iter(oids)

        class Agent:
            def handle(self, request):
                response = SnmpPdu(PduType.RESPONSE, request.request_id)
                return response.bind(next(script), 0)

        return Agent()

    @pytest.mark.parametrize(
        "script",
        [("1.3.6.1", "1.3.6.1"), ("1.3.6.2", "1.3.6.1")],
        ids=["repeats", "goes-backwards"],
    )
    def test_walk_refuses_non_increasing_oids(self, script):
        client = SnmpClient(self.scripted_agent(*script))
        with pytest.raises(SnmpError, match="OID not increasing"):
            client.walk("1.3.6")

    def test_walk_interleaved_with_set_observes_the_set(self):
        # Tables enumerate live state on every PDU: no snapshot.
        tree, _, _ = build_tree()
        client = SnmpClient(SnmpAgent(tree, write_community="public"))
        base = OID("1.3.6.1.2.1.2.2.1")
        first, _ = client.get_next(base)
        assert first == base.child(1, 1)
        client.set(base.child(2, 2), 99)  # a cell the walk has yet to reach
        client.set(base.child(1, 5), "row-e")  # a row that did not exist
        seen, cursor = [], first
        while True:
            try:
                cursor, value = client.get_next(cursor)
            except SnmpError:
                break
            seen.append((cursor.strip_prefix(base), value))
        assert seen == [((1, 2), "row-b"), ((1, 5), "row-e"), ((2, 1), 10), ((2, 2), 99)]


# --- MibTree.successor against a brute-force minimum ----------------------

_suffixes = st.lists(
    st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
    unique=True,
    max_size=6,
).map(sorted)


@st.composite
def mib_layouts(draw):
    """{base: row suffixes} for non-nesting bases; a scalar's rows are [(0,)]."""
    arcs = draw(st.lists(st.integers(0, 5), unique=True, min_size=1, max_size=5))
    layout = {}
    for arc in arcs:
        base = (1, 3, arc) + tuple(draw(st.lists(st.integers(0, 2), max_size=2)))
        layout[base] = [(0,)] if draw(st.booleans()) else draw(_suffixes)
    return layout


def mount_layout(layout):
    tree = MibTree()
    for base, suffixes in layout.items():
        if suffixes == [(0,)]:
            tree.scalar(OID(base), read=lambda base=base: base)
        else:
            tree.table(
                OID(base),
                rows=lambda suffixes=suffixes: [(s, s) for s in suffixes],
            )
    return tree


@st.composite
def layouts_and_cursors(draw):
    layout = draw(mib_layouts())
    instances = sorted(base + s for base, rows in layout.items() for s in rows)
    # Shorter than a base, a proper prefix of one, a base, a row (the
    # last one included), just past a row, between regions, past the end.
    landmarks = [(1,), (1, 3), (2,), (1, 3, 6)]
    for oid in list(layout) + instances:
        landmarks += [oid[:cut] for cut in range(1, len(oid) + 1)]
        landmarks += [oid + (0,), oid[:-1] + (oid[-1] + 1,)]
    free = st.lists(st.integers(0, 6), min_size=1, max_size=7).map(tuple)
    return layout, instances, draw(st.sampled_from(landmarks) | free)


class TestSuccessorProperty:
    @given(layouts_and_cursors())
    def test_successor_is_the_brute_force_minimum(self, drawn):
        layout, instances, cursor = drawn
        answer = mount_layout(layout).successor(OID(cursor))
        later = [oid for oid in instances if oid > cursor]
        if not later:
            assert answer is None
        else:
            assert answer is not None and answer[0].parts == min(later)
