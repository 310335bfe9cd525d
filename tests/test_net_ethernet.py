"""Unit + property tests for Ethernet frames and VLAN tag handling."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    Dot1QTag,
    EthernetFrame,
    MACAddress,
    PacketDecodeError,
)
from repro.net import ethernet

from differential import SCALE

MAC_A = MACAddress("00:00:00:00:00:0a")
MAC_B = MACAddress("00:00:00:00:00:0b")


def make_frame(payload=b"hello", tags=None):
    return EthernetFrame(
        dst=MAC_B,
        src=MAC_A,
        ethertype=ETHERTYPE_IPV4,
        payload=payload,
        tags=list(tags or []),
    )


class TestDot1QTag:
    def test_tci_packing(self):
        tag = Dot1QTag(vlan_id=101, pcp=5, dei=True)
        assert tag.tci == (5 << 13) | (1 << 12) | 101

    def test_tci_round_trip(self):
        tag = Dot1QTag(vlan_id=4001, pcp=7, dei=False)
        assert Dot1QTag.from_tci(tag.tci) == tag

    def test_vlan_id_range(self):
        with pytest.raises(ValueError):
            Dot1QTag(vlan_id=4096)
        with pytest.raises(ValueError):
            Dot1QTag(vlan_id=-1)

    def test_pcp_range(self):
        with pytest.raises(ValueError):
            Dot1QTag(vlan_id=1, pcp=8)

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_from_tci_total(self, tci):
        tag = Dot1QTag.from_tci(tci)
        assert tag.tci == tci


class TestEthernetFrame:
    def test_untagged_wire_format(self):
        frame = make_frame(payload=b"\x01\x02")
        raw = frame.to_bytes()
        assert raw[:6] == MAC_B.packed
        assert raw[6:12] == MAC_A.packed
        assert raw[12:14] == b"\x08\x00"
        assert raw[14:] == b"\x01\x02"

    def test_untagged_round_trip(self):
        frame = make_frame(payload=b"payload-bytes")
        parsed = EthernetFrame.from_bytes(frame.to_bytes())
        assert parsed == frame

    def test_single_tag_round_trip(self):
        frame = make_frame().push_vlan(101)
        parsed = EthernetFrame.from_bytes(frame.to_bytes())
        assert parsed.vlan_id == 101
        assert parsed == frame

    def test_single_tag_uses_8100_tpid(self):
        raw = make_frame().push_vlan(101).to_bytes()
        assert raw[12:14] == b"\x81\x00"

    def test_qinq_outer_tpid_is_88a8(self):
        raw = make_frame().push_vlan(101).push_vlan(200).to_bytes()
        assert raw[12:14] == b"\x88\xa8"
        assert raw[16:18] == b"\x81\x00"

    def test_qinq_round_trip(self):
        frame = make_frame().push_vlan(101).push_vlan(200)
        parsed = EthernetFrame.from_bytes(frame.to_bytes())
        assert [tag.vlan_id for tag in parsed.tags] == [200, 101]
        assert parsed == frame

    def test_push_then_pop_is_identity(self):
        frame = make_frame()
        assert frame.push_vlan(300).pop_vlan() == frame

    def test_pop_untagged_raises(self):
        with pytest.raises(ValueError):
            make_frame().pop_vlan()

    def test_set_vlan_rewrites_outer_only(self):
        frame = make_frame().push_vlan(101).push_vlan(200)
        rewritten = frame.set_vlan(999)
        assert rewritten.vlan_id == 999
        assert rewritten.tags[1].vlan_id == 101

    def test_set_vlan_untagged_raises(self):
        with pytest.raises(ValueError):
            make_frame().set_vlan(5)

    def test_push_does_not_mutate_original(self):
        frame = make_frame()
        pushed = frame.push_vlan(10)
        assert frame.tags == ()
        assert isinstance(pushed.tags, tuple) and len(pushed.tags) == 1

    def test_vlan_property_none_when_untagged(self):
        assert make_frame().vlan is None
        assert make_frame().vlan_id is None

    def test_wire_length_pads_to_minimum(self):
        assert make_frame(payload=b"x").wire_length == 60
        assert make_frame(payload=b"x" * 100).wire_length == 114

    def test_wire_length_accounts_for_tags(self):
        tagged = make_frame(payload=b"x").push_vlan(1)
        assert tagged.wire_length == 64

    def test_truncated_frame_raises(self):
        with pytest.raises(PacketDecodeError):
            EthernetFrame.from_bytes(b"\x00" * 13)

    def test_truncated_tag_raises(self):
        raw = MAC_B.packed + MAC_A.packed + b"\x81\x00\x00"
        with pytest.raises(PacketDecodeError):
            EthernetFrame.from_bytes(raw)

    def test_copy_is_independent(self):
        frame = make_frame(tags=[Dot1QTag(5)])
        clone = frame.copy()
        assert clone is not frame and clone == frame
        assert isinstance(clone.tags, tuple)
        clone.tags += (Dot1QTag(6),)
        clone.payload = b"other"
        assert frame.tags == (Dot1QTag(5),)
        assert frame.payload == b"hello"

    def test_constructor_does_not_alias_the_callers_tag_list(self):
        stack = [Dot1QTag(5)]
        frame = make_frame(tags=stack)
        stack.append(Dot1QTag(6))
        assert frame.tags == (Dot1QTag(5),)

    def test_wire_length_follows_a_payload_replaced_after_copy(self):
        # The benchmark's stamping idiom: copy a template, assign a payload.
        template = make_frame(payload=b"x" * 100).push_vlan(7)
        stamped = template.copy()
        stamped.payload = b"y" * 300
        assert stamped.wire_length == 14 + 4 + 300
        assert template.wire_length == 14 + 4 + 100

    @pytest.mark.parametrize("payload", ["text", 7, None, [1, 2]])
    def test_assigned_payload_must_be_bytes(self, payload):
        # Assignment applies the constructor's rule instead of failing
        # later, in to_bytes or a decode.
        frame = make_frame(payload=b"x" * 100)
        with pytest.raises(TypeError):
            frame.payload = payload
        assert frame.payload == b"x" * 100 and frame.wire_length == 114

    def test_assigned_bytearray_is_copied_into_bytes(self):
        frame = make_frame()
        buffer = bytearray(b"y" * 80)
        frame.payload = buffer
        buffer[0] = 0  # the caller's buffer is not the frame's value
        assert type(frame.payload) is bytes and frame.payload == b"y" * 80
        assert frame.wire_length == 14 + 80

    def test_assigned_tags_are_validated_and_measured(self):
        frame = make_frame(payload=b"x" * 100)
        frame.tags = [Dot1QTag(5), Dot1QTag(6)]
        assert frame.tags == (Dot1QTag(5), Dot1QTag(6))
        assert frame.wire_length == 14 + 8 + 100
        with pytest.raises(TypeError):
            frame.tags = (101,)
        assert frame.wire_length == 14 + 8 + 100

    def test_wire_length_is_a_property_with_a_getter(self):
        # The benchmark's tracer wraps EthernetFrame.__dict__["wire_length"].fget.
        descriptor = EthernetFrame.__dict__["wire_length"]
        assert isinstance(descriptor, property) and callable(descriptor.fget)
        assert descriptor.fget(make_frame(payload=b"x")) == 60
        with pytest.raises(AttributeError):
            make_frame().wire_length = 1

    def test_replaced_goes_through_the_validating_constructor(self):
        frame = make_frame().push_vlan(9)
        assert frame.replaced(payload=b"new") == make_frame(b"new").push_vlan(9)
        with pytest.raises(TypeError):
            frame.replaced(payload="str")
        with pytest.raises(ValueError):
            frame.replaced(dst="not-a-mac")

    def test_unhashable_like_any_mutable_value(self):
        with pytest.raises(TypeError):
            hash(make_frame())

    def test_rejects_bad_ethertype(self):
        with pytest.raises(ValueError):
            EthernetFrame(dst=MAC_A, src=MAC_B, ethertype=0x10000)

    def test_rejects_non_bytes_payload(self):
        with pytest.raises(TypeError):
            EthernetFrame(dst=MAC_A, src=MAC_B, ethertype=ETHERTYPE_ARP, payload="str")

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"ethertype": -1}, ValueError),
            ({"ethertype": 0x10000}, ValueError),
            ({"payload": 7}, TypeError),
            ({"payload": None}, TypeError),
            ({"dst": b"\x00" * 5}, ValueError),
            ({"src": b"\x00" * 7}, ValueError),
            ({"dst": "00:11:22:33:44"}, ValueError),
            ({"src": "00:11:22:33:44:gg"}, ValueError),
            ({"dst": 1 << 48}, ValueError),
            ({"src": 1.5}, TypeError),
            ({"tags": [101]}, TypeError),
        ],
    )
    def test_constructor_rejects(self, fields, error):
        good = {"dst": MAC_B, "src": MAC_A, "ethertype": ETHERTYPE_IPV4}
        EthernetFrame(**good)
        with pytest.raises(error):
            EthernetFrame(**{**good, **fields})

    @pytest.mark.parametrize("vlan_id, pcp", [(-1, 0), (4096, 0), (5, -1), (5, 8)])
    def test_push_and_set_validate_the_new_tag(self, vlan_id, pcp):
        frame = make_frame().push_vlan(1)
        with pytest.raises(ValueError):
            frame.push_vlan(vlan_id, pcp)
        if pcp == 0:
            with pytest.raises(ValueError):
                frame.set_vlan(vlan_id)

    def test_truncated_ethertype_after_tag_raises(self):
        raw = MAC_B.packed + MAC_A.packed + b"\x81\x00\x00\x65\x08"
        with pytest.raises(PacketDecodeError):
            EthernetFrame.from_bytes(raw)

    def test_accepts_bytearray_payload_as_bytes(self):
        frame = EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, bytearray(b"abc"))
        assert type(frame.payload) is bytes

    def test_str_mentions_vlan(self):
        assert "vlan 42" in str(make_frame().push_vlan(42))


macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MACAddress)
vlan_ids = st.integers(min_value=1, max_value=4094)
tags = st.builds(
    Dot1QTag,
    vlan_id=vlan_ids,
    pcp=st.integers(min_value=0, max_value=7),
    dei=st.booleans(),
)
frames = st.builds(
    EthernetFrame,
    dst=macs,
    src=macs,
    ethertype=st.integers(min_value=0x0600, max_value=0xFFFF).filter(
        lambda v: v not in (0x8100, 0x88A8)
    ),
    payload=st.binary(max_size=256),
    tags=st.lists(tags, max_size=3),
)


class TestTagInterning:
    """push_vlan, set_vlan and the decoder hand out one shared tag per
    value; the table only ever holds values Dot1QTag accepted."""

    def test_equal_valued_tags_are_one_object(self):
        pushed = make_frame().push_vlan(77, 3)
        rewritten = make_frame().push_vlan(5, 3).set_vlan(77)
        decoded = EthernetFrame.from_bytes(pushed.to_bytes())
        assert pushed.tags[0] is rewritten.tags[0] is decoded.tags[0]
        assert Dot1QTag.from_tci(pushed.tags[0].tci) is pushed.tags[0]
        # A directly built tag is equal by value — identity means nothing.
        assert pushed.tags[0] == Dot1QTag(77, 3) == Dot1QTag(vlan_id=77, pcp=3, dei=False)

    @pytest.mark.parametrize(
        "derive",
        [
            lambda frame: frame.push_vlan(4096),
            lambda frame: frame.push_vlan(-1),
            lambda frame: frame.push_vlan(5, 8),
            lambda frame: frame.set_vlan(-1),
            lambda frame: frame.set_vlan(4096),
        ],
    )
    def test_bad_values_raise_every_time_and_are_never_cached(self, derive):
        frame = make_frame().push_vlan(1)
        before = len(ethernet._TAGS)
        for _ in range(2):
            with pytest.raises(ValueError):
                derive(frame)
        assert len(ethernet._TAGS) == before

    def test_every_tci_decodes_and_the_table_is_then_full(self):
        for tci in range(1 << 16):
            tag = Dot1QTag.from_tci(tci)
            assert tag.tci == tci
        assert len(ethernet._TAGS) == 1 << 16
        # ...and stays there: every further value is a hit or a ValueError.
        assert make_frame().push_vlan(4095, 7).tags[0] is Dot1QTag.from_tci(0xEFFF)
        assert len(ethernet._TAGS) == 1 << 16


#: A derivation step: (method name, arguments).
vlan_ops = st.one_of(
    st.tuples(st.just("push_vlan"), vlan_ids, st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("pop_vlan")),
    st.tuples(st.just("set_vlan"), vlan_ids),
    st.tuples(st.just("copy")),
)


#: The other ways a frame's contents change: the validating rebuild
#: and the two assignable fields (applied to a copy of the source).
value_ops = st.one_of(
    st.tuples(st.just("payload="), st.binary(max_size=256)),
    st.tuples(st.just("tags="), st.lists(tags, max_size=3)),
    st.tuples(
        st.just("replaced"),
        st.fixed_dictionaries(
            {},
            optional={
                "payload": st.binary(max_size=256),
                "tags": st.lists(tags, max_size=3),
                "dst": macs,
            },
        ),
    ),
)


def apply_to_fields(fields, op):
    """What *op* means, spelled out on plain constructor arguments."""
    stack = list(fields["tags"])
    if op[0] == "push_vlan":
        stack.insert(0, Dot1QTag(op[1], op[2]))
    elif op[0] == "pop_vlan":
        del stack[0]
    elif op[0] == "set_vlan":
        stack[0] = Dot1QTag(op[1], stack[0].pcp, stack[0].dei)
    return {**fields, "tags": stack}


def assert_round_trips(frame):
    """*frame* is what its own encoding decodes to, length included."""
    decoded = EthernetFrame.from_bytes(frame.to_bytes())
    assert decoded == frame and frame == decoded
    assert decoded.wire_length == frame.wire_length


class TestFrameValues:
    """Derived frames skip validation; they must still be the frame the
    validating constructor would have built.  Each derivation builds its
    frame in its own body (one Python frame per tag edit), so this is
    the check that the four copies agree with the constructor and the
    decoder."""

    @settings(max_examples=200 * SCALE, deadline=None)
    @given(frames, st.lists(vlan_ops, max_size=8))
    def test_derivations_equal_constructor_built_frames(self, frame, ops):
        fields = {
            "dst": frame.dst,
            "src": frame.src,
            "ethertype": frame.ethertype,
            "payload": frame.payload,
            "tags": list(frame.tags),
        }
        for op in ops:
            if op[0] in ("pop_vlan", "set_vlan") and not frame.tags:
                with pytest.raises(ValueError):
                    getattr(frame, op[0])(*op[1:])
                continue
            source = frame
            before = source.to_bytes()
            frame = getattr(source, op[0])(*op[1:])
            fields = apply_to_fields(fields, op)
            built = EthernetFrame(**fields)
            assert frame == built and built == frame
            assert frame is not source
            assert type(frame.tags) is tuple and type(frame.payload) is bytes
            assert frame.wire_length == built.wire_length
            assert_round_trips(frame)
            assert source.to_bytes() == before  # the source is untouched

    @given(frames, st.lists(st.one_of(vlan_ops, value_ops), max_size=10))
    def test_wire_length_is_carried_true(self, frame, ops):
        """However a frame came to be — derived, rebuilt, or written to
        through the two assignable fields — the length it carries is
        the formula's, and its source's has not moved."""

        def formula(f):
            return 14 + 4 * len(f.tags) + max(len(f.payload), 46)

        assert frame.wire_length == formula(frame)
        for op in ops:
            source, source_length = frame, frame.wire_length
            if op[0] in ("pop_vlan", "set_vlan") and not frame.tags:
                continue
            if op[0] == "payload=":
                frame = source.copy()
                frame.payload = op[1]
            elif op[0] == "tags=":
                frame = source.copy()
                frame.tags = op[1]
            elif op[0] == "replaced":
                frame = source.replaced(**op[1])
            else:
                frame = getattr(source, op[0])(*op[1:])
            assert frame.wire_length == formula(frame)
            assert source.wire_length == source_length == formula(source)
        # A frame survives a pickle round trip, cached length included.
        clone = pickle.loads(pickle.dumps(frame))
        assert clone == frame and clone.wire_length == frame.wire_length
        assert type(clone.tags) is tuple and type(clone.payload) is bytes

    @given(frames)
    def test_equality_is_by_value_and_typed(self, frame):
        assert frame == frame.copy()
        assert frame != frame.push_vlan(1)
        assert frame != frame.replaced(payload=frame.payload + b"x")
        assert frame != object()


class TestDecoderBoundaries:
    """``EthernetFrame.from_bytes`` on hostile bytes (ROADMAP item 2b):
    every truncation and every single-bit flip of a valid encoding
    either raises :class:`PacketDecodeError` or decodes to a frame that
    round-trips — never another exception, never a frame whose own
    encoding reads back differently."""

    @staticmethod
    def decode_or_refuse(data):
        try:
            frame = EthernetFrame.from_bytes(data)
        except PacketDecodeError:
            return None
        assert_round_trips(frame)
        built = EthernetFrame(dst=frame.dst, src=frame.src, ethertype=frame.ethertype,
                              payload=frame.payload, tags=frame.tags)
        assert frame.wire_length == built.wire_length
        return frame

    @settings(max_examples=50 * SCALE, deadline=None)
    @given(frames.map(lambda frame: frame.replaced(payload=frame.payload[:16])))
    def test_every_truncation_and_bit_flip_decodes_or_is_refused(self, frame):
        data = frame.to_bytes()
        header = len(data) - len(frame.payload)
        for end in range(len(data) + 1):
            decoded = self.decode_or_refuse(data[:end])
            # Cut inside the header: refused; cut inside the payload: the
            # same headers over a shorter payload.
            assert (decoded is None) == (end < header)
            if decoded is not None:
                assert decoded.tags == frame.tags
                assert decoded.payload == frame.payload[:end - header]
        flipped = bytearray(data)
        for bit in range(8 * len(data)):
            flipped[bit >> 3] ^= 0x80 >> (bit & 7)
            self.decode_or_refuse(bytes(flipped))
            flipped[bit >> 3] ^= 0x80 >> (bit & 7)

