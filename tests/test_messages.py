"""Core value types, location keys, and the wire codec."""

import copy
import dataclasses
import hashlib
import math
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

import polsim.messages
from polsim.messages import (
    AlertMessage,
    AlertType,
    BftMessage,
    BftRef,
    InvalidLocationError,
    Location,
    LocationKey,
    MessageDecodeError,
    NodeId,
    PayloadMessage,
    Rssi,
    SensorType,
    TrustScore,
    cell_digest,
    decode_message,
    encode_message,
    location_key,
    quantize_location,
)

A = NodeId.from_str("02:00:00:00:00:01")
B = NodeId.from_str("02:00:00:00:00:02")


class TestNodeId:
    def test_roundtrip_string(self):
        assert str(NodeId.from_str("aa:bb:cc:dd:ee:ff")) == "aa:bb:cc:dd:ee:ff"

    def test_requires_six_bytes(self):
        for bad in (b"\x01\x02", b"", b"\x01" * 7, bytearray(6), "02:00:00:00:00:01", 6, None):
            with pytest.raises(ValueError, match="exactly 6 bytes"):
                NodeId(bad)

    def test_bytewise_order_and_equality(self):
        assert A < B
        assert A == NodeId(bytes([2, 0, 0, 0, 0, 1]))
        assert len({A, NodeId(A.mac)}) == 1

    @given(st.binary(min_size=6, max_size=6))
    def test_hash_is_the_mac_hash(self, mac):
        node = NodeId(mac)
        assert hash(node) == hash(mac)
        assert node.mac == mac and type(node.mac) is bytes

    @given(st.lists(st.binary(min_size=6, max_size=6), max_size=20))
    def test_sorted_order_is_byte_order(self, macs):
        assert [n.mac for n in sorted(NodeId(m) for m in macs)] == sorted(macs)

    def test_text_forms(self):
        node = NodeId(bytes([0x0A, 0xBB, 0, 1, 0xFE, 0x7F]))
        assert str(node) == "0a:bb:00:01:fe:7f"
        assert repr(node) == "NodeId(0a:bb:00:01:fe:7f)"
        assert f"{node}#3" == "0a:bb:00:01:fe:7f#3"
        assert NodeId.from_str(str(node)) == node

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda node: pickle.loads(pickle.dumps(node))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal_node_ids(self, clone):
        twin = clone(A)
        assert type(twin) is NodeId
        assert twin == A and hash(twin) == hash(A) and str(twin) == str(A)


class TestLocation:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidLocationError):
            Location(0.0, float("nan"), 0.0)
        with pytest.raises(InvalidLocationError):
            Location(float("inf"), 0.0, 0.0)

    def test_distance(self):
        assert Location(0, 0, 0).distance_to(Location(3, 4, 0)) == pytest.approx(5.0)


class TestRssiAndTrust:
    def test_rssi_range(self):
        Rssi(-120.0)
        Rssi(0.0)
        with pytest.raises(ValueError):
            Rssi(-120.1)
        with pytest.raises(ValueError):
            Rssi(0.5)

    def test_trust_clamps(self):
        assert TrustScore(0.5).adjusted(0.1).value == pytest.approx(0.6)
        assert TrustScore(0.05).adjusted(-0.1).value == 0.0
        assert TrustScore(1.0).adjusted(0.1).value == 1.0

    @given(st.floats(0, 1), st.lists(st.floats(-1, 1, allow_nan=False), max_size=30))
    def test_trust_never_escapes_unit_interval(self, start, deltas):
        trust = TrustScore(start)
        for delta in deltas:
            trust = trust.adjusted(delta)
            assert 0.0 <= trust.value <= 1.0


class TestLocationKey:
    def test_deterministic(self):
        loc = Location(1.0, 2.0, 0.0)
        assert location_key(loc, b"\x01", 0.5) == location_key(loc, b"\x01", 0.5)

    def test_same_cell_same_digest(self):
        k1 = location_key(Location(1.0, 2.0, 0.0), b"\x01", 0.5)
        k2 = location_key(Location(1.01, 2.0, 0.0), b"\x01", 0.5)
        assert k1 == k2

    def test_different_cell_different_digest(self):
        k1 = location_key(Location(1.0, 2.0, 0.0), b"\x01", 0.5)
        k2 = location_key(Location(1.5, 2.0, 0.0), b"\x01", 0.5)
        assert k1 != k2

    def test_verify_roundtrip_and_mismatches(self):
        loc = Location(2.0, 3.0, 1.0)
        key = location_key(loc, b"data", 0.5)
        assert location_key(loc, b"data", 0.5) == key
        moved = Location(loc.x + 1.0, loc.y, loc.z)  # two grid cells away
        assert location_key(moved, b"data", 0.5) != key
        assert location_key(loc, b"other", 0.5) != key

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            quantize_location(Location(0, 0, 0), 0.0)

    @given(
        st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50),
        st.floats(-0.2, 0.2), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
    )
    def test_invariant_under_sub_cell_perturbation(self, x, y, z, dx, dy, dz):
        # snap the base point to a cell centre so perturbations < grid/2 stay inside
        grid = 0.5
        base = Location(round(x / grid) * grid, round(y / grid) * grid, round(z / grid) * grid)
        nudged = Location(base.x + dx, base.y + dy, base.z + dz)
        assert location_key(base, b"p", grid) == location_key(nudged, b"p", grid)

    @given(
        st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50),
        st.binary(max_size=16), st.sampled_from([0.1, 0.5, 1.0, 2.5]),
    )
    def test_is_the_cell_digest_of_the_quantized_location(self, x, y, z, payload, grid):
        loc = Location(x, y, z)
        cell = quantize_location(loc, grid)
        assert location_key(loc, payload, grid).digest == cell_digest(*cell, payload)

    def test_cell_digest_is_blake2b_keyed_by_the_cell(self):
        want = hashlib.blake2b(b"p", key=struct.pack("<3d", 1.0, -0.5, 2.0), digest_size=32).digest()
        assert cell_digest(1.0, -0.5, 2.0, b"p") == want


def digest_counter(monkeypatch) -> list[int]:
    """Count the digests location keys compute: `polsim.messages.cell_digest` calls."""
    calls = [0]
    real = polsim.messages.cell_digest

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(polsim.messages, "cell_digest", counted)
    return calls


class TestDeferredLocationKey:
    """`location_key` defers its digest to the first read and is otherwise
    the key `LocationKey(cell_digest(*quantize_location(loc, grid), payload))`."""

    @settings(max_examples=300)
    @given(
        st.builds(Location, *[st.floats(-1e6, 1e6)] * 3),
        st.binary(max_size=64),
        st.floats(1e-3, 1e3),
    )
    def test_same_key_as_the_eager_digest(self, loc, payload, grid):
        eager = LocationKey(cell_digest(*quantize_location(loc, grid), payload))

        def deferred() -> LocationKey:
            return location_key(loc, payload, grid)

        assert deferred() == eager and eager == deferred()
        assert not (deferred() != eager) and not (eager != deferred())
        assert hash(deferred()) == hash(eager)
        assert deferred().digest == eager.digest
        assert repr(deferred()) == repr(eager) == f"LocationKey(digest={eager.digest!r})"

        def wire(key: LocationKey) -> bytes:
            return encode_message(PayloadMessage(A, 1, SensorType.GENERIC, payload, key, 7))

        assert wire(deferred()) == wire(eager)
        for read_first in (False, True):
            key = deferred()
            if read_first:
                key.digest
            for copied in (pickle.loads(pickle.dumps(key)), copy.deepcopy(key), copy.copy(key)):
                assert type(copied) is LocationKey
                assert copied == key == eager
                assert copied.digest == eager.digest

    def test_digest_computed_once_on_first_read(self, monkeypatch):
        calls = digest_counter(monkeypatch)
        key = location_key(Location(1.0, 2.0, 3.0), b"data", 0.5)
        assert calls[0] == 0
        first = key.digest
        assert calls[0] == 1
        other = location_key(Location(1.0, 2.0, 3.0), b"data", 0.5)
        for _ in range(3):
            assert key.digest is first
            assert key == other and hash(key) == hash(other) and repr(key) == repr(other)
            encode_message(PayloadMessage(A, 1, SensorType.GENERIC, b"data", key, 7))
        assert calls[0] == 2  # one for `key`, one for `other`

    @pytest.mark.parametrize(
        "grid, error", [(0.0, ValueError), (-1.0, ValueError), (math.nan, ValueError), (1e-320, OverflowError)]
    )
    def test_bad_grid_raises_at_call_time(self, monkeypatch, grid, error):
        calls = digest_counter(monkeypatch)
        with pytest.raises(error):
            location_key(Location(1.0, 2.0, 3.0), b"data", grid)
        assert calls[0] == 0

    def test_known_digest_must_be_32_bytes(self):
        for bad in (b"", bytes(31), bytes(33)):
            with pytest.raises(ValueError):
                LocationKey(bad)
        assert LocationKey(digest=bytes(32)).digest == bytes(32)

    def test_immutable(self):
        for key in (location_key(Location(1.0, 2.0, 3.0), b"data", 0.5), LocationKey(bytes(32))):
            for name in ("digest", "_digest", "_signing", "other"):
                with pytest.raises(AttributeError):
                    setattr(key, name, bytes(32))
                with pytest.raises(AttributeError):
                    delattr(key, name)
        key = location_key(Location(1.0, 2.0, 3.0), b"data", 0.5)
        assert key == LocationKey(cell_digest(1.0, 2.0, 3.0, b"data"))


node_ids = st.binary(min_size=6, max_size=6).map(NodeId)
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
locations = st.builds(Location, finite, finite, finite)
rssis = st.floats(min_value=-120.0, max_value=0.0, allow_nan=False).map(Rssi)
ticks = st.integers(min_value=0, max_value=2**40)
digests = st.binary(min_size=32, max_size=32).map(LocationKey)

payload_messages = st.builds(
    PayloadMessage,
    sender=node_ids,
    seq=st.integers(min_value=0, max_value=2**50),
    sensor_type=st.sampled_from(list(SensorType)),
    payload=st.binary(max_size=200),
    signed_payload=digests,
    timestamp=ticks,
)

bft_messages = st.builds(
    lambda sender, loc, subject, rssi, ref, t: BftMessage(
        sender, loc, subject if subject != sender else NodeId(bytes(6)), rssi, ref, t
    ),
    sender=node_ids.filter(lambda n: n.mac != bytes(6)),
    loc=locations,
    subject=node_ids,
    rssi=rssis,
    ref=st.one_of(st.none(), st.integers(min_value=0, max_value=2**50)),
    t=ticks,
)


@st.composite
def alert_messages(draw):
    sender = draw(node_ids)
    alert_type = draw(st.sampled_from(list(AlertType)))
    ref = draw(
        st.one_of(
            st.none(),
            st.builds(BftRef, sender=node_ids, subject=node_ids, timestamp=ticks),
        )
    )
    if alert_type == AlertType.SELF_DISTRUST:
        obj = sender
    else:
        obj = draw(node_ids)
        if ref is None:
            ref = BftRef(obj, sender, draw(ticks))
    return AlertMessage(sender=sender, alert_type=alert_type, object=obj, ref_bft=ref, timestamp=draw(ticks))


class TestWireCodec:
    @settings(max_examples=200)
    @given(st.one_of(payload_messages, bft_messages, alert_messages()))
    def test_roundtrip_byte_exact(self, msg):
        encoded = encode_message(msg)
        assert decode_message(encoded) == msg
        assert encode_message(decode_message(encoded)) == encoded

    def test_type_tags(self):
        pay = PayloadMessage(A, 1, SensorType.TEMPERATURE, b"x", LocationKey(bytes(32)), 0)
        bft = BftMessage(A, Location(0, 0, 0), B, Rssi(-42.0), None, 0)
        alert = AlertMessage(A, AlertType.SELF_DISTRUST, A, None, 0)
        assert encode_message(pay)[0] == 0x01
        assert encode_message(bft)[0] == 0x02
        assert encode_message(alert)[0] == 0x03

    def test_truncated_rejected(self):
        data = encode_message(
            PayloadMessage(A, 1, SensorType.GENERIC, b"abc", LocationKey(bytes(32)), 7)
        )
        with pytest.raises(MessageDecodeError):
            decode_message(data[:-1])

    def test_shorter_than_the_header_is_truncated(self):
        with pytest.raises(MessageDecodeError, match="^truncated message$"):
            decode_message(b"\x02" + A.mac + bytes(7))  # one byte short of the 15-byte header

    def test_encode_rejects_a_non_message(self):
        with pytest.raises(TypeError, match="not a wire message"):
            encode_message(object())

    def test_trailing_bytes_rejected(self):
        data = encode_message(BftMessage(A, Location(0, 0, 0), B, Rssi(-40.0), 3, 9))
        with pytest.raises(MessageDecodeError):
            decode_message(data + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(MessageDecodeError):
            decode_message(b"\x09" + bytes(20))

    def test_alert_type_1_rejected(self):
        """Type 1, the measurement alert, is not a wire alert type."""
        wire = bytearray(encode_message(AlertMessage(A, AlertType.SELF_DISTRUST, A, None, 0)))
        assert decode_message(bytes(wire)).alert_type is AlertType.SELF_DISTRUST
        wire[15] = 1  # the alert type, after the 15-byte header
        with pytest.raises(MessageDecodeError):
            decode_message(bytes(wire))

    @pytest.mark.parametrize(
        "msg, field",
        [
            (PayloadMessage(A, 1, SensorType.GENERIC, bytes(70_000), LocationKey(bytes(32)), 0), "payload length"),
            (PayloadMessage(A, 2**64, SensorType.GENERIC, b"x", LocationKey(bytes(32)), 0), "seq"),
            (PayloadMessage(A, 1, SensorType.GENERIC, b"x", LocationKey(bytes(32)), -1), "timestamp"),
            (PayloadMessage(A, 1.5, SensorType.GENERIC, b"x", LocationKey(bytes(32)), 0), "seq"),
            (PayloadMessage(A, 1, SensorType.GENERIC, b"x", LocationKey(bytes(32)), 2.0), "timestamp"),
            (BftMessage(A, Location(0, 0, 0), B, Rssi(-40.0), -1, 0), "ref_seq"),
            (AlertMessage(A, AlertType.SELF_DISTRUST, A, None, 2**64), "timestamp"),
            (AlertMessage(A, AlertType.DISTRUST, B, BftRef(B, A, -1), 0), "ref_bft timestamp"),
        ],
    )
    def test_field_outside_wire_range_is_value_error(self, msg, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            encode_message(msg)

    def test_wire_range_edges_encode(self):
        top = 2**64 - 1
        for msg in (
            PayloadMessage(A, top, SensorType.GENERIC, bytes(65_535), LocationKey(bytes(32)), top),
            PayloadMessage(A, 0, SensorType.GENERIC, b"", LocationKey(bytes(32)), 0),
        ):
            assert decode_message(encode_message(msg)) == msg


@dataclasses.dataclass(frozen=True)
class FrozenPayload:
    """The frozen dataclass `PayloadMessage` behaves as: the oracle of its value semantics."""

    sender: NodeId
    seq: int
    sensor_type: SensorType
    payload: bytes
    signed_payload: LocationKey
    timestamp: int


deferred_keys = st.builds(location_key, locations, st.binary(max_size=8), st.sampled_from([0.3, 0.5, 1.0]))


class TestPayloadMessageValue:
    """A payload is an immutable value with a frozen dataclass's `==`,
    `hash` and `repr`, and copies and pickles to an equal payload."""

    @settings(max_examples=200)
    @given(payload_messages, st.one_of(digests, deferred_keys))
    def test_value_semantics_of_the_frozen_dataclass(self, msg, key):
        fields = (msg.sender, msg.seq, msg.sensor_type, msg.payload, key, msg.timestamp)
        msg, oracle = PayloadMessage(*fields), FrozenPayload(*fields)
        same = PayloadMessage(
            sender=msg.sender, seq=msg.seq, sensor_type=msg.sensor_type,
            payload=msg.payload, signed_payload=key, timestamp=msg.timestamp,
        )
        assert msg == same and not (msg != same)
        assert hash(msg) == hash(same) == hash(oracle)
        assert repr(msg) == "PayloadMessage" + repr(oracle).removeprefix("FrozenPayload")
        assert msg != PayloadMessage(*fields[:-1], fields[-1] + 1)
        assert msg.__eq__(oracle) is NotImplemented and msg != oracle and msg != fields
        for copied in (copy.copy(msg), copy.deepcopy(msg), pickle.loads(pickle.dumps(msg))):
            assert type(copied) is PayloadMessage
            assert copied == msg and hash(copied) == hash(msg) and repr(copied) == repr(msg)

    def test_frozen(self):
        msg = PayloadMessage(A, 1, SensorType.GENERIC, b"x", LocationKey(bytes(32)), 0)
        for name in ("sender", "seq", "sensor_type", "payload", "signed_payload", "timestamp", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(msg, name, 2)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(msg, name)
        assert msg == PayloadMessage(A, 1, SensorType.GENERIC, b"x", LocationKey(bytes(32)), 0)


class TestMessageInvariants:
    def test_bft_subject_must_differ(self):
        with pytest.raises(ValueError):
            BftMessage(A, Location(0, 0, 0), A, Rssi(-40.0), None, 0)

    def test_distrust_alert_needs_ref(self):
        with pytest.raises(ValueError):
            AlertMessage(A, AlertType.DISTRUST, B, None, 0)

    def test_self_distrust_object_is_sender(self):
        with pytest.raises(ValueError):
            AlertMessage(A, AlertType.SELF_DISTRUST, B, None, 0)

    def test_alert_object_is_a_node_id(self):
        for obj in (b"\x00\x01", B.mac):
            with pytest.raises(ValueError):
                AlertMessage(A, AlertType.DISTRUST, obj, BftRef(B, A, 0), 0)

    @pytest.mark.parametrize("alert_type", [7, "distrust", None])
    def test_alert_type_is_an_alert_type(self, alert_type):
        with pytest.raises(ValueError, match="alert type must be an AlertType"):
            AlertMessage(A, alert_type, A, None, 0)
