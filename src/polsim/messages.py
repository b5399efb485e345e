"""Domain value types and the three wire message types of the PoL protocol.

Everything here is an immutable value: node identifiers, locations, RSSI
readings, trust scores, and the payload / BFT / alert messages exchanged
between sensor nodes. The module also implements the location key (a keyed
digest binding a payload to a quantized location) and the canonical binary
wire encoding.

Wire format (all integers little-endian, floats IEEE-754 doubles):

    common header   [type: u8] [sender mac: 6B] [timestamp: u64]
    0x01 payload    [seq: u64] [sensor_type: u8] [len: u16] [payload]
                    [signed_payload: 32B]
    0x02 bft        [sender_location: 3 x f64] [subject mac: 6B]
                    [measured_rssi: f64] [ref flag: u8] [ref_seq: u64?]
    0x03 alert      [alert_type: u8] [object: mac 6B]
                    [ref flag: u8] [ref_bft: 6B + 6B + u64?]

A payload's signed_payload is the 32-byte digest of its location key, which
a key made by `cell_key` or `location_key` computes when it is first read.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import FrozenInstanceError, dataclass
from enum import IntEnum
from typing import Optional, Union

RSSI_MIN = -120.0
RSSI_MAX = 0.0

TAG_PAYLOAD = 0x01
TAG_BFT = 0x02
TAG_ALERT = 0x03


class InvalidLocationError(ValueError):
    """A location coordinate is NaN or infinite."""


class MessageDecodeError(ValueError):
    """Wire bytes do not form a valid message."""


class SensorType(IntEnum):
    GENERIC = 0
    TEMPERATURE = 1
    HUMIDITY = 2
    ACCELERATION = 3


class AlertType(IntEnum):
    SELF_DISTRUST = 2
    DISTRUST = 3


class NodeId(bytes):
    """6-byte MAC-style identifier: a `bytes` subclass that adds only its text forms.

    Identifiers key the dicts and sets of every hot path of the simulator, so
    hash, equality and order are the `bytes` ones and run in C: the hash is
    `hash(mac)`, ids compare byte-wise, and `sorted` orders them by MAC. A
    subclass is chosen over interning one object per MAC: there is no intern
    table to grow when the codec decodes arbitrary bytes. `copy`, `deepcopy`
    and `pickle` rebuild a `NodeId` through `__new__`.
    """

    __slots__ = ()

    def __new__(cls, mac: bytes) -> "NodeId":
        if not isinstance(mac, bytes) or len(mac) != 6:
            raise ValueError(f"NodeId needs exactly 6 bytes, got {mac!r}")
        return super().__new__(cls, mac)

    @property
    def mac(self) -> bytes:
        return bytes(self)

    def __str__(self) -> str:
        return self.hex(":")

    def __repr__(self) -> str:
        return f"NodeId({self})"

    @classmethod
    def from_str(cls, text: str) -> "NodeId":
        """The id of a MAC written as six two-hex-digit octets joined by ':'."""
        octets = text.split(":")
        if len(octets) != 6:
            raise ValueError(f"mac must be six octets joined by ':', not {text!r}")
        for octet in octets:
            if len(octet) != 2 or octet.strip("0123456789abcdefABCDEF"):
                raise ValueError(f"mac octet {octet!r} of {text!r} is not two hex digits")
        return cls(bytes.fromhex("".join(octets)))


@dataclass(frozen=True)
class Location:
    """Position in metres. All coordinates must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for c in (self.x, self.y, self.z):
            if not math.isfinite(c):
                raise InvalidLocationError(f"non-finite coordinate in {(self.x, self.y, self.z)}")

    def distance_to(self, other: "Location") -> float:
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Rssi:
    """Received signal strength in dB, restricted to [-120, 0]."""

    value: float

    def __post_init__(self) -> None:
        if not (RSSI_MIN <= self.value <= RSSI_MAX):
            raise ValueError(f"RSSI {self.value} outside [{RSSI_MIN}, {RSSI_MAX}]")


@dataclass(frozen=True)
class TrustScore:
    """Dimensionless trust in [0, 1]; arithmetic clamps at the bounds."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"trust {self.value} outside [0, 1]")

    def adjusted(self, delta: float) -> "TrustScore":
        return TrustScore(min(1.0, max(0.0, self.value + delta)))


class LocationKey:
    """32-byte keyed digest binding a payload to a quantized location.

    `LocationKey(digest)` wraps a known digest. `cell_key` makes a key
    that holds its grid cell and payload instead and computes the digest on
    the first read of `digest`, which keeps it and drops the cell and the
    payload: a run reads a digest only to verify a payload or to encode it,
    and most payloads are never read. Equality, hash and repr go through
    `digest`, as a frozen dataclass over `digest` would; the key is immutable,
    and `copy`, `deepcopy` and `pickle` rebuild it from its digest.
    """

    __slots__ = ("_digest", "_signing")

    def __init__(self, digest: bytes) -> None:
        if len(digest) != 32:
            raise ValueError("LocationKey digest must be 32 bytes")
        _set_digest(self, digest)
        _set_signing(self, None)

    @property
    def digest(self) -> bytes:
        digest = self._digest
        if digest is None:
            (qx, qy, qz), payload = self._signing
            digest = cell_digest(qx, qy, qz, payload)
            _set_digest(self, digest)
            _set_signing(self, None)
        return digest

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.digest == other.digest
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.digest,))

    def __repr__(self) -> str:
        return f"LocationKey(digest={self.digest!r})"

    def __reduce__(self) -> tuple:
        return LocationKey, (self.digest,)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# the slots' own setters, which the key's __setattr__ refuses to other code
_set_digest = LocationKey._digest.__set__
_set_signing = LocationKey._signing.__set__


def quantize_location(loc: Location, grid: float) -> tuple[float, float, float]:
    """Snap each coordinate to the nearest multiple of `grid`."""
    if grid <= 0:
        raise ValueError("grid must be positive")
    return round(loc.x / grid) * grid, round(loc.y / grid) * grid, round(loc.z / grid) * grid


def cell_digest(qx: float, qy: float, qz: float, payload: bytes) -> bytes:
    """32-byte digest of `payload` keyed by the grid cell (qx, qy, qz)."""
    return hashlib.blake2b(payload, key=struct.pack("<3d", qx, qy, qz), digest_size=32).digest()


def cell_key(cell: tuple[float, float, float], payload: bytes) -> LocationKey:
    """The location key of `payload` signed in the quantized `cell`, as
    `quantize_location` returns it; the digest is computed on the key's
    first read."""
    key = object.__new__(LocationKey)
    _set_digest(key, None)
    _set_signing(key, (cell, payload))
    return key


def location_key(loc: Location, payload: bytes, grid: float) -> LocationKey:
    """Keyed digest of `payload` with the quantized location as the key.

    Two calls with locations falling in the same grid cell and equal payload
    bytes produce the same digest; anything else differs (up to digest
    collisions, negligible at 256 bits). The location is quantized here, so
    a bad grid raises here; the digest is computed on the key's first read.
    """
    return cell_key(quantize_location(loc, grid), payload)


@dataclass(frozen=True)
class BftRef:
    """Reference identifying a previously observed BFT message."""

    sender: NodeId
    subject: NodeId
    timestamp: int


class PayloadMessage:
    """Sensed data plus the payload signed with the sender's location.

    An immutable value with the fields, `==`, `hash` and `repr` that a
    frozen dataclass over the six fields would have. It is a slotted class
    whose `__init__` writes each slot through the slot's own setter: a
    frozen dataclass's `__init__` makes one `object.__setattr__` call per
    field, and a run builds one payload per node and payload period.
    Assigning or deleting a field raises FrozenInstanceError; `copy`,
    `deepcopy` and `pickle` rebuild a payload through `__init__`.
    """

    __slots__ = ("sender", "seq", "sensor_type", "payload", "signed_payload", "timestamp")

    sender: NodeId
    seq: int
    sensor_type: SensorType
    payload: bytes
    signed_payload: LocationKey
    timestamp: int

    def __init__(
        self,
        sender: NodeId,
        seq: int,
        sensor_type: SensorType,
        payload: bytes,
        signed_payload: LocationKey,
        timestamp: int,
    ) -> None:
        _set_sender(self, sender)
        _set_seq(self, seq)
        _set_sensor_type(self, sensor_type)
        _set_payload(self, payload)
        _set_signed_payload(self, signed_payload)
        _set_timestamp(self, timestamp)

    def _fields(self) -> tuple:
        return (self.sender, self.seq, self.sensor_type, self.payload, self.signed_payload, self.timestamp)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(sender={self.sender!r}, seq={self.seq!r}, "
            f"sensor_type={self.sensor_type!r}, payload={self.payload!r}, "
            f"signed_payload={self.signed_payload!r}, timestamp={self.timestamp!r})"
        )

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# the slots' own setters, which the payload's __setattr__ refuses to other code
_set_sender = PayloadMessage.sender.__set__
_set_seq = PayloadMessage.seq.__set__
_set_sensor_type = PayloadMessage.sensor_type.__set__
_set_payload = PayloadMessage.payload.__set__
_set_signed_payload = PayloadMessage.signed_payload.__set__
_set_timestamp = PayloadMessage.timestamp.__set__


@dataclass(frozen=True)
class BftMessage:
    """Dissent/context message: sender location, subject identity, measured RSSI."""

    sender: NodeId
    sender_location: Location
    subject: NodeId
    measured_rssi: Rssi
    ref_seq: Optional[int]
    timestamp: int

    def __post_init__(self) -> None:
        if self.sender == self.subject:
            raise ValueError("BFT subject must differ from sender")


@dataclass(frozen=True)
class AlertMessage:
    """High-priority trust message: self-distrust or distrust of a node."""

    sender: NodeId
    alert_type: AlertType
    object: NodeId
    ref_bft: Optional[BftRef]
    timestamp: int

    def __post_init__(self) -> None:
        if not isinstance(self.object, NodeId):
            raise ValueError("alert carries a NodeId object")
        if self.alert_type == AlertType.DISTRUST and self.ref_bft is None:
            raise ValueError("distrust alert must reference the BFT it replies to")
        if self.alert_type == AlertType.SELF_DISTRUST and self.object != self.sender:
            raise ValueError("self-distrust alert object must equal sender")


Message = Union[PayloadMessage, BftMessage, AlertMessage]


def _wire_uint(field: str, value: int, bits: int) -> int:
    """`value`, or ValueError naming `field` when it is not an integer that
    fits its unsigned `bits`-bit wire field."""
    if not (isinstance(value, int) and 0 <= value < 1 << bits):
        raise ValueError(f"{field} {value} does not fit the wire format's u{bits}")
    return value


def _header(tag: int, msg: Message) -> bytes:
    return struct.pack("<B6sQ", tag, msg.sender.mac, _wire_uint("timestamp", msg.timestamp, 64))


def encode_message(msg: Message) -> bytes:
    """Serialize a message to its canonical wire bytes.

    Raises ValueError naming the field when a value does not fit its wire
    field: a timestamp, seq, ref_seq or referenced BFT timestamp that is not
    an integer in 0..2**64-1, or a payload longer than 65,535 bytes.
    """
    if isinstance(msg, PayloadMessage):
        head = _header(TAG_PAYLOAD, msg)
        body = struct.pack(
            "<QBH",
            _wire_uint("seq", msg.seq, 64),
            int(msg.sensor_type),
            _wire_uint("payload length", len(msg.payload), 16),
        )
        return head + body + msg.payload + msg.signed_payload.digest
    if isinstance(msg, BftMessage):
        head = _header(TAG_BFT, msg)
        loc = msg.sender_location
        body = struct.pack("<3d6sd", loc.x, loc.y, loc.z, msg.subject.mac, msg.measured_rssi.value)
        if msg.ref_seq is None:
            ref = struct.pack("<B", 0)
        else:
            ref = struct.pack("<BQ", 1, _wire_uint("ref_seq", msg.ref_seq, 64))
        return head + body + ref
    if isinstance(msg, AlertMessage):
        head = _header(TAG_ALERT, msg)
        body = struct.pack("<B6s", int(msg.alert_type), msg.object.mac)
        if msg.ref_bft is None:
            body += struct.pack("<B", 0)
        else:
            r = msg.ref_bft
            rts = _wire_uint("ref_bft timestamp", r.timestamp, 64)
            body += struct.pack("<B6s6sQ", 1, r.sender.mac, r.subject.mac, rts)
        return head + body
    raise TypeError(f"not a wire message: {type(msg)!r}")


class _Reader:
    """Cursor over wire bytes that raises MessageDecodeError on underrun."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str) -> tuple:
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise MessageDecodeError("truncated message")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return out

    def take_bytes(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MessageDecodeError("truncated message")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def done(self) -> None:
        if self.pos != len(self.data):
            raise MessageDecodeError(f"{len(self.data) - self.pos} trailing bytes")


def decode_message(data: bytes) -> Message:
    """Parse canonical wire bytes back into a message value.

    Raises MessageDecodeError for anything malformed: unknown tag, truncation,
    trailing bytes, or field values violating message invariants.
    """
    rd = _Reader(data)
    tag, mac, timestamp = rd.take("<B6sQ")
    sender = NodeId(mac)
    try:
        if tag == TAG_PAYLOAD:
            seq, stype, plen = rd.take("<QBH")
            payload = rd.take_bytes(plen)
            digest = rd.take_bytes(32)
            rd.done()
            return PayloadMessage(
                sender=sender,
                seq=seq,
                sensor_type=SensorType(stype),
                payload=payload,
                signed_payload=LocationKey(digest),
                timestamp=timestamp,
            )
        if tag == TAG_BFT:
            x, y, z, submac, rssi = rd.take("<3d6sd")
            (flag,) = rd.take("<B")
            ref_seq = rd.take("<Q")[0] if flag else None
            rd.done()
            return BftMessage(
                sender=sender,
                sender_location=Location(x, y, z),
                subject=NodeId(submac),
                measured_rssi=Rssi(rssi),
                ref_seq=ref_seq,
                timestamp=timestamp,
            )
        if tag == TAG_ALERT:
            (atype,) = rd.take("<B")
            alert_type = AlertType(atype)
            obj = NodeId(rd.take_bytes(6))
            (flag,) = rd.take("<B")
            ref = None
            if flag:
                rmac, rsub, rts = rd.take("<6s6sQ")
                ref = BftRef(NodeId(rmac), NodeId(rsub), rts)
            rd.done()
            return AlertMessage(
                sender=sender, alert_type=alert_type, object=obj, ref_bft=ref, timestamp=timestamp
            )
    except (ValueError, InvalidLocationError) as exc:
        raise MessageDecodeError(str(exc)) from exc
    raise MessageDecodeError(f"unknown message tag 0x{tag:02x}")
