"""Domain value types and the three wire message types of the PoL protocol.

Everything here is an immutable value: node identifiers, locations, and the
payload / BFT / alert messages exchanged between sensor nodes. An RSSI
reading is a plain float in [RSSI_MIN, RSSI_MAX], which a BFT message
checks for the one it carries. The module also implements the location key
(a keyed digest binding a payload to a quantized location) and the
canonical binary wire encoding.

The wire format is declared once, as the `struct.Struct` of each message
part below, which the encoder and the decoder both use; README "Wire
format" documents it, and tests/test_readme.py checks that the two agree.

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

# each part of a wire message, little-endian; a ref follows its body when the flag is 1
HEADER = struct.Struct("<B6sQ")  # type, sender, timestamp
PAYLOAD_BODY = struct.Struct("<QBH")  # seq, sensor_type, payload length; the payload and its digest follow
BFT_BODY = struct.Struct("<3d6sdB")  # sender_location, subject, measured_rssi, ref flag
BFT_REF = struct.Struct("<Q")  # ref_seq
ALERT_BODY = struct.Struct("<B6sB")  # alert_type, object, ref flag
ALERT_REF = struct.Struct("<6s6sQ")  # ref_bft sender, subject, timestamp
_CELL = struct.Struct("<3d")  # a grid cell, as the key of its location keys' digest


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
    `hash(mac)`, ids compare byte-wise, `sorted` orders them by MAC and the
    codec packs an id as is. A subclass is chosen over interning one object
    per MAC: there is no intern table to grow when the codec decodes
    arbitrary bytes. `copy`, `deepcopy` and `pickle` rebuild a `NodeId`
    through `__new__`.
    """

    __slots__ = ()

    def __new__(cls, mac: bytes) -> "NodeId":
        if not isinstance(mac, bytes) or len(mac) != 6:
            raise ValueError(f"NodeId needs exactly 6 bytes, got {mac!r}")
        return super().__new__(cls, mac)

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


class LocationKey:
    """32-byte keyed digest binding a payload to a quantized location.

    `LocationKey(digest)` wraps a known digest. `cell_key` makes a key
    that holds its grid cell and payload instead and computes the digest on
    the first read of `digest`, which keeps it and drops the cell and the
    payload: a run reads a digest only to verify a payload or to encode it,
    and most payloads are never read: none of the 45,000 of a `soak-9k` run
    and 79 of the 6,000 of a 300-tick `dense-20` run are, and each unread
    one saves a `cell_digest`, about 0.85 µs (CPython 3.11.7, timeit on a
    2-CPU host). Equality, hash and repr go through
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
    return hashlib.blake2b(payload, key=_CELL.pack(qx, qy, qz), digest_size=32).digest()


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


@dataclass(frozen=True)
class PayloadMessage:
    """Sensed data plus the payload signed with the sender's location."""

    sender: NodeId
    seq: int
    sensor_type: SensorType
    payload: bytes
    signed_payload: LocationKey
    timestamp: int


@dataclass(frozen=True)
class BftMessage:
    """Dissent/context message: sender location, subject identity, measured RSSI."""

    sender: NodeId
    sender_location: Location
    subject: NodeId
    measured_rssi: float
    ref_seq: Optional[int]
    timestamp: int

    def __post_init__(self) -> None:
        if self.sender == self.subject:
            raise ValueError("BFT subject must differ from sender")
        if not (RSSI_MIN <= self.measured_rssi <= RSSI_MAX):  # NaN fails too
            raise ValueError(f"RSSI {self.measured_rssi} outside [{RSSI_MIN}, {RSSI_MAX}]")


@dataclass(frozen=True)
class AlertMessage:
    """High-priority trust message: self-distrust or distrust of a node."""

    sender: NodeId
    alert_type: AlertType
    object: NodeId
    ref_bft: Optional[BftRef]
    timestamp: int

    def __post_init__(self) -> None:
        if not isinstance(self.alert_type, AlertType):
            raise ValueError(f"alert type must be an AlertType, not {self.alert_type!r}")
        if not isinstance(self.object, NodeId):
            raise ValueError("alert carries a NodeId object")
        if self.alert_type == AlertType.DISTRUST:
            # A distrusts B for B's BFT about A: the ref names that BFT
            ref = self.ref_bft
            if ref is None:
                raise ValueError("distrust alert must reference the BFT it replies to")
            if ref.sender != self.object or ref.subject != self.sender:
                raise ValueError("distrust alert must reference the accused's BFT about its sender")
        if self.alert_type == AlertType.SELF_DISTRUST and self.object != self.sender:
            raise ValueError("self-distrust alert object must equal sender")


Message = Union[PayloadMessage, BftMessage, AlertMessage]


def _wire_uint(field: str, value: int, bits: int) -> int:
    """`value`, or ValueError naming `field` when it is not an integer that
    fits its unsigned `bits`-bit wire field."""
    if not (isinstance(value, int) and 0 <= value < 1 << bits):
        raise ValueError(f"{field} {value} does not fit the wire format's u{bits}")
    return value


_SENSOR_TYPES = frozenset(SensorType)


def _wire_sensor_type(value: int) -> int:
    """`value`, or ValueError naming the field when the decoder would refuse it."""
    if not (isinstance(value, int) and value in _SENSOR_TYPES):
        raise ValueError(f"sensor_type {value} is not a SensorType value")
    return value


def encode_message(msg: Message) -> bytes:
    """Serialize a message to its canonical wire bytes.

    Raises ValueError naming the field when a value does not fit its wire
    field: a timestamp, seq, ref_seq or referenced BFT timestamp that is not
    an integer in 0..2**64-1, a sensor_type that is not a SensorType value,
    or a payload longer than 65,535 bytes.
    """
    if isinstance(msg, PayloadMessage):
        head = HEADER.pack(TAG_PAYLOAD, msg.sender, _wire_uint("timestamp", msg.timestamp, 64))
        body = PAYLOAD_BODY.pack(
            _wire_uint("seq", msg.seq, 64),
            _wire_sensor_type(msg.sensor_type),
            _wire_uint("payload length", len(msg.payload), 16),
        )
        return head + body + msg.payload + msg.signed_payload.digest
    if isinstance(msg, BftMessage):
        head = HEADER.pack(TAG_BFT, msg.sender, _wire_uint("timestamp", msg.timestamp, 64))
        loc = msg.sender_location
        ref = b"" if msg.ref_seq is None else BFT_REF.pack(_wire_uint("ref_seq", msg.ref_seq, 64))
        body = BFT_BODY.pack(loc.x, loc.y, loc.z, msg.subject, msg.measured_rssi, 1 if ref else 0)
        return head + body + ref
    if isinstance(msg, AlertMessage):
        head = HEADER.pack(TAG_ALERT, msg.sender, _wire_uint("timestamp", msg.timestamp, 64))
        r = msg.ref_bft
        ref = b"" if r is None else ALERT_REF.pack(
            r.sender, r.subject, _wire_uint("ref_bft timestamp", r.timestamp, 64)
        )
        return head + ALERT_BODY.pack(msg.alert_type, msg.object, 1 if ref else 0) + ref
    raise TypeError(f"not a wire message: {type(msg)!r}")


class _Reader:
    """Cursor over wire bytes that raises MessageDecodeError on underrun."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip(self, size: int) -> int:
        """The position of the next `size` bytes, which the cursor moves past."""
        start = self.pos
        self.pos = start + size
        if self.pos > len(self.data):
            raise MessageDecodeError("truncated message")
        return start

    def take(self, part: struct.Struct) -> tuple:
        return part.unpack_from(self.data, self.skip(part.size))

    def raw(self, size: int) -> bytes:
        return self.data[self.skip(size) : self.pos]

    def ref(self, flag: int, part: struct.Struct) -> Optional[tuple]:
        """The ref `part` when its flag is 1, None when it is 0; any other flag byte is refused."""
        if flag > 1:
            raise MessageDecodeError(f"ref flag {flag} is neither 0 nor 1")
        return self.take(part) if flag else None

    def done(self) -> None:
        if self.pos != len(self.data):
            raise MessageDecodeError(f"{len(self.data) - self.pos} trailing bytes")


def decode_message(data: bytes) -> Message:
    """Parse canonical wire bytes back into a message value.

    Raises MessageDecodeError for anything malformed: unknown tag, truncation,
    trailing bytes, a ref flag other than 0 or 1, or field values violating
    message invariants.
    """
    rd = _Reader(data)
    tag, sender, timestamp = rd.take(HEADER)
    sender = NodeId(sender)
    try:
        if tag == TAG_PAYLOAD:
            seq, sensor_type, length = rd.take(PAYLOAD_BODY)
            payload, digest = rd.raw(length), rd.raw(32)
            rd.done()
            return PayloadMessage(
                sender=sender,
                seq=seq,
                sensor_type=SensorType(sensor_type),
                payload=payload,
                signed_payload=LocationKey(digest),
                timestamp=timestamp,
            )
        if tag == TAG_BFT:
            x, y, z, subject, rssi, flag = rd.take(BFT_BODY)
            ref = rd.ref(flag, BFT_REF)
            rd.done()
            return BftMessage(
                sender=sender,
                sender_location=Location(x, y, z),
                subject=NodeId(subject),
                measured_rssi=rssi,
                ref_seq=None if ref is None else ref[0],
                timestamp=timestamp,
            )
        if tag == TAG_ALERT:
            alert_type, obj, flag = rd.take(ALERT_BODY)
            alert_type, obj = AlertType(alert_type), NodeId(obj)
            ref = rd.ref(flag, ALERT_REF)
            rd.done()
            ref_bft = None if ref is None else BftRef(NodeId(ref[0]), NodeId(ref[1]), ref[2])
            return AlertMessage(
                sender=sender, alert_type=alert_type, object=obj, ref_bft=ref_bft, timestamp=timestamp
            )
    except ValueError as exc:  # InvalidLocationError included
        raise MessageDecodeError(str(exc)) from exc
    raise MessageDecodeError(f"unknown message tag 0x{tag:02x}")
