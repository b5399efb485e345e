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
    0x03 alert      [alert_type: u8] [object: mac 6B | len u16 + bytes]
                    [ref flag: u8] [ref_bft: 6B + 6B + u64?]
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Union

RSSI_MIN = -120.0
RSSI_MAX = 0.0

DEFAULT_LOCATION_GRID = 0.5  # metres

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
    MEASUREMENT = 1
    SELF_DISTRUST = 2
    DISTRUST = 3


class RssiSource(IntEnum):
    MEASURED = 0   # own radio measurement
    REPORTED = 1   # extracted from a peer's BFT message


class NodeId:
    """6-byte MAC-style identifier; compares byte-wise.

    Hash and string forms are cached, identifiers are used as dict keys on
    every hot path of the simulator.
    """

    __slots__ = ("mac", "_hash", "_str")

    def __init__(self, mac: bytes):
        if not isinstance(mac, bytes) or len(mac) != 6:
            raise ValueError(f"NodeId needs exactly 6 bytes, got {mac!r}")
        self.mac = mac
        self._hash = hash(mac)
        self._str = ":".join(f"{b:02x}" for b in mac)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeId) and self.mac == other.mac

    def __lt__(self, other: "NodeId") -> bool:
        return self.mac < other.mac

    def __le__(self, other: "NodeId") -> bool:
        return self.mac <= other.mac

    def __gt__(self, other: "NodeId") -> bool:
        return self.mac > other.mac

    def __ge__(self, other: "NodeId") -> bool:
        return self.mac >= other.mac

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"NodeId({self._str})"

    @classmethod
    def from_str(cls, text: str) -> "NodeId":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"bad MAC string {text!r}")
        return cls(bytes(int(p, 16) for p in parts))


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

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class TrustScore:
    """Dimensionless trust in [0, 1]; arithmetic clamps at the bounds."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"trust {self.value} outside [0, 1]")

    def adjusted(self, delta: float) -> "TrustScore":
        return TrustScore(min(1.0, max(0.0, self.value + delta)))


@dataclass(frozen=True)
class LocationKey:
    """32-byte keyed digest binding a payload to a quantized location."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != 32:
            raise ValueError("LocationKey digest must be 32 bytes")


def quantize_location(loc: Location, grid: float) -> tuple[float, float, float]:
    """Snap each coordinate to the nearest multiple of `grid`."""
    if grid <= 0:
        raise ValueError("grid must be positive")
    return tuple(round(c / grid) * grid for c in loc.as_tuple())


def location_key(loc: Location, payload: bytes, grid: float = DEFAULT_LOCATION_GRID) -> LocationKey:
    """Keyed digest of `payload` with the quantized location as the key.

    Two calls with locations falling in the same grid cell and equal payload
    bytes produce the same digest; anything else differs (up to digest
    collisions, negligible at 256 bits).
    """
    qx, qy, qz = quantize_location(loc, grid)
    key = struct.pack("<3d", qx, qy, qz)
    return LocationKey(hashlib.blake2b(payload, key=key, digest_size=32).digest())


def verify_location_key(
    claimed: LocationKey, loc: Location, payload: bytes, grid: float = DEFAULT_LOCATION_GRID
) -> bool:
    """True iff signing `payload` at `loc` reproduces `claimed`."""
    return location_key(loc, payload, grid) == claimed


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
    measured_rssi: Rssi
    ref_seq: Optional[int]
    timestamp: int

    def __post_init__(self) -> None:
        if self.sender == self.subject:
            raise ValueError("BFT subject must differ from sender")


@dataclass(frozen=True)
class AlertMessage:
    """High-priority message: measurement alarm, self-distrust, or distrust."""

    sender: NodeId
    alert_type: AlertType
    object: Union[NodeId, bytes]
    ref_bft: Optional[BftRef]
    timestamp: int

    def __post_init__(self) -> None:
        if self.alert_type == AlertType.MEASUREMENT:
            if not isinstance(self.object, bytes):
                raise ValueError("measurement alert carries a sensor reading")
        else:
            if not isinstance(self.object, NodeId):
                raise ValueError("trust alert carries a NodeId object")
        if self.alert_type == AlertType.DISTRUST and self.ref_bft is None:
            raise ValueError("distrust alert must reference the BFT it replies to")
        if self.alert_type == AlertType.SELF_DISTRUST and self.object != self.sender:
            raise ValueError("self-distrust alert object must equal sender")


Message = Union[PayloadMessage, BftMessage, AlertMessage]


def encode_message(msg: Message) -> bytes:
    """Serialize a message to its canonical wire bytes."""
    if isinstance(msg, PayloadMessage):
        head = struct.pack("<B6sQ", TAG_PAYLOAD, msg.sender.mac, msg.timestamp)
        body = struct.pack("<QBH", msg.seq, int(msg.sensor_type), len(msg.payload))
        return head + body + msg.payload + msg.signed_payload.digest
    if isinstance(msg, BftMessage):
        head = struct.pack("<B6sQ", TAG_BFT, msg.sender.mac, msg.timestamp)
        loc = msg.sender_location
        body = struct.pack("<3d6sd", loc.x, loc.y, loc.z, msg.subject.mac, msg.measured_rssi.value)
        if msg.ref_seq is None:
            ref = struct.pack("<B", 0)
        else:
            ref = struct.pack("<BQ", 1, msg.ref_seq)
        return head + body + ref
    if isinstance(msg, AlertMessage):
        head = struct.pack("<B6sQ", TAG_ALERT, msg.sender.mac, msg.timestamp)
        body = struct.pack("<B", int(msg.alert_type))
        if msg.alert_type == AlertType.MEASUREMENT:
            assert isinstance(msg.object, bytes)
            body += struct.pack("<H", len(msg.object)) + msg.object
        else:
            assert isinstance(msg.object, NodeId)
            body += msg.object.mac
        if msg.ref_bft is None:
            body += struct.pack("<B", 0)
        else:
            r = msg.ref_bft
            body += struct.pack("<B6s6sQ", 1, r.sender.mac, r.subject.mac, r.timestamp)
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
            obj: Union[NodeId, bytes]
            if alert_type == AlertType.MEASUREMENT:
                (olen,) = rd.take("<H")
                obj = rd.take_bytes(olen)
            else:
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
