"""Per-node memory of the network: RSSI histories, peer identities, trust.

Mirrors the topology storage matrix each sensor node maintains: one row per
known node (MAC, sensor type, location, trust score) and a bounded history of
RSSI values per directed link, both for the node's own links and for links
between third parties it learned about from BFT messages. A log of observed
BFT messages backs the distrust predicate's dissent counting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .messages import Location, NodeId, Rssi, RssiSource, SensorType, TrustScore

DEFAULT_HISTORY_CAPACITY = 64


class OrderingError(ValueError):
    """Sample rejected: timestamp went backwards on a link."""


class UnknownPeerError(KeyError):
    """Operation referenced a node the store has never heard of."""


@dataclass(frozen=True)
class LinkKey:
    """Directed link: `observer` measured (or reported) `observed`.

    The hash is the dataclass one, hash((observer, observed)), computed once:
    links key the per-sample dictionaries of the store.
    """

    observer: NodeId
    observed: NodeId

    def __post_init__(self) -> None:
        if self.observer == self.observed:
            raise ValueError("link endpoints must differ")
        object.__setattr__(self, "_hash", hash((self.observer, self.observed)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class RssiEntry:
    timestamp: int
    value: float
    source: RssiSource
    # location claimed by the reporting node at report time (Reported only)
    reporter_location: Optional[Location] = None


@dataclass
class PeerRecord:
    """Identity attributes of one known node."""

    id: NodeId
    sensor_type: SensorType = SensorType.GENERIC
    location: Optional[Location] = None
    trust: TrustScore = field(default_factory=lambda: TrustScore(1.0))
    location_verified: bool = True


@dataclass(frozen=True)
class BftObservation:
    """One BFT message seen on the air, kept for dissent counting."""

    sender: NodeId
    subject: NodeId
    emitted_at: int
    seen_at: int


class TopologyStore:
    """Single-writer store owned by one simulated node.

    History per link is a ring buffer of `capacity` entries with
    non-decreasing timestamps; at most one entry per (timestamp, source).
    """

    def __init__(self, self_id: NodeId, capacity: int = DEFAULT_HISTORY_CAPACITY):
        if capacity < 1:
            raise ValueError("history capacity must be >= 1")
        self.self_id = self_id
        self.capacity = capacity
        self.peers: dict[NodeId, PeerRecord] = {}
        self._links: dict[LinkKey, list[RssiEntry]] = {}
        self._smoothed: dict[LinkKey, tuple[int, float]] = {}
        self._bft_log: list[BftObservation] = []
        # newest Reported entry per (subject, reporter), for anchor gathering
        self._reported: dict[NodeId, dict[NodeId, RssiEntry]] = {}

    # -- peers ----------------------------------------------------------

    def add_peer(self, record: PeerRecord) -> None:
        self.peers[record.id] = record

    def peer(self, node: NodeId) -> Optional[PeerRecord]:
        return self.peers.get(node)

    def ensure_peer(self, node: NodeId) -> PeerRecord:
        rec = self.peers.get(node)
        if rec is None:
            rec = PeerRecord(id=node)
            self.peers[node] = rec
        return rec

    def adjust_trust(self, peer: NodeId, delta: float) -> TrustScore:
        """Clamped trust update; raises UnknownPeerError for strangers."""
        rec = self.peers.get(peer)
        if rec is None:
            raise UnknownPeerError(str(peer))
        rec.trust = rec.trust.adjusted(delta)
        return rec.trust

    # -- RSSI histories ---------------------------------------------------

    def record_rssi(
        self,
        link: LinkKey,
        t: int,
        v: Rssi,
        source: RssiSource,
        reporter_location: Optional[Location] = None,
    ) -> None:
        """Append a sample; creates the link on first sight.

        Timestamps must not go backwards. A second sample at the same tick is
        allowed only from the other source kind (measured vs reported).
        """
        history = self._links.get(link)
        if history is None:
            history = []
            self._links[link] = history
        if history:
            last_t = history[-1].timestamp
            if t < last_t:
                raise OrderingError(f"sample at t={t} after t={last_t} on {link}")
            if t == last_t:
                for entry in reversed(history):
                    if entry.timestamp != t:
                        break
                    if entry.source == source:
                        raise OrderingError(f"duplicate {source.name} sample at t={t} on {link}")
        entry = RssiEntry(t, v.value, source, reporter_location)
        history.append(entry)
        if len(history) > self.capacity:
            del history[0]
        if source == RssiSource.REPORTED:
            self._reported.setdefault(link.observed, {})[link.observer] = entry

    def latest_rssi(self, link: LinkKey, source_filter: Optional[RssiSource] = None) -> Optional[Rssi]:
        """Newest matching sample's value, or None."""
        history = self._links.get(link)
        if not history:
            return None
        for entry in reversed(history):
            if source_filter is None or entry.source == source_filter:
                return Rssi(entry.value)
        return None

    def latest_entry(self, link: LinkKey, source_filter: Optional[RssiSource] = None) -> Optional[RssiEntry]:
        history = self._links.get(link)
        if not history:
            return None
        for entry in reversed(history):
            if source_filter is None or entry.source == source_filter:
                return entry
        return None

    def history(self, link: LinkKey) -> tuple[RssiEntry, ...]:
        return tuple(self._links.get(link, ()))

    def latest_reports_of(self, subject: NodeId) -> dict[NodeId, RssiEntry]:
        """Newest Reported entry per reporter for the given subject."""
        return self._reported.get(subject, {})

    def links(self) -> Iterable[LinkKey]:
        return self._links.keys()

    def history_consistent(self, link: LinkKey, candidate: Rssi, window: int, tol: float) -> bool:
        """Is `candidate` within `tol` dB of the median of recent measurements?

        Uses the last `window` Measured samples (all of them if fewer exist).
        An empty history cannot contradict anything, so it returns True.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        if tol < 0:
            raise ValueError("tol must be >= 0")
        values = [e.value for e in self._links.get(link, ()) if e.source == RssiSource.MEASURED]
        if not values:
            return True
        tail = sorted(values[-window:])
        median = tail[(len(tail) - 1) // 2] if len(tail) % 2 == 0 else tail[len(tail) // 2]
        return abs(candidate.value - median) <= tol

    # -- smoothed per-link values (maintained by the owning node) ---------

    def update_smoothed(self, link: LinkKey, t: int, value: float) -> None:
        self._smoothed[link] = (t, value)

    def latest_smoothed(self, link: LinkKey) -> Optional[tuple[int, float]]:
        return self._smoothed.get(link)

    # -- BFT observation log ----------------------------------------------

    def register_bft(self, sender: NodeId, subject: NodeId, emitted_at: int, seen_at: int) -> None:
        self._bft_log.append(BftObservation(sender, subject, emitted_at, seen_at))

    def recent_bft_senders(self, subject: NodeId, window: int, now: int) -> set[NodeId]:
        """Distinct senders that questioned `subject` within (now-window, now]."""
        if window <= 0:
            raise ValueError("window must be positive")
        return {
            obs.sender
            for obs in self._bft_log
            if obs.subject == subject and now - window < obs.seen_at <= now
        }

    def count_recent_bft(self, subject: NodeId, window: int, now: int) -> int:
        """Size of the recent dissent set for `subject`.

        Counting senders rather than messages keeps one chatty node from
        inflating the dissent count.
        """
        return len(self.recent_bft_senders(subject, window, now))

    def has_seen_bft(self, sender: NodeId, subject: NodeId, emitted_at: int) -> bool:
        return any(
            obs.sender == sender and obs.subject == subject and obs.emitted_at == emitted_at
            for obs in self._bft_log
        )

    # -- JSON dump / load ---------------------------------------------------

    def to_json(self) -> str:
        """Serialize the full store state for fixtures and debugging."""
        doc = {
            "self_id": str(self.self_id),
            "capacity": self.capacity,
            "peers": [
                {
                    "id": str(rec.id),
                    "sensor_type": int(rec.sensor_type),
                    "location": list(rec.location.as_tuple()) if rec.location else None,
                    "trust": rec.trust.value,
                    "location_verified": rec.location_verified,
                }
                for rec in sorted(self.peers.values(), key=lambda r: r.id)
            ],
            "links": [
                {
                    "observer": str(link.observer),
                    "observed": str(link.observed),
                    "history": [
                        {
                            "t": e.timestamp,
                            "rssi": e.value,
                            "source": int(e.source),
                            "reporter_location": (
                                list(e.reporter_location.as_tuple()) if e.reporter_location else None
                            ),
                        }
                        for e in entries
                    ],
                }
                for link, entries in sorted(
                    self._links.items(), key=lambda kv: (kv[0].observer, kv[0].observed)
                )
            ],
            "smoothed": [
                {"observer": str(l.observer), "observed": str(l.observed), "t": t, "value": v}
                for l, (t, v) in sorted(
                    self._smoothed.items(), key=lambda kv: (kv[0].observer, kv[0].observed)
                )
            ],
            "bft_log": [
                {
                    "sender": str(o.sender),
                    "subject": str(o.subject),
                    "emitted_at": o.emitted_at,
                    "seen_at": o.seen_at,
                }
                for o in self._bft_log
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TopologyStore":
        doc = json.loads(text)
        store = cls(NodeId.from_str(doc["self_id"]), capacity=doc["capacity"])
        for p in doc["peers"]:
            store.add_peer(
                PeerRecord(
                    id=NodeId.from_str(p["id"]),
                    sensor_type=SensorType(p["sensor_type"]),
                    location=Location(*p["location"]) if p["location"] else None,
                    trust=TrustScore(p["trust"]),
                    location_verified=p["location_verified"],
                )
            )
        for l in doc["links"]:
            link = LinkKey(NodeId.from_str(l["observer"]), NodeId.from_str(l["observed"]))
            entries = [
                RssiEntry(
                    e["t"],
                    e["rssi"],
                    RssiSource(e["source"]),
                    Location(*e["reporter_location"]) if e["reporter_location"] else None,
                )
                for e in l["history"]
            ]
            store._links[link] = entries
            for entry in entries:
                if entry.source == RssiSource.REPORTED:
                    store._reported.setdefault(link.observed, {})[link.observer] = entry
        for s in doc["smoothed"]:
            link = LinkKey(NodeId.from_str(s["observer"]), NodeId.from_str(s["observed"]))
            store._smoothed[link] = (s["t"], s["value"])
        for o in doc["bft_log"]:
            store.register_bft(
                NodeId.from_str(o["sender"]),
                NodeId.from_str(o["subject"]),
                o["emitted_at"],
                o["seen_at"],
            )
        return store
