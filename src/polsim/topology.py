"""Per-node memory of the network: RSSI histories, peer identities, trust.

Mirrors the topology storage matrix each sensor node maintains: one row per
known node (MAC, sensor type, location, trust score) and a bounded history of
RSSI values per directed link, both for the node's own links and for links
between third parties it learned about from BFT messages. A log of observed
BFT messages backs the distrust predicate's dissent counting.
"""

from __future__ import annotations

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

    # -- smoothed values of the owning node's own links --------------------
    # The node's only copy of them: NodeState writes one per counted sample
    # and clears them all on an announced move, so its readers and the
    # verifier's own anchor never see a value from before the move.

    def update_smoothed(self, link: LinkKey, t: int, value: float) -> None:
        self._smoothed[link] = (t, value)

    def latest_smoothed(self, link: LinkKey) -> Optional[tuple[int, float]]:
        return self._smoothed.get(link)

    def clear_smoothed(self) -> None:
        self._smoothed.clear()

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
