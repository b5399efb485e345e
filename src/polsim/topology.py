"""Per-node memory of the network: one row per peer, reports, dissent.

Mirrors the topology storage matrix each sensor node maintains: one row per
known node holding its identity (MAC, location, trust score) and, for a peer
the node has measured, the last RSSI values on that link, the newest one's
tick and smoothed value, and the link's smoothing and trigger state. Beside
the rows it keeps the newest report per reporter about each subject other
than the node itself, learned from BFT messages, until when each subject
has enough fresh reports to be located, and per subject the BFT messages
seen about it, which back the distrust predicate's dissent counting.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .messages import Location, NodeId, TrustScore

if TYPE_CHECKING:
    from .filters import TriggerState


class OrderingError(ValueError):
    """Sample rejected: not later than the newest sample on its link."""


class Report(NamedTuple):
    """The newest report of one reporter about one subject, from a BFT message."""

    timestamp: int
    value: float
    # location the reporter claimed in its BFT message
    reporter_location: Location


@dataclass(slots=True)
class PeerRecord:
    """Everything a node keeps about one known node.

    The identity attributes come first. The rest is the node's own link to
    the peer: the last measured values, oldest first, the newest one's tick
    `heard`, the newest smoothed value, which is from tick `heard`, and the
    smoother and trigger that made it, which stay None until the node counts
    a sample. A row without samples is no link. `smooth` is a
    `functools.partial` over its filter state and compares by identity, so
    rows compare without it.
    """

    id: NodeId
    location: Optional[Location] = None
    trust: TrustScore = field(default_factory=lambda: TrustScore(1.0))
    samples: array = field(default_factory=partial(array, "d"))
    heard: Optional[int] = None
    smoothed: Optional[float] = None
    smooth: Optional[Callable[[float], float]] = field(default=None, compare=False)
    trigger: Optional[TriggerState] = None
    # one contradiction-driven BFT allowed per deviation episode; replenished
    # by the next trigger fire so a standing disagreement is announced once
    contradiction_budget: int = 1


class TopologyStore:
    """Single-writer store owned by one simulated node.

    The node's own links live in the peer rows. Each holds the values of at
    most `capacity` measured samples, taken at rising ticks, the tick of the
    newest and the newest smoothed value. A subject is live at a tick while
    at least `min_reporters` (`localization.min_reporters`) of its reports
    are at most `freshness` ticks old, the bound on a report the verifier
    uses (`ProtocolParams.anchor_freshness`). The verifier can locate no
    subject that is not live; a live one may still lack the own anchor.
    """

    def __init__(self, self_id: NodeId, capacity: int, min_reporters: int, freshness: int):
        if not capacity >= 1:
            raise ValueError("history capacity must be >= 1")
        if not min_reporters >= 1:
            raise ValueError("min_reporters must be >= 1")
        if not freshness >= 0:
            raise ValueError("freshness must be >= 0")
        self.self_id = self_id
        self.capacity = capacity
        self.min_reporters = min_reporters
        self.freshness = freshness
        self.peers: dict[NodeId, PeerRecord] = {}
        # raised when a peer record is added or its trust adjusted; a reader
        # of the trust values lowers it once it has read them
        self.trust_changed = False
        # per subject, the BFT messages seen about it: (sender, emitted_at, seen_at)
        self._bft_seen: dict[NodeId, list[tuple[NodeId, int, int]]] = {}
        # newest report per (subject, reporter), for anchor gathering
        self._reported: dict[NodeId, dict[NodeId, Report]] = {}
        # subject -> the last tick at which its min_reporters-th newest
        # report is fresh, kept current by record_report
        self._live_until: dict[NodeId, int] = {}

    # -- peers ----------------------------------------------------------

    def add_peer(self, record: PeerRecord) -> None:
        self.peers[record.id] = record
        self.trust_changed = True

    def ensure_peer(self, node: NodeId) -> PeerRecord:
        rec = self.peers.get(node)
        if rec is None:
            rec = PeerRecord(id=node)
            self.peers[node] = rec
            self.trust_changed = True
        return rec

    def adjust_trust(self, peer: NodeId, delta: float) -> TrustScore:
        """Clamped trust update; a stranger first gets a record at full trust."""
        rec = self.ensure_peer(peer)
        rec.trust = rec.trust.adjusted(delta)
        self.trust_changed = True
        return rec.trust

    # -- own-link samples -------------------------------------------------

    def record_rssi(self, peer: NodeId, t: int, value: float) -> PeerRecord:
        """Append a measured sample of the link to `peer` and return its row,
        made as `ensure_peer` makes one on first sight. A sample not later
        than the link's newest one raises OrderingError, so only the first
        measurement per tick counts."""
        rec = self.peers.get(peer)
        if rec is None:
            if peer == self.self_id:
                raise ValueError("a node has no link to itself")
            rec = self.ensure_peer(peer)
        heard = rec.heard
        if heard is not None and t <= heard:
            raise OrderingError(f"sample at t={t} not after t={heard} on the link to {peer}")
        samples = rec.samples
        samples.append(value)
        if len(samples) > self.capacity:
            del samples[0]
        rec.heard = t
        return rec

    def links_heard_within(self, window: int, now: int) -> int:
        """Own links whose newest sample is at most `window` ticks old."""
        return sum(1 for rec in self.peers.values() if rec.heard is not None and now - rec.heard <= window)

    def history_consistent(self, peer: NodeId, candidate: float, tol: float) -> bool:
        """Is `candidate` (dB) within `tol` dB of the (lower) median of the
        link's samples? A link without samples cannot contradict anything,
        so it returns True."""
        if not tol >= 0:
            raise ValueError("tol must be >= 0")
        rec = self.peers.get(peer)
        if rec is None or not rec.samples:
            return True
        values = sorted(rec.samples)
        return abs(candidate - values[(len(values) - 1) // 2]) <= tol

    # -- reports from BFT messages ------------------------------------------

    def record_report(
        self, reporter: NodeId, subject: NodeId, t: int, value: float, reporter_location: Location
    ) -> None:
        """Keep the report unless the reporter's newest one about `subject`
        is from tick `t` or later: the first report per tick wins."""
        reports = self._reported.setdefault(subject, {})
        newest = reports.get(reporter)
        if newest is not None and newest.timestamp >= t:
            return
        reports[reporter] = Report(t, value, reporter_location)
        if len(reports) >= self.min_reporters:
            ticks = sorted(report.timestamp for report in reports.values())
            self._live_until[subject] = ticks[-self.min_reporters] + self.freshness

    def live(self, now: int) -> set[NodeId]:
        """The subjects with at least `min_reporters` reports at most
        `freshness` ticks old at `now`: a subject leaves on the tick its
        min_reporters-th newest report ages past `freshness`, and comes back
        with the report that gives it enough fresh ones again."""
        if not self._live_until:  # no subject has had enough reporters yet
            return set()
        return {subject for subject, until in self._live_until.items() if now <= until}

    def latest_reports_of(self, subject: NodeId) -> dict[NodeId, Report]:
        """Newest report per reporter for the given subject."""
        return self._reported.get(subject, {})

    # -- smoothed values of the owning node's own links --------------------
    # The node's only copy of them: NodeState writes one per counted sample
    # and clears them all on an announced move, so its readers and the
    # verifier's own anchor never see a value from before the move.

    def update_smoothed(self, peer: NodeId, value: float) -> None:
        """Set the smoothed value of the link's newest sample. NodeState
        writes `PeerRecord.smoothed` on the row it holds; tests call this,
        and perfbench/tracer.py wraps it by name."""
        self.peers[peer].smoothed = value

    # -- BFT sightings, per subject -----------------------------------------

    def register_bft(self, sender: NodeId, subject: NodeId, emitted_at: int, seen_at: int) -> None:
        self._bft_seen.setdefault(subject, []).append((sender, emitted_at, seen_at))

    def recent_bft_senders(self, subject: NodeId, window: int, now: int) -> set[NodeId]:
        """Distinct senders that questioned `subject` within (now-window, now]."""
        if not window > 0:
            raise ValueError("window must be positive")
        return {
            sender
            for sender, _, seen_at in self._bft_seen.get(subject, ())
            if now - window < seen_at <= now
        }

    def count_recent_bft(self, subject: NodeId, window: int, now: int) -> int:
        """Size of the recent dissent set for `subject`.

        Counting senders rather than messages keeps one chatty node from
        inflating the dissent count.
        """
        return len(self.recent_bft_senders(subject, window, now))

    def has_seen_bft(self, sender: NodeId, subject: NodeId, emitted_at: int) -> bool:
        return any(
            seen_sender == sender and seen_emitted == emitted_at
            for seen_sender, seen_emitted, _ in self._bft_seen.get(subject, ())
        )
