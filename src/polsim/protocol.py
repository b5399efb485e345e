"""Per-node PoL state machine.

Each sensor node runs the same deterministic logic: emit payload messages
signed with its own location, pool received payloads until they can be
validated, derive and store topology relations, smooth every link's RSSI
stream, emit BFT messages when a link deviates or a sender's claimed location
contradicts the RSSI-derived estimate, answer BFT messages about itself via a
fixed decision table, and process distrust alerts into local trust updates.

All entry points are deterministic functions of (state, inputs, now); the
only state they touch is the node's own. Replaying the same inputs on a copy
of the state reproduces the same actions, which the test suite asserts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional, Union

# perfbench/tracer.py wraps polsim.protocol.cascade_step by name; the node
# steps its smoother through make_filter and no longer calls it here
from .filters import TriggerState, bft_trigger, cascade_step, make_filter  # noqa: F401
from .localization import PathLossModel, VerifyOutcome, locate_and_verify
from .messages import (
    AlertMessage,
    AlertType,
    BftMessage,
    BftRef,
    Location,
    Message,
    MessageDecodeError,
    NodeId,
    PayloadMessage,
    Rssi,
    SensorType,
    decode_message,
    location_key,
)
from .topology import LinkKey, RssiSource, TopologyStore


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable protocol constants (see README for the rationale behind defaults)."""

    epsilon: float = 0.3            # trust threshold of the distrust predicate
    tau: Optional[float] = None     # dissent threshold: a count, a fraction of
                                    # in-range peers, or None for half of them
    trust_step: float = 0.1
    consistency_tol: float = 5.0    # dB, claimed-vs-measured and history checks
    pool_ttl: int = 120             # ticks a payload may wait for validation
    bft_window: int = 120           # ticks of BFT observations counted / anchor freshness
    history_window: int = 64        # samples for history consistency checks (full buffer)
    location_grid: float = 0.5      # metres, location-key quantization
    verify_slack_cells: int = 1     # grid-cell tolerance of location verification
    min_anchors: int = 4            # observers needed for a 3-D position solve
    anchor_freshness: int = 45      # ticks an anchor observation stays usable
    residual_cap: float = 0.5       # metres RMS; worse solves count as no data
    max_gdop: float = 4.0           # geometry confidence bound for verification
    alert_cooldown: int = 30        # ticks between alerts per (type, object)
    moved_ttl: int = 120            # ticks the own-movement flag stays raised
    initial_trust: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must be in (0, 1)")
        if self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be positive when fixed")
        for name in ("trust_step", "consistency_tol", "pool_ttl", "bft_window",
                     "history_window", "location_grid", "anchor_freshness",
                     "residual_cap", "max_gdop"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("verify_slack_cells", "alert_cooldown", "moved_ttl"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.min_anchors < 4:
            raise ValueError("min_anchors must be >= 4 (a 3-D solve needs four)")
        if not (0.0 <= self.initial_trust <= 1.0):
            raise ValueError("initial_trust must be in [0, 1]")


@dataclass(frozen=True)
class FilterParams:
    """Per-link smoothing pipeline and trigger configuration.

    `smoother` picks any filter from the registry (default: the
    median-then-Kalman cascade) and `smoother_params` holds that filter's
    parameters. Building the params builds one smoother and one trigger, so
    a bad value raises ValueError here rather than on a node's first sample.
    """

    trigger_threshold: float = 6.0
    trigger_cooldown: int = 30
    warmup: int = 10                # samples before the trigger baseline is set
    smoother: str = "median_kalman"
    smoother_params: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.smoother_params is not None and not isinstance(self.smoother_params, dict):
            raise ValueError("smoother_params must be an object")
        self.link_state()

    def link_state(self) -> tuple[Callable[[float], float], TriggerState]:
        """A fresh smoother and trigger for one link."""
        return make_filter(self.smoother, self.smoother_params), TriggerState(
            threshold=self.trigger_threshold, cooldown=self.trigger_cooldown, warmup=self.warmup
        )


# -- actions -----------------------------------------------------------------


@dataclass(frozen=True)
class SendPayload:
    message: PayloadMessage


@dataclass(frozen=True)
class SendBft:
    message: BftMessage


@dataclass(frozen=True)
class SendAlert:
    message: AlertMessage


@dataclass(frozen=True)
class StoreTrusted:
    message: PayloadMessage


@dataclass(frozen=True)
class Ignore:
    reason: str
    context: str = ""


Action = Union[SendPayload, SendBft, SendAlert, StoreTrusted, Ignore]


# -- self-defense decision table ----------------------------------------------

BFT_ABOUT_B = "bft_about_b"
SELF_DISTRUST = "self_distrust_alert"
DISTRUST_B = "distrust_alert_against_b"
IGNORE = "ignore"

# Keyed by (claimed_consistent, history_consistent, distrust_b, distrust_self).
# The five action rows are fixed by the protocol; every other combination is
# deliberately ignored because the cause cannot be identified with certainty.
SELF_DEFENSE_TABLE: dict[tuple[bool, bool, bool, bool], str] = {
    (True, False, True, False): BFT_ABOUT_B,
    (True, False, True, True): BFT_ABOUT_B,
    (True, False, False, True): SELF_DISTRUST,
    (False, True, True, False): BFT_ABOUT_B,
    (False, False, True, False): DISTRUST_B,
}
for _c in (True, False):
    for _h in (True, False):
        for _db in (True, False):
            for _ds in (True, False):
                SELF_DEFENSE_TABLE.setdefault((_c, _h, _db, _ds), IGNORE)


@dataclass
class _LinkPipeline:
    """Smoothing and trigger state for one outgoing observation link."""

    link: LinkKey  # (own id, peer), built once and reused for every sample
    smooth: Callable[[float], float]
    trigger: TriggerState
    pending_since: Optional[int] = None  # trigger fired, BFT not yet sent
    # one contradiction-driven BFT allowed per deviation episode; replenished
    # by the next trigger fire so a standing disagreement is announced once
    contradiction_budget: int = 1


@dataclass(slots=True)
class _PoolEntry:
    message: PayloadMessage
    received_at: int


class MessagePool:
    """Received-but-unvalidated payload messages with TTL and seq dedup.

    A (sender, seq) pair is pooled at most once for the life of the pool.
    The seqs pooled so far are kept per sender as sorted disjoint runs,
    flattened to ``[lo0, hi0, lo1, hi1, ...]`` with ``hi < next lo - 1``: an
    honest sender's monotone seqs stay one run however long the run is,
    and a spoofer's seqs in another range add a second run instead of
    shutting out the victim's later seqs, as a per-sender high watermark
    would.
    """

    def __init__(self, ttl: int):
        self.ttl = ttl
        self._by_sender: dict[NodeId, deque[_PoolEntry]] = {}
        self._seen: dict[NodeId, list[int]] = {}

    def __len__(self) -> int:
        return sum(len(d) for d in self._by_sender.values())

    def add(self, msg: PayloadMessage, received_at: int) -> bool:
        """Insert unless (sender, seq) was pooled before; True if inserted."""
        sender = msg.sender
        seq = msg.seq
        runs = self._seen.get(sender)
        if runs is None:
            self._seen[sender] = [seq, seq]
            self._by_sender[sender] = deque()
        else:
            # i counts the bounds <= seq: seq is pooled already when i is odd
            # (lo <= seq < hi) or seq is the hi just below; otherwise it lies
            # in the gap between runs[i - 1] (a hi) and runs[i] (a lo)
            i = bisect_right(runs, seq)
            if i & 1 or (i and runs[i - 1] == seq):
                return False
            joins_below = i > 0 and runs[i - 1] == seq - 1
            joins_above = i < len(runs) and runs[i] == seq + 1
            if joins_below and joins_above:
                del runs[i - 1:i + 1]
            elif joins_below:
                runs[i - 1] = seq
            elif joins_above:
                runs[i] = seq
            else:
                runs[i:i] = (seq, seq)
        self._by_sender[sender].append(_PoolEntry(msg, received_at))
        return True

    def expire(self, now: int) -> list[_PoolEntry]:
        """Remove and return entries older than the TTL."""
        expired: list[_PoolEntry] = []
        for dq in self._by_sender.values():
            while dq and now - dq[0].received_at > self.ttl:
                expired.append(dq.popleft())
        return expired

    def senders(self) -> list[NodeId]:
        return sorted(s for s, dq in self._by_sender.items() if dq)

    def entries(self, sender: NodeId) -> list[_PoolEntry]:
        return list(self._by_sender.get(sender, ()))

    def newest_per_sender(self) -> list[tuple[NodeId, _PoolEntry]]:
        """(sender, newest entry) for every sender with pooled entries, by sender."""
        return sorted(((s, dq[-1]) for s, dq in self._by_sender.items() if dq), key=itemgetter(0))

    def clear_sender(self, sender: NodeId) -> list[_PoolEntry]:
        dq = self._by_sender.get(sender)
        if not dq:
            return []
        out = list(dq)
        dq.clear()
        return out


class NodeState:
    """Full protocol state of one sensor node."""

    def __init__(
        self,
        self_id: NodeId,
        self_location: Location,
        sensor_type: SensorType = SensorType.GENERIC,
        params: ProtocolParams = ProtocolParams(),
        filter_params: FilterParams = FilterParams(),
        model: PathLossModel = PathLossModel(),
        store: Optional[TopologyStore] = None,
    ):
        self.self_id = self_id
        self.self_location = self_location
        self.sensor_type = sensor_type
        self.params = params
        self.filter_params = filter_params
        self.model = model
        self.store = store if store is not None else TopologyStore(self_id)
        self.store.ensure_peer(self_id).location = self_location
        self.pool = MessagePool(params.pool_ttl)
        self.moved_until: Optional[int] = None
        self._pipelines: dict[NodeId, _LinkPipeline] = {}
        self._seq = 0
        self._last_heard: dict[NodeId, int] = {}
        self._alert_last: dict[tuple[AlertType, NodeId], int] = {}

    # -- link pipeline ----------------------------------------------------

    def _new_pipeline(self, link: LinkKey) -> _LinkPipeline:
        pipe = _LinkPipeline(link, *self.filter_params.link_state())
        self._pipelines[link.observed] = pipe
        return pipe

    def ingest_sample(self, peer: NodeId, rssi: Rssi, now: int) -> Optional[float]:
        """Record a measured RSSI sample and advance the link's smoothing.

        Returns the smoothed value, or None when the sample was a same-tick
        duplicate (only the first measurement per link and tick counts).
        """
        if peer == self.self_id:
            return None
        pipe = self._pipelines.get(peer)
        link = LinkKey(self.self_id, peer) if pipe is None else pipe.link
        store = self.store
        try:
            store.record_rssi(link, now, rssi, RssiSource.MEASURED)
        except ValueError:
            return self.smoothed_rssi(peer)
        if pipe is None:
            # peers are never removed, so one ensure_peer per link suffices
            store.ensure_peer(peer)
            pipe = self._new_pipeline(link)
        self._last_heard[peer] = now
        smoothed = pipe.smooth(rssi.value)
        store.update_smoothed(link, now, smoothed)
        if bft_trigger(pipe.trigger, smoothed, now):
            pipe.pending_since = now
        return smoothed

    def smoothed_rssi(self, peer: NodeId) -> Optional[float]:
        pipe = self._pipelines.get(peer)
        if pipe is None:
            return None
        own = self.store.latest_smoothed(pipe.link)
        return None if own is None else own[1]

    def on_moved(self, to: Location, now: int, announce: bool) -> None:
        """Relocate the node. An announced move (the node noticed, e.g. via an
        acceleration sensor) raises the movement flag and resets the link
        pipelines, since every baseline the node held just became stale."""
        self.self_location = to
        self.store.ensure_peer(self.self_id).location = to
        if announce:
            self.moved_until = now + self.params.moved_ttl
            self.store.clear_smoothed()
            for pipe in self._pipelines.values():
                pipe.smooth, pipe.trigger = self.filter_params.link_state()
                pipe.pending_since = None

    def moved_flag(self, now: int) -> bool:
        return self.moved_until is not None and now <= self.moved_until

    # -- distrust predicate -------------------------------------------------

    def in_range_peers(self, now: int) -> int:
        return sum(
            1
            for peer, t in self._last_heard.items()
            if peer != self.self_id and now - t <= self.params.bft_window
        )

    def tau(self, now: int) -> int:
        fixed = self.params.tau
        if fixed is None:
            return max(1, math.ceil(0.5 * self.in_range_peers(now)))
        if 0.0 < fixed < 1.0:  # fraction of the nodes currently in range
            return max(1, math.ceil(fixed * self.in_range_peers(now)))
        return int(fixed)

    def distrust(self, target: NodeId, now: int) -> bool:
        """Low trust in the target, or enough distinct peers questioned it."""
        rec = self.store.peer(target)
        trust = rec.trust.value if rec is not None else self.params.initial_trust
        if trust < self.params.epsilon:
            return True
        count = self.store.count_recent_bft(target, self.params.bft_window, now)
        return count > self.tau(now)

    # -- P1: payload emission ------------------------------------------------

    def emit_payload(self, sensor_value: bytes, now: int) -> list[Action]:
        self._seq += 1
        msg = PayloadMessage(
            sender=self.self_id,
            seq=self._seq,
            sensor_type=self.sensor_type,
            payload=sensor_value,
            signed_payload=location_key(self.self_location, sensor_value, self.params.location_grid),
            timestamp=now,
        )
        return [SendPayload(msg)]

    # -- P2: payload reception -------------------------------------------------

    def receive_payload(self, msg: PayloadMessage, rssi: Rssi, now: int) -> list[Action]:
        if msg.sender == self.self_id:
            # someone is transmitting under our identity; we cannot pool it
            return [Ignore("self-echo", context=f"seq={msg.seq}")]
        self.ingest_sample(msg.sender, rssi, now)
        if now - msg.timestamp > self.params.pool_ttl:
            return [Ignore("stale", context=f"{msg.sender}#{msg.seq}")]
        self.pool.add(msg, now)
        return []

    # -- P3: pool validation ----------------------------------------------------

    def validate_pool(self, now: int) -> list[Action]:
        """Validate pooled payloads against RSSI-derived sender positions.

        A verified sender's pooled payloads become StoreTrusted actions. A
        sender whose deviation trigger fired causes one BFT message; a
        confidently contradicted location key causes at most one more until
        the next trigger episode, so a standing disagreement is announced but
        never spammed.
        """
        actions: list[Action] = []
        pool = self.pool
        for entry in pool.expire(now):
            actions.append(
                Ignore("expired", context=f"{entry.message.sender}#{entry.message.seq}")
            )
        store = self.store
        model = self.model
        self_location = self.self_location
        pipelines = self._pipelines
        params = self.params
        grid = params.location_grid
        freshness = params.anchor_freshness
        min_anchors = params.min_anchors
        slack_cells = params.verify_slack_cells
        residual_cap = params.residual_cap
        max_gdop = params.max_gdop
        for sender, newest in pool.newest_per_sender():
            verdict = locate_and_verify(
                sender,
                store,
                newest.message,
                model,
                grid,
                self_location,
                now,
                freshness=freshness,
                min_anchors_3d=min_anchors,
                slack_cells=slack_cells,
                residual_cap=residual_cap,
                max_gdop=max_gdop,
            )
            if verdict is VerifyOutcome.VERIFIED:
                for entry in pool.clear_sender(sender):
                    actions.append(StoreTrusted(entry.message))
                continue
            pipe = pipelines.get(sender)
            if pipe is None:
                continue
            if pipe.pending_since is not None:
                self._expire_pending(pipe, now)
            # a trigger fires on a sample, so a pending link has a smoothed
            # value; a contradiction alone does not guarantee one
            if pipe.pending_since is not None:
                actions.append(self._emit_bft(sender, pipe, now, ref_seq=newest.message.seq))
                pipe.contradiction_budget = 1
            elif (
                verdict is VerifyOutcome.CONTRADICTED
                and pipe.contradiction_budget > 0
                and pipe.trigger.cooldown_over(now)
                and store.latest_smoothed(pipe.link) is not None
            ):
                actions.append(self._emit_bft(sender, pipe, now, ref_seq=newest.message.seq))
                pipe.contradiction_budget -= 1
        return actions

    def _expire_pending(self, pipe: _LinkPipeline, now: int) -> None:
        if (
            pipe.pending_since is not None
            and now - pipe.pending_since > self.filter_params.trigger_cooldown
        ):
            pipe.pending_since = None

    def _emit_bft(
        self, subject: NodeId, pipe: _LinkPipeline, now: int, ref_seq: Optional[int]
    ) -> SendBft:
        _, smoothed = self.store.latest_smoothed(pipe.link)
        msg = BftMessage(
            sender=self.self_id,
            sender_location=self.self_location,
            subject=subject,
            measured_rssi=Rssi(smoothed),
            ref_seq=ref_seq,
            timestamp=now,
        )
        pipe.trigger.note_report(smoothed, now)
        pipe.pending_since = None
        # own dissent counts toward the local picture as well
        self.store.register_bft(self.self_id, subject, now, now)
        return SendBft(msg)

    # -- P4: BFT reception ----------------------------------------------------

    def receive_bft(self, msg: BftMessage, rssi: Rssi, now: int) -> list[Action]:
        if msg.sender == msg.subject:
            return [Ignore("malformed-bft")]
        if msg.sender == self.self_id:
            return [Ignore("self-echo", context="bft")]
        self.ingest_sample(msg.sender, rssi, now)
        rec = self.store.ensure_peer(msg.sender)
        if rec.location is None:
            rec.location = msg.sender_location
        try:
            self.store.record_rssi(
                LinkKey(msg.sender, msg.subject),
                now,
                msg.measured_rssi,
                RssiSource.REPORTED,
                reporter_location=msg.sender_location,
            )
        except ValueError:
            pass  # second report from the same sender within one tick
        self.store.register_bft(msg.sender, msg.subject, msg.timestamp, now)
        if msg.subject == self.self_id:
            return self.self_defense(msg, now)
        return []

    # -- self defense (BFT about self) ------------------------------------------

    def self_defense_inputs(self, msg: BftMessage, now: int) -> Optional[tuple[bool, bool, bool, bool]]:
        """Evaluate the four decision predicates, or None if B was never measured."""
        origin = msg.sender
        own = self.smoothed_rssi(origin)
        if own is None:
            return None
        claimed_ok = abs(msg.measured_rssi.value - own) <= self.params.consistency_tol
        history_ok = self.store.history_consistent(
            LinkKey(self.self_id, origin),
            Rssi(own),
            self.params.history_window,
            self.params.consistency_tol,
        )
        distrust_b = self.distrust(origin, now)
        distrust_self = (
            self.store.count_recent_bft(self.self_id, self.params.bft_window, now) > self.tau(now)
            or self.moved_flag(now)
        )
        return claimed_ok, history_ok, distrust_b, distrust_self

    def self_defense(self, msg: BftMessage, now: int) -> list[Action]:
        """React to a BFT message naming this node as its object."""
        if msg.subject != self.self_id:
            raise ValueError("self_defense needs a BFT about this node")
        inputs = self.self_defense_inputs(msg, now)
        if inputs is None:
            return [Ignore("no-measurement-of-accuser", context=str(msg.sender))]
        outcome = SELF_DEFENSE_TABLE[inputs]
        origin = msg.sender
        if outcome == IGNORE:
            return [Ignore("self-defense", context=f"{inputs}")]
        if outcome == BFT_ABOUT_B:
            # self_defense_inputs found a smoothed value, so the pipeline exists
            pipe = self._pipelines[origin]
            if not pipe.trigger.cooldown_over(now):
                return [Ignore("bft-cooldown", context=str(origin))]
            return [self._emit_bft(origin, pipe, now, ref_seq=None)]
        ref = BftRef(msg.sender, msg.subject, msg.timestamp)
        if outcome == SELF_DISTRUST:
            if not self._alert_allowed(AlertType.SELF_DISTRUST, self.self_id, now):
                return [Ignore("alert-cooldown", context="self-distrust")]
            alert = AlertMessage(
                sender=self.self_id,
                alert_type=AlertType.SELF_DISTRUST,
                object=self.self_id,
                ref_bft=ref,
                timestamp=now,
            )
            return [SendAlert(alert)]
        # outcome == DISTRUST_B
        if not self._alert_allowed(AlertType.DISTRUST, origin, now):
            return [Ignore("alert-cooldown", context=f"distrust {origin}")]
        alert = AlertMessage(
            sender=self.self_id,
            alert_type=AlertType.DISTRUST,
            object=origin,
            ref_bft=ref,
            timestamp=now,
        )
        return [SendAlert(alert)]

    def _alert_allowed(self, alert_type: AlertType, obj: NodeId, now: int) -> bool:
        key = (alert_type, obj)
        last = self._alert_last.get(key)
        if last is not None and now - last < self.params.alert_cooldown:
            return False
        self._alert_last[key] = now
        return True

    # -- alert reception -----------------------------------------------------

    def receive_alert(self, alert: AlertMessage, now: int, rssi: Optional[Rssi] = None) -> list[Action]:
        """Process an alert into local trust bookkeeping.

        Distrust alerts are accepted, rejected, or ignored; acceptance lowers
        the accused node's trust, rejection lowers the alert sender's trust
        and raises every dissent participant's. Self-distrust lowers the
        sender's trust and voids its stored location. Measurement alerts are
        payload-level and only logged.
        """
        if alert.sender == self.self_id:
            return [Ignore("self-echo", context="alert")]
        if rssi is not None:
            self.ingest_sample(alert.sender, rssi, now)
        if alert.alert_type == AlertType.MEASUREMENT:
            return [Ignore("measurement-alert", context=str(alert.sender))]
        if alert.alert_type == AlertType.SELF_DISTRUST:
            rec = self.store.ensure_peer(alert.sender)
            self.store.adjust_trust(alert.sender, -self.params.trust_step)
            rec.location_verified = False
            return []
        # distrust alert from A accusing B of a lying BFT about A
        accuser = alert.sender
        accused = alert.object
        ref = alert.ref_bft
        if not isinstance(accused, NodeId) or ref is None:
            return [Ignore("malformed-alert")]
        if ref.sender != accused or ref.subject != accuser:
            return [Ignore("malformed-alert", context="ref mismatch")]
        if accused == self.self_id:
            return [Ignore("accused-is-self")]

        seen = self.store.has_seen_bft(ref.sender, ref.subject, ref.timestamp)
        a_smoothed = self.smoothed_rssi(accuser)
        a_consistent = a_smoothed is not None and self.store.history_consistent(
            LinkKey(self.self_id, accuser),
            Rssi(a_smoothed),
            self.params.history_window,
            self.params.consistency_tol,
        )
        a_distrusted = self.distrust(accuser, now)
        b_smoothed = self.smoothed_rssi(accused)
        b_inconsistent = b_smoothed is not None and not self.store.history_consistent(
            LinkKey(self.self_id, accused),
            Rssi(b_smoothed),
            self.params.history_window,
            self.params.consistency_tol,
        )
        b_doubt = b_inconsistent and self.distrust(accused, now)

        accept = seen and a_consistent and not a_distrusted and b_doubt
        reject = (not seen) or a_distrusted or (a_smoothed is not None and not a_consistent)
        if accept:
            self.store.ensure_peer(accused)
            self.store.adjust_trust(accused, -self.params.trust_step)
            return []
        if reject:
            self.store.ensure_peer(accuser)
            self.store.adjust_trust(accuser, -self.params.trust_step)
            for participant in sorted(
                self.store.recent_bft_senders(accuser, self.params.bft_window, now)
            ):
                if participant == self.self_id:
                    continue
                self.store.ensure_peer(participant)
                self.store.adjust_trust(participant, self.params.trust_step)
            return []
        return [Ignore("alert-undecidable", context=f"{accuser} vs {accused}")]

    # -- composition -----------------------------------------------------------

    def receive_wire(self, data: bytes, rssi: Rssi, now: int) -> list[Action]:
        try:
            msg = decode_message(data)
        except MessageDecodeError as exc:
            return [Ignore("decode-error", context=str(exc))]
        return self.receive_message(msg, rssi, now)

    def receive_message(self, msg: Message, rssi: Rssi, now: int) -> list[Action]:
        if isinstance(msg, PayloadMessage):
            return self.receive_payload(msg, rssi, now)
        if isinstance(msg, BftMessage):
            return self.receive_bft(msg, rssi, now)
        if isinstance(msg, AlertMessage):
            return self.receive_alert(msg, now, rssi=rssi)
        return [Ignore("unknown-message-type")]

    # `now` is keyword-only: perfbench/tracer.py reads it from the call's kwargs
    def tick(self, inbox: list[tuple[Message, Rssi]], *, now: int) -> list[Action]:
        """One protocol round: ingest the inbox, then validate the pool.
        Deterministic in (state, inbox order, now)."""
        actions: list[Action] = []
        for msg, rssi in inbox:
            actions.extend(self.receive_message(msg, rssi, now))
        actions.extend(self.validate_pool(now))
        return actions
