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
from .topology import TopologyStore


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable protocol constants (see README for the rationale behind defaults)."""

    epsilon: float = 0.3            # trust threshold of the distrust predicate
    tau: Optional[float] = None     # dissent threshold: a whole count, a fraction of
                                    # in-range peers, or None for half of them
    trust_step: float = 0.1
    consistency_tol: float = 5.0    # dB, claimed-vs-measured and history checks
    pool_ttl: int = 120             # ticks a payload may wait for validation
    bft_window: int = 120           # ticks of dissent counted (count_recent_bft,
                                    # recent_bft_senders) and of in-range peers for tau
    history_window: int = 64        # samples kept per link, all read by history checks
    location_grid: float = 0.5      # metres, location-key quantization
    verify_slack_cells: int = 1     # grid-cell tolerance of location verification
    min_anchors: int = 4            # observers needed for a 3-D position solve
    anchor_freshness: int = 45      # ticks an anchor observation stays usable
    residual_cap: float = 0.5       # metres RMS; worse solves count as no data
    max_gdop: float = 4.0           # geometry confidence bound for verification
    alert_cooldown: int = 30        # ticks between alerts per (type, object)
    moved_ttl: int = 120            # ticks the own-movement flag stays raised

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must be in (0, 1)")
        if self.tau is not None and not self.tau > 0:
            raise ValueError("tau must be positive when fixed")
        if self.tau is not None and self.tau >= 1 and not float(self.tau).is_integer():
            raise ValueError(f"tau must be a whole number when 1 or more, not {self.tau!r}")
        for name in ("trust_step", "consistency_tol", "pool_ttl", "bft_window",
                     "history_window", "location_grid", "anchor_freshness",
                     "residual_cap", "max_gdop"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("verify_slack_cells", "alert_cooldown", "moved_ttl"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not self.min_anchors >= 4:
            raise ValueError("min_anchors must be >= 4 (a 3-D solve needs four)")


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
        self.link_state()

    def link_state(self) -> tuple[Callable[[float], float], TriggerState]:
        """A fresh smoother and trigger for one link."""
        return make_filter(self.smoother, self.smoother_params), TriggerState(
            threshold=self.trigger_threshold, cooldown=self.trigger_cooldown, warmup=self.warmup
        )


# -- actions -----------------------------------------------------------------
# A message in a round's output is broadcast next tick; StoreTrusted,
# Ignore and Expired are local outcomes.


@dataclass(frozen=True)
class StoreTrusted:
    message: PayloadMessage


@dataclass(frozen=True)
class Ignore:
    reason: str
    context: str = ""


@dataclass(frozen=True)
class Expired:
    """The pooled payloads a round dropped unvalidated, in expiry order."""

    messages: tuple[PayloadMessage, ...]


Action = Union[BftMessage, AlertMessage, StoreTrusted, Ignore, Expired]


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


@dataclass(slots=True)
class _LinkPipeline:
    """Smoothing and trigger state for one outgoing observation link."""

    smooth: Callable[[float], float]
    trigger: TriggerState
    # one contradiction-driven BFT allowed per deviation episode; replenished
    # by the next trigger fire so a standing disagreement is announced once
    contradiction_budget: int = 1


class MessagePool:
    """Received-but-unvalidated payload messages with TTL and seq dedup.

    A (sender, seq) pair is pooled at most once for the life of the pool.
    The seqs pooled so far are kept per sender as sorted disjoint runs,
    flattened to ``[lo0, hi0, lo1, hi1, ...]`` with ``hi < next lo - 1``: an
    honest sender's monotone seqs stay one run however long the run is,
    and a spoofer's seqs in another range add a second run instead of
    shutting out the victim's later seqs, as a per-sender high watermark
    would.

    Each sender's pooled payloads are two parallel deques in reception
    order, the messages and the ticks they were received at, so pooling a
    payload builds no object of its own.
    """

    def __init__(self, ttl: int):
        self.ttl = ttl
        # sender -> (messages, reception ticks), equally long
        self._by_sender: dict[NodeId, tuple[deque[PayloadMessage], deque[int]]] = {}
        self._seen: dict[NodeId, list[int]] = {}

    def __len__(self) -> int:
        return sum(len(messages) for messages, _ in self._by_sender.values())

    def add(self, msg: PayloadMessage, received_at: int) -> bool:
        """Insert unless (sender, seq) was pooled before; True if inserted."""
        sender = msg.sender
        seq = msg.seq
        runs = self._seen.get(sender)
        if runs is None:
            self._seen[sender] = [seq, seq]
            self._by_sender[sender] = (deque(), deque())
        elif runs[-1] == seq - 1:
            # the next seq after the newest run, as an honest sender sends:
            # the bisect below would extend that run the same way
            runs[-1] = seq
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
        messages, ticks = self._by_sender[sender]
        messages.append(msg)
        ticks.append(received_at)
        return True

    def expire(self, now: int) -> list[PayloadMessage]:
        """Remove the payloads older than the TTL and return them, per
        sender in pooling order."""
        expired: list[PayloadMessage] = []
        ttl = self.ttl
        for messages, ticks in self._by_sender.values():
            while ticks and now - ticks[0] > ttl:
                ticks.popleft()
                expired.append(messages.popleft())
        return expired

    def entries(self, sender: NodeId) -> list[tuple[PayloadMessage, int]]:
        """The sender's pooled (message, reception tick) pairs, oldest first."""
        pooled = self._by_sender.get(sender)
        return list(zip(*pooled)) if pooled else []

    def newest(self, sender: NodeId) -> Optional[PayloadMessage]:
        """The sender's newest pooled payload, or None when it has none."""
        pooled = self._by_sender.get(sender)
        return pooled[0][-1] if pooled and pooled[0] else None

    def clear_sender(self, sender: NodeId) -> list[PayloadMessage]:
        """Remove the sender's pooled payloads and return them, oldest first."""
        pooled = self._by_sender.get(sender)
        if not pooled:
            return []
        messages, ticks = pooled
        out = list(messages)
        messages.clear()
        ticks.clear()
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
    ):
        self.self_id = self_id
        self.self_location = self_location
        self.sensor_type = sensor_type
        self.params = params
        self.filter_params = filter_params
        self.model = model
        self.store = TopologyStore(self_id, capacity=params.history_window)
        self.pool = MessagePool(params.pool_ttl)
        self.moved_until: Optional[int] = None
        self._pipelines: dict[NodeId, _LinkPipeline] = {}
        # links whose trigger fired at trigger.last_fire, BFT not yet sent
        self._pending: set[NodeId] = set()
        self._seq = 0
        self._alert_last: dict[tuple[AlertType, NodeId], int] = {}

    # -- link pipeline ----------------------------------------------------

    def ingest_sample(self, peer: NodeId, rssi: float, now: int) -> Optional[float]:
        """Record a measured RSSI sample (dB) and advance the link's smoothing.

        Returns the smoothed value, or None when the sample was a same-tick
        duplicate (only the first measurement per link and tick counts).
        """
        try:
            self.store.record_rssi(peer, now, rssi)
        except ValueError:
            return self.smoothed_rssi(peer)
        pipe = self._pipelines.get(peer)
        if pipe is None:
            # peers are never removed, so one ensure_peer per link suffices
            self.store.ensure_peer(peer)
            pipe = _LinkPipeline(*self.filter_params.link_state())
            self._pipelines[peer] = pipe
        smoothed = pipe.smooth(rssi)
        self.store.update_smoothed(peer, now, smoothed)
        if bft_trigger(pipe.trigger, smoothed, now):
            self._pending.add(peer)
        return smoothed

    def smoothed_rssi(self, peer: NodeId) -> Optional[float]:
        if peer not in self._pipelines:
            return None
        own = self.store.latest_smoothed(peer)
        return None if own is None else own[1]

    def on_moved(self, to: Location, now: int, announce: bool) -> None:
        """Relocate the node. An announced move (the node noticed, e.g. via an
        acceleration sensor) raises the movement flag and resets the link
        pipelines, since every baseline the node held just became stale."""
        self.self_location = to
        if announce:
            self.moved_until = now + self.params.moved_ttl
            self.store.clear_smoothed()
            for pipe in self._pipelines.values():
                pipe.smooth, pipe.trigger = self.filter_params.link_state()
            self._pending.clear()

    def moved_flag(self, now: int) -> bool:
        return self.moved_until is not None and now <= self.moved_until

    # -- distrust predicate -------------------------------------------------

    def in_range_peers(self, now: int) -> int:
        return self.store.links_heard_within(self.params.bft_window, now)

    def tau(self, now: int) -> int:
        fixed = self.params.tau
        if fixed is None:
            return max(1, math.ceil(0.5 * self.in_range_peers(now)))
        if 0.0 < fixed < 1.0:  # fraction of the nodes currently in range
            return max(1, math.ceil(fixed * self.in_range_peers(now)))
        return int(fixed)

    def distrust(self, target: NodeId, now: int) -> bool:
        """Low trust in the target (one with no peer record is trusted), or
        enough distinct peers questioned it."""
        rec = self.store.peer(target)
        if rec is not None and rec.trust.value < self.params.epsilon:
            return True
        count = self.store.count_recent_bft(target, self.params.bft_window, now)
        return count > self.tau(now)

    # -- P1: payload emission ------------------------------------------------

    def emit_payload(self, sensor_value: bytes, now: int) -> PayloadMessage:
        self._seq += 1
        return PayloadMessage(
            sender=self.self_id,
            seq=self._seq,
            sensor_type=self.sensor_type,
            payload=sensor_value,
            signed_payload=location_key(self.self_location, sensor_value, self.params.location_grid),
            timestamp=now,
        )

    # -- P2: payload reception -------------------------------------------------

    def receive_payload(self, msg: PayloadMessage, rssi: float, now: int) -> list[Action]:
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

        Payloads that waited past the TTL leave the pool first, as one
        Expired action. A verified sender's pooled payloads become
        StoreTrusted actions. A sender whose deviation trigger fired causes
        one BFT message; a confidently contradicted location key causes at
        most one more until the next trigger episode, so a standing
        disagreement is announced but never spammed.
        """
        pool = self.pool
        expired = pool.expire(now)
        actions: list[Action] = [Expired(tuple(expired))] if expired else []
        store = self.store
        params = self.params
        # with fewer reporters the own anchor plus one per reporter cannot
        # reach the min_anchors - 1 of even the planar fallback: the verdict
        # is INSUFFICIENT_DATA, and without a pending trigger that is no action
        reported = store.subjects_reported_by(params.min_anchors - 2)
        pending = self._pending
        if not reported and not pending:
            return actions
        pipelines = self._pipelines
        for sender in sorted(reported | pending):
            newest = pool.newest(sender)
            if newest is None:
                continue
            if sender in reported:
                verdict = locate_and_verify(
                    sender, store, newest, self.model, self.self_location, now, params
                )
            else:
                verdict = VerifyOutcome.INSUFFICIENT_DATA
            if verdict is VerifyOutcome.VERIFIED:
                for msg in pool.clear_sender(sender):
                    actions.append(StoreTrusted(msg))
                continue
            pipe = pipelines.get(sender)
            if pipe is None:
                continue
            if sender in pending and now - pipe.trigger.last_fire > pipe.trigger.cooldown:
                pending.discard(sender)
            # a trigger fires on a sample, so a pending link has a smoothed
            # value; a contradiction alone does not guarantee one
            if sender in pending:
                actions.append(self._emit_bft(sender, pipe, now, ref_seq=newest.seq))
                pipe.contradiction_budget = 1
            elif (
                verdict is VerifyOutcome.CONTRADICTED
                and pipe.contradiction_budget > 0
                and pipe.trigger.cooldown_over(now)
                and store.latest_smoothed(sender) is not None
            ):
                actions.append(self._emit_bft(sender, pipe, now, ref_seq=newest.seq))
                pipe.contradiction_budget -= 1
        return actions

    def _emit_bft(
        self, subject: NodeId, pipe: _LinkPipeline, now: int, ref_seq: Optional[int]
    ) -> BftMessage:
        _, smoothed = self.store.latest_smoothed(subject)
        msg = BftMessage(
            sender=self.self_id,
            sender_location=self.self_location,
            subject=subject,
            measured_rssi=Rssi(smoothed),
            ref_seq=ref_seq,
            timestamp=now,
        )
        pipe.trigger.note_report(smoothed, now)
        self._pending.discard(subject)
        # own dissent counts toward the local picture as well
        self.store.register_bft(self.self_id, subject, now, now)
        return msg

    # -- P4: BFT reception ----------------------------------------------------

    def receive_bft(self, msg: BftMessage, rssi: float, now: int) -> list[Action]:
        if msg.sender == msg.subject:
            return [Ignore("malformed-bft")]
        if msg.sender == self.self_id:
            return [Ignore("self-echo", context="bft")]
        self.ingest_sample(msg.sender, rssi, now)
        self.store.register_bft(msg.sender, msg.subject, msg.timestamp, now)
        if msg.subject == self.self_id:
            return self.self_defense(msg, now)
        self.store.record_report(
            msg.sender, msg.subject, now, msg.measured_rssi.value, msg.sender_location
        )
        return []

    # -- self defense (BFT about self) ------------------------------------------

    def self_defense_inputs(self, msg: BftMessage, now: int) -> Optional[tuple[bool, bool, bool, bool]]:
        """Evaluate the four decision predicates, or None if B was never measured."""
        origin = msg.sender
        own = self.smoothed_rssi(origin)
        if own is None:
            return None
        claimed_ok = abs(msg.measured_rssi.value - own) <= self.params.consistency_tol
        history_ok = self.store.history_consistent(origin, own, self.params.consistency_tol)
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
            return [alert]
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
        return [alert]

    def _alert_allowed(self, alert_type: AlertType, obj: NodeId, now: int) -> bool:
        key = (alert_type, obj)
        last = self._alert_last.get(key)
        if last is not None and now - last < self.params.alert_cooldown:
            return False
        self._alert_last[key] = now
        return True

    # -- alert reception -----------------------------------------------------

    def receive_alert(self, alert: AlertMessage, rssi: Optional[float], now: int) -> list[Action]:
        """Process an alert into local trust bookkeeping. A reception first
        measures `rssi` on the sender's link; None measures nothing.

        Distrust alerts are accepted, rejected, or ignored; acceptance lowers
        the accused node's trust, rejection lowers the alert sender's trust
        and raises every dissent participant's. Self-distrust lowers the
        sender's trust. Measurement alerts are payload-level and only logged.
        """
        if alert.sender == self.self_id:
            return [Ignore("self-echo", context="alert")]
        if rssi is not None:
            self.ingest_sample(alert.sender, rssi, now)
        if alert.alert_type == AlertType.MEASUREMENT:
            return [Ignore("measurement-alert", context=str(alert.sender))]
        if alert.alert_type == AlertType.SELF_DISTRUST:
            self.store.adjust_trust(alert.sender, -self.params.trust_step)
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
            accuser, a_smoothed, self.params.consistency_tol
        )
        a_distrusted = self.distrust(accuser, now)
        b_smoothed = self.smoothed_rssi(accused)
        b_inconsistent = b_smoothed is not None and not self.store.history_consistent(
            accused, b_smoothed, self.params.consistency_tol
        )
        b_doubt = b_inconsistent and self.distrust(accused, now)

        accept = seen and a_consistent and not a_distrusted and b_doubt
        reject = (not seen) or a_distrusted or (a_smoothed is not None and not a_consistent)
        if accept:
            self.store.adjust_trust(accused, -self.params.trust_step)
            return []
        if reject:
            self.store.adjust_trust(accuser, -self.params.trust_step)
            for participant in sorted(
                self.store.recent_bft_senders(accuser, self.params.bft_window, now)
            ):
                if participant == self.self_id:
                    continue
                self.store.adjust_trust(participant, self.params.trust_step)
            return []
        return [Ignore("alert-undecidable", context=f"{accuser} vs {accused}")]

    # -- composition -----------------------------------------------------------

    def receive_wire(self, data: bytes, rssi: float, now: int) -> list[Action]:
        try:
            msg = decode_message(data)
        except MessageDecodeError as exc:
            return [Ignore("decode-error", context=str(exc))]
        return self.receive_message(msg, rssi, now)

    def receive_message(self, msg: Message, rssi: float, now: int) -> list[Action]:
        return _RECEIVE.get(type(msg), _receive_unknown)(self, msg, rssi, now)

    # `now` is keyword-only: perfbench/tracer.py reads it from the call's kwargs
    def tick(self, inbox: list[tuple[Message, float]], *, now: int) -> list[Action]:
        """One protocol round: ingest the inbox, then validate the pool.
        Deterministic in (state, inbox order, now)."""
        actions: list[Action] = []
        receive_step = _RECEIVE.get
        for msg, rssi in inbox:
            actions.extend(receive_step(type(msg), _receive_unknown)(self, msg, rssi, now))
        actions.extend(self.validate_pool(now))
        return actions


def _receive_unknown(node: NodeState, msg: object, rssi: float, now: int) -> list[Action]:
    return [Ignore("unknown-message-type")]


# The receive step of each message type, the one dispatch of a reception:
# `receive_message` and `tick` look the step up here and call it directly.
_RECEIVE: dict[type, Callable[[NodeState, Message, float, int], list[Action]]] = {
    PayloadMessage: NodeState.receive_payload,
    BftMessage: NodeState.receive_bft,
    AlertMessage: NodeState.receive_alert,
}
