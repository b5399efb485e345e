"""Node protocol: payload handling, pool validation, self defense, alerts."""

import copy
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from polsim import protocol
from polsim.checks import _craft_state
from polsim.localization import (
    PathLossModel,
    VerifyOutcome,
    gather_anchors,
    locate_and_verify,
    rssi_value_from_distance,
)
from polsim.messages import (
    AlertMessage,
    AlertType,
    BftMessage,
    BftRef,
    Location,
    NodeId,
    PayloadMessage,
    Rssi,
    SensorType,
    TrustScore,
    location_key,
)
from polsim.protocol import (
    BFT_ABOUT_B,
    DISTRUST_B,
    IGNORE,
    SELF_DEFENSE_TABLE,
    SELF_DISTRUST,
    Expired,
    FilterParams,
    Ignore,
    MessagePool,
    NodeState,
    ProtocolParams,
    StoreTrusted,
)
from polsim.filters import bft_trigger
from polsim.topology import PeerRecord, Report, TopologyStore

MODEL = PathLossModel()
ME = NodeId.from_str("02:00:00:00:00:01")
PEER = NodeId.from_str("02:00:00:00:00:02")
OTHER = NodeId.from_str("02:00:00:00:00:03")
EXTRAS = [NodeId.from_str(f"02:00:00:00:00:0{i}") for i in (4, 5, 6)]


def link(store, peer):
    """(heard, sample values) of the store's link to `peer`; (None, []) without a row."""
    rec = store.peer(peer)
    return (None, []) if rec is None else (rec.heard, rec.samples.tolist())


def make_node(node_class=NodeState, **kwargs) -> NodeState:
    params = kwargs.pop("params", ProtocolParams(tau=2))
    node = node_class(
        self_id=ME,
        self_location=Location(0.0, 0.0, 0.0),
        sensor_type=SensorType.TEMPERATURE,
        params=params,
        filter_params=kwargs.pop("filter_params", FilterParams(warmup=2)),
        model=MODEL,
    )
    for peer, loc in [
        (PEER, Location(4.0, 0.0, 0.0)),
        (OTHER, Location(0.0, 4.0, 0.0)),
        (EXTRAS[0], Location(0.0, 0.0, 4.0)),
        (EXTRAS[1], Location(2.0, 2.0, 0.0)),
    ]:
        node.store.add_peer(PeerRecord(id=peer, location=loc))
    return node


def payload_from(sender: NodeId, seq: int, loc: Location, t: int, grid=0.5) -> PayloadMessage:
    body = struct.pack("<d", 21.5)
    return PayloadMessage(
        sender=sender,
        seq=seq,
        sensor_type=SensorType.TEMPERATURE,
        payload=body,
        signed_payload=location_key(loc, body, grid),
        timestamp=t,
    )


class TestEmitPayload:
    def test_signed_with_current_location(self):
        node = make_node()
        msg = node.emit_payload(b"\x05", 10)
        assert isinstance(msg, PayloadMessage)
        assert location_key(node.self_location, b"\x05", 0.5) == msg.signed_payload
        assert msg.timestamp == 10

    def test_seq_strictly_increases(self):
        node = make_node()
        seqs = [node.emit_payload(b"x", t).seq for t in range(3)]
        assert seqs == sorted(set(seqs))

    def test_uses_location_after_move(self):
        node = make_node()
        node.on_moved(Location(5.0, 5.0, 0.0), 3, announce=True)
        msg = node.emit_payload(b"\x05", 4)
        assert location_key(Location(5.0, 5.0, 0.0), b"\x05", 0.5) == msg.signed_payload


grids = st.sampled_from([0.5, 0.3, 1.0])


@st.composite
def near_half_cells(draw, grid):
    """A coordinate on a half-cell boundary of `grid`, one ulp either side
    of one, -0.0, or anywhere."""
    edge = draw(st.integers(-41, 41)) * grid / 2
    return draw(st.one_of(
        st.sampled_from([edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf), -0.0]),
        st.floats(-50.0, 50.0),
    ))


@st.composite
def positions(draw, grid):
    return Location(*(draw(near_half_cells(grid)) for _ in range(3)))


class TestSigningCell:
    """The node signs from the cell it computes when its location is set,
    and that key is the one `location_key` makes from the location."""

    @settings(max_examples=200)
    @given(st.data(), grids, st.binary(max_size=8))
    def test_key_is_location_key_of_the_current_location(self, data, grid, body):
        start, announced, silent = (data.draw(positions(grid)) for _ in range(3))
        node = NodeState(ME, start, params=ProtocolParams(location_grid=grid))

        def signed(now):
            msg = node.emit_payload(body, now)
            want = location_key(node.self_location, body, grid)
            assert msg.signed_payload == want
            assert msg.signed_payload.digest == want.digest

        signed(0)
        node.on_moved(announced, 1, announce=True)
        assert node.self_location == announced
        signed(2)
        node.on_moved(silent, 3, announce=False)
        assert node.self_location == silent
        signed(4)


class TestReceivePayload:
    def test_fresh_message_pooled_and_measured(self):
        node = make_node()
        msg = payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 9)
        actions = node.receive_payload(msg, -52.0, 10)
        assert actions == []
        assert len(node.pool) == 1
        assert link(node.store, PEER) == (10, [-52.0])

    def test_duplicate_seq_single_pool_entry(self):
        node = make_node()
        msg = payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 9)
        node.receive_payload(msg, -52.0, 10)
        node.receive_payload(msg, -53.0, 11)
        assert len(node.pool) == 1
        # the second reception's RSSI is still recorded
        heard, values = link(node.store, PEER)
        assert (heard, values[-1]) == (11, -53.0)

    def test_stale_message_ignored(self):
        node = make_node()
        msg = payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 0)
        (action,) = node.receive_payload(msg, -52.0, 500)
        assert isinstance(action, Ignore) and action.reason == "stale"
        assert len(node.pool) == 0

    def test_own_identity_echo_ignored(self):
        node = make_node()
        msg = payload_from(ME, 1, Location(0.0, 0.0, 0.0), 9)
        (action,) = node.receive_payload(msg, -50.0, 10)
        assert isinstance(action, Ignore) and action.reason == "self-echo"


def canonical_runs(seqs: set[int]) -> list[int]:
    """Sorted disjoint non-adjacent runs of a seq set, flattened [lo, hi, ...]."""
    runs: list[int] = []
    for seq in sorted(seqs):
        if runs and runs[-1] == seq - 1:
            runs[-1] = seq
        else:
            runs += [seq, seq]
    return runs


class TestMessagePoolDedup:
    SENDERS = [PEER, OTHER, EXTRAS[0]]
    # an honest range and a spoofer-style range far above it, narrow enough
    # that gaps get filled and runs merge
    seqs = st.one_of(st.integers(0, 12), st.integers(1_000_000, 1_000_006))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), seqs), max_size=80))
    def test_add_matches_set_model(self, ops):
        body = struct.pack("<d", 21.5)
        key = location_key(Location(1.0, 2.0, 3.0), body, 0.5)
        pool = MessagePool(ttl=10)
        model: dict[NodeId, set[int]] = {}
        for index, seq in ops:
            sender = self.SENDERS[index]
            msg = PayloadMessage(sender, seq, SensorType.TEMPERATURE, body, key, 0)
            seen = model.setdefault(sender, set())
            assert pool.add(msg, 0) is (seq not in seen)
            seen.add(seq)
        assert len(pool) == sum(len(seen) for seen in model.values())
        for sender, seen in model.items():
            assert [m.seq for m, _ in pool.entries(sender)] == [
                seq for index, seq in dict.fromkeys(ops) if self.SENDERS[index] == sender
            ]
            assert pool._seen[sender] == canonical_runs(seen)

    def test_monotone_seqs_keep_one_run_per_sender(self):
        pool = MessagePool(ttl=10)
        for seq in range(1, 10_001):
            for sender in (PEER, OTHER):
                msg = payload_from(sender, seq, Location(1.0, 0.0, 0.0), seq)
                assert pool.add(msg, seq)
            pool.expire(seq)
        assert pool._seen == {PEER: [1, 10_000], OTHER: [1, 10_000]}
        assert not pool.add(payload_from(PEER, 5_000, Location(1.0, 0.0, 0.0), 10_000), 10_000)

    def test_spoofed_high_seqs_do_not_shut_out_lower_ones(self):
        pool = MessagePool(ttl=10)
        loc = Location(1.0, 0.0, 0.0)
        assert pool.add(payload_from(PEER, 1_000_001, loc, 0), 0)
        assert pool.add(payload_from(PEER, 7, loc, 1), 1)
        assert pool.add(payload_from(PEER, 8, loc, 2), 2)
        assert pool._seen[PEER] == [7, 8, 1_000_001, 1_000_001]


class TestMessagePoolLayout:
    """The pool's per-sender deques of messages and reception ticks give
    what one list of (message, tick) pairs in pooling order gives."""

    SENDERS = [PEER, OTHER, EXTRAS[0]]
    ops = st.one_of(
        st.tuples(st.just("add"), st.integers(0, 2), st.integers(0, 8), st.integers(0, 3)),
        st.tuples(st.just("expire"), st.integers(0, 6)),
        st.tuples(st.just("clear"), st.integers(0, 2)),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ops, max_size=60), st.integers(1, 5))
    def test_matches_pair_list(self, ops, ttl):
        pool = MessagePool(ttl=ttl)
        pairs: list[tuple[PayloadMessage, int]] = []
        pooled: set[tuple[NodeId, int]] = set()
        first_pooled: list[NodeId] = []  # the pool keeps its senders, and expiry visits them, in this order
        now = 0
        for kind, *args in ops:
            if kind == "add":
                who, seq, dt = args
                now += dt
                sender = self.SENDERS[who]
                msg = payload_from(sender, seq, Location(1.0, 0.0, 0.0), now)
                fresh = (sender, seq) not in pooled
                assert pool.add(msg, now) is fresh
                if fresh:
                    pooled.add((sender, seq))
                    pairs.append((msg, now))
                    if sender not in first_pooled:
                        first_pooled.append(sender)
            elif kind == "expire":
                now += args[0]
                due = [(m, t) for m, t in pairs if now - t > ttl]
                assert pool.expire(now) == [m for s in first_pooled for m, _ in due if m.sender == s]
                pairs = [pair for pair in pairs if pair not in due]
            else:
                sender = self.SENDERS[args[0]]
                assert pool.clear_sender(sender) == [m for m, _ in pairs if m.sender == sender]
                pairs = [(m, t) for m, t in pairs if m.sender != sender]
            assert len(pool) == len(pairs)
            assert list(pool._by_sender) == first_pooled
            for sender in self.SENDERS:
                mine = [(m, t) for m, t in pairs if m.sender == sender]
                assert pool.entries(sender) == mine
                assert pool.newest(sender) == (mine[-1][0] if mine else None)


def seed_full_anchors(node: NodeState, subject_loc: Location, now: int) -> None:
    """Give the node a fresh, exact anchor set for PEER."""
    node.store.update_smoothed(
        PEER, now, rssi_value_from_distance(MODEL, subject_loc.distance_to(node.self_location))
    )
    for reporter in (OTHER, EXTRAS[0], EXTRAS[1]):
        loc = node.store.peer(reporter).location
        node.store.record_report(
            reporter, PEER, now, rssi_value_from_distance(MODEL, subject_loc.distance_to(loc)), loc
        )


class TestValidatePool:
    def test_empty_pool_no_actions(self):
        assert make_node().validate_pool(50) == []

    def test_full_anchor_knowledge_verifies_honest_sender(self):
        node = make_node()
        true_loc = Location(4.0, 0.0, 0.0)
        for seq, t in ((1, 10), (2, 11)):
            node.receive_payload(payload_from(PEER, seq, true_loc, t - 1), -52.0, t)
        seed_full_anchors(node, true_loc, 11)
        actions = node.validate_pool(11)
        stored = [a for a in actions if isinstance(a, StoreTrusted)]
        assert len(stored) == 2
        assert len(node.pool) == 0
        assert [a.message.seq for a in stored] == [1, 2]

    def test_displaced_sender_draws_bft(self):
        node = make_node()
        claimed = Location(4.0, 0.0, 0.0)
        actual = Location(4.0, 2.0, 0.0)  # transmitting from 4 cells away
        node.receive_payload(payload_from(PEER, 1, claimed, 10), -52.0, 11)
        seed_full_anchors(node, actual, 11)
        actions = node.validate_pool(11)
        bfts = [a for a in actions if isinstance(a, BftMessage)]
        assert len(bfts) == 1
        assert bfts[0].subject == PEER
        assert len(node.pool) == 1  # entry remains until ttl

    def test_contradiction_not_repeated_without_new_trigger(self):
        node = make_node()
        claimed = Location(4.0, 0.0, 0.0)
        actual = Location(4.0, 2.0, 0.0)
        node.receive_payload(payload_from(PEER, 1, claimed, 10), -52.0, 11)
        seed_full_anchors(node, actual, 11)
        first = [a for a in node.validate_pool(11) if isinstance(a, BftMessage)]
        assert len(first) == 1
        for now in range(12, 90):
            again = [a for a in node.validate_pool(now) if isinstance(a, BftMessage)]
            assert again == []

    def test_expiry_produces_ignores(self):
        node = make_node(params=ProtocolParams(tau=2, pool_ttl=5))
        msg = payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 9)
        node.receive_payload(msg, -52.0, 10)
        actions = node.validate_pool(16)
        assert actions == [Expired((msg,))]
        assert [f"{m.sender}#{m.seq}" for m in actions[0].messages] == [f"{PEER}#1"]
        assert len(node.pool) == 0

    def test_insufficient_data_plus_trigger_sends_bft(self):
        node = make_node(filter_params=FilterParams(warmup=2, trigger_threshold=6.0))
        steady = Location(4.0, 0.0, 0.0)
        for t in range(12):
            node.receive_payload(payload_from(PEER, t + 1, steady, t), -52.0, t)
            node.validate_pool(t)
        # link level jumps by 15 dB: trigger fires, no anchors exist
        actions = []
        for t in range(12, 30):
            node.receive_payload(payload_from(PEER, t + 1, steady, t), -67.0, t)
            actions.extend(node.validate_pool(t))
        bfts = [a for a in actions if isinstance(a, BftMessage)]
        assert len(bfts) >= 1
        assert bfts[0].subject == PEER
        assert bfts[0].measured_rssi.value <= -52.0

    def test_hopeless_sender_decided_without_verification(self, monkeypatch):
        # one reporter of PEER: own anchor + 1 < min_anchors - 1, so no solve
        # can run; validate_pool decides without calling locate_and_verify
        node = make_node(params=ProtocolParams(tau=2, pool_ttl=5))

        def refuse(*args, **kwargs):
            raise AssertionError("locate_and_verify called for a hopeless sender")

        monkeypatch.setattr(protocol, "locate_and_verify", refuse)
        steady = Location(4.0, 0.0, 0.0)
        actions = []
        for t in range(30):
            node.receive_payload(payload_from(PEER, t + 1, steady, t - 1), -52.0 if t < 12 else -67.0, t)
            if t % 3 == 0:
                bft = BftMessage(OTHER, Location(0.0, 4.0, 0.0), PEER, Rssi(-55.0), None, t)
                node.receive_bft(bft, -50.0, t)
            assert len(node.store.latest_reports_of(PEER)) < node.params.min_anchors - 2
            # called alone, the verifier reaches the same verdict
            newest = node.pool.newest(PEER)
            verdict = locate_and_verify(PEER, node.store, newest, MODEL, node.self_location, t, node.params)
            assert verdict is VerifyOutcome.INSUFFICIENT_DATA
            actions += [(t, action) for action in node.validate_pool(t)]
        # the actions the node took before validate_pool skipped the call,
        # each expired payload as its `sender#seq`
        got = [
            (t, [f"{m.sender}#{m.seq}" for m in a.messages] if isinstance(a, Expired) else a)
            for t, a in actions
        ]
        expected = [(t, [f"{PEER}#{t - 5}"]) for t in range(6, 30)]
        bft = BftMessage(ME, node.self_location, PEER, Rssi(-58.480527897555184), 22, 21)
        expected.insert(expected.index((21, [f"{PEER}#16"])) + 1, (21, bft))
        assert got == expected

    def test_sender_at_the_reporter_bound_is_verified(self, monkeypatch):
        # min_anchors - 2 reporters plus the own anchor reach the planar
        # fallback's min_anchors - 1, so the verifier runs
        node = make_node()
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return locate_and_verify(*args, **kwargs)

        monkeypatch.setattr(protocol, "locate_and_verify", spy)
        node.receive_payload(payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 10), -52.0, 11)
        for reporter in (OTHER, EXTRAS[0]):
            bft = BftMessage(reporter, node.store.peer(reporter).location, PEER, Rssi(-55.0), None, 11)
            node.receive_bft(bft, -50.0, 11)
        assert len(node.store.latest_reports_of(PEER)) == node.params.min_anchors - 2
        node.validate_pool(11)
        assert calls == [PEER]

    def test_sender_reaching_the_reporter_bound_is_verified_that_tick(self):
        node = make_node()
        true_loc = Location(4.0, 0.0, 0.0)
        node.receive_payload(payload_from(PEER, 1, true_loc, 10), -52.0, 10)
        assert node.validate_pool(10) == []
        # the own anchor and min_anchors - 2 reporters, all exact, arrive at 11
        node.store.update_smoothed(
            PEER, 11, rssi_value_from_distance(MODEL, true_loc.distance_to(node.self_location))
        )
        for reporter in (OTHER, EXTRAS[1]):
            loc = node.store.peer(reporter).location
            node.store.record_report(
                reporter, PEER, 11, rssi_value_from_distance(MODEL, true_loc.distance_to(loc)), loc
            )
        assert len(node.store.latest_reports_of(PEER)) == node.params.min_anchors - 2
        (stored,) = node.validate_pool(11)
        assert isinstance(stored, StoreTrusted) and stored.message.seq == 1
        assert len(node.pool) == 0

    def test_live_senders_of_both_kinds_visited_in_id_order(self, monkeypatch):
        node = make_node(filter_params=FilterParams(warmup=2, trigger_threshold=6.0))
        visits = []

        def verify(sender, *args):
            visits.append(("verify", sender))
            return VerifyOutcome.INSUFFICIENT_DATA  # no action of its own

        emit_bft = NodeState._emit_bft

        def emit(self, rec, *args, **kwargs):
            visits.append(("bft", rec.id))
            return emit_bft(self, rec, *args, **kwargs)

        monkeypatch.setattr(protocol, "locate_and_verify", verify)
        monkeypatch.setattr(NodeState, "_emit_bft", emit)
        # OTHER's link level jumps by 15 dB: its trigger fires, no reports exist
        for t in range(30):
            node.ingest_sample(OTHER, -52.0 if t < 12 else -67.0, t)
            if OTHER in node._pending:
                break
        else:
            raise AssertionError("the trigger did not fire")
        now = t + 1
        # PEER and EXTRAS[0] have min_anchors - 2 reporters, EXTRAS[1] one
        for subject, reporters in ((PEER, (OTHER, EXTRAS[1])), (EXTRAS[0], (OTHER, PEER)), (EXTRAS[1], (PEER,))):
            for reporter in reporters:
                loc = node.store.peer(reporter).location
                node.store.record_report(reporter, subject, now, -55.0, reporter_location=loc)
        # EXTRAS[2] has reporters but nothing pooled
        for reporter in (OTHER, PEER):
            node.store.record_report(reporter, EXTRAS[2], now, -55.0, node.store.peer(reporter).location)
        for sender in (EXTRAS[1], EXTRAS[0], OTHER, PEER):
            node.receive_payload(payload_from(sender, 1, node.store.peer(sender).location, now), -52.0, now)
        node.validate_pool(now)
        assert visits == [("verify", PEER), ("bft", OTHER), ("verify", EXTRAS[0])]


class TestOwnLinkAppendPath:
    """Every own-link sample enters the store through record_rssi; ingest_sample
    must leave the store, the smoothed value, the trigger and the in-range
    count as record_rssi, update_smoothed and the smoother would."""

    def test_every_sample_goes_through_record_rssi(self, monkeypatch):
        node = make_node()
        calls = []
        record = TopologyStore.record_rssi

        def spy(store, peer, t, value):
            calls.append(t)
            return record(store, peer, t, value)

        monkeypatch.setattr(TopologyStore, "record_rssi", spy)
        for t in range(1, 100):
            node.ingest_sample(PEER, -50.0 - t % 3, t)
        assert calls == list(range(1, 100))
        assert len(node.store.peer(PEER).samples) == node.params.history_window
        assert node.ingest_sample(PEER, -70.0, 99) == node.smoothed_rssi(PEER)
        assert node.ingest_sample(PEER, -70.0, 98) == node.smoothed_rssi(PEER)
        assert calls == [*range(1, 100), 99, 98]
        heard, values = link(node.store, PEER)
        assert (heard, values[-1]) == (99, -50.0)

    def test_sample_under_own_id_raises(self):
        """A node has no link to itself: such a sample is an error, not a
        same-tick duplicate, and it leaves no row behind."""
        node = make_node()
        with pytest.raises(ValueError, match="no link to itself"):
            node.ingest_sample(node.self_id, -50.0, 1)
        assert node.store.peers.keys() == {PEER, OTHER, *EXTRAS[:2]}

    @settings(max_examples=200, deadline=None)
    @given(
        window=st.integers(1, 6),
        bft_window=st.integers(1, 6),
        warmup=st.integers(0, 3),
        cooldown=st.integers(0, 4),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["ingest", "ingest", "ingest", "inject", "move"]),
                st.integers(-3, 3),
                st.integers(-80, -40),
            ),
            max_size=60,
        ),
    )
    def test_matches_record_rssi_reference(self, window, bft_window, warmup, cooldown, ops):
        filter_params = FilterParams(warmup=warmup, trigger_threshold=3.0, trigger_cooldown=cooldown)
        params = ProtocolParams(tau=2, history_window=window, bft_window=bft_window)
        node = make_node(params=params, filter_params=filter_params)
        ref_store = TopologyStore(ME, capacity=window)
        ref_smooth = ref_trigger = ref_pending = ref_heard = None
        clock = 0
        for kind, dt, level in ops:
            now = max(0, clock + dt)
            clock = max(clock, now)
            rssi = float(level)
            if kind == "move":
                node.on_moved(node.self_location, now, announce=True)
                for rec in ref_store.peers.values():
                    rec.smoothed = None
                if ref_smooth is not None:
                    ref_smooth, ref_trigger = filter_params.link_state()
                    ref_pending = None
            elif kind == "inject":
                # as checks._craft_state appends raw history past the smoother
                outcomes = []
                for store in (node.store, ref_store):
                    try:
                        store.record_rssi(PEER, now, rssi)
                        outcomes.append(True)
                    except ValueError:
                        outcomes.append(False)
                assert outcomes[0] == outcomes[1]
                if outcomes[0]:
                    ref_heard = now
            else:
                got = node.ingest_sample(PEER, rssi, now)
                try:
                    ref_store.record_rssi(PEER, now, rssi)
                except ValueError:
                    own = ref_store.latest_smoothed(PEER)
                    expected = None if own is None else own[1]
                else:
                    if ref_smooth is None:
                        ref_smooth, ref_trigger = filter_params.link_state()
                    ref_heard = now
                    expected = ref_smooth(rssi)
                    ref_store.update_smoothed(PEER, now, expected)
                    if bft_trigger(ref_trigger, expected, now):
                        ref_pending = now
                assert got == expected
            assert link(node.store, PEER) == link(ref_store, PEER)
            own = ref_store.latest_smoothed(PEER)
            assert node.store.latest_smoothed(PEER) == own
            assert node.smoothed_rssi(PEER) == (None if own is None or ref_smooth is None else own[1])
            # the last-heard tick is the newest sample's, injected ones included
            for probe in (clock, clock + bft_window, clock + bft_window + 1):
                heard = ref_heard is not None and probe - ref_heard <= bft_window
                assert node.in_range_peers(probe) == int(heard)
            rec = node.store.peer(PEER)
            assert (rec.smooth is None) == (rec.trigger is None) == (ref_smooth is None)
            if rec.smooth is not None:
                assert rec.smooth.args == ref_smooth.args
                assert rec.trigger == ref_trigger
                assert (PEER in node._pending) == (ref_pending is not None)
                assert ref_pending is None or rec.trigger.last_fire == ref_pending


class FlagReference(NodeState):
    """The node as it kept one pending flag per link row and rebuilt its
    live senders from the reports and those flags every round, with one
    Ignore per expired payload."""

    SUBJECTS = (PEER, OTHER, *EXTRAS)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.flags: dict[NodeId, bool] = {}

    def pending_flags(self) -> set[NodeId]:
        return {sender for sender, flag in self.flags.items() if flag}

    def ingest_sample(self, peer, rssi, now):
        try:
            rec = self.store.record_rssi(peer, now, rssi)
        except ValueError:
            return self.smoothed_rssi(peer)
        if rec.smooth is None:
            rec.smooth, rec.trigger = self.filter_params.link_state()
        smoothed = rec.smooth(rssi)
        self.store.update_smoothed(peer, now, smoothed)
        if bft_trigger(rec.trigger, smoothed, now):
            self.flags[peer] = True
        return smoothed

    def on_moved(self, to, now, announce):
        super().on_moved(to, now, announce)
        if announce:
            self.flags = dict.fromkeys(self.flags, False)

    def _emit_bft(self, rec, now, ref_seq):
        self.flags[rec.id] = False
        return super()._emit_bft(rec, now, ref_seq)

    def validate_pool(self, now):
        actions = [Ignore("expired", f"{m.sender}#{m.seq}") for m in self.pool.expire(now)]
        store, params = self.store, self.params
        reported = {
            s for s in self.SUBJECTS if len(store.latest_reports_of(s)) >= params.min_anchors - 2
        }
        for sender in sorted(reported | self.pending_flags()):
            newest = self.pool.newest(sender)
            if newest is None:
                continue
            verdict = VerifyOutcome.INSUFFICIENT_DATA
            if sender in reported:
                verdict = protocol.locate_and_verify(
                    sender, store, newest, self.model, self.self_location, now, params
                )
            if verdict is VerifyOutcome.VERIFIED:
                actions += [StoreTrusted(msg) for msg in self.pool.clear_sender(sender)]
                continue
            rec = store.peer(sender)
            if rec is None or rec.trigger is None:
                continue
            if self.flags.get(sender) and now - rec.trigger.last_fire > rec.trigger.cooldown:
                self.flags[sender] = False
            if self.flags.get(sender):
                actions.append(self._emit_bft(rec, now, ref_seq=newest.seq))
                rec.contradiction_budget = 1
            elif (
                verdict is VerifyOutcome.CONTRADICTED
                and rec.contradiction_budget > 0
                and rec.trigger.cooldown_over(now)
                and store.latest_smoothed(sender) is not None
            ):
                actions.append(self._emit_bft(rec, now, ref_seq=newest.seq))
                rec.contradiction_budget -= 1
        return actions


class TestKeptCurrentSets:
    """The pending set and the reported subjects a node keeps current give
    what the per-pipeline flags and the per-round rebuild gave."""

    SENDERS = FlagReference.SUBJECTS
    PLACES = {
        PEER: Location(4.0, 0.0, 0.0),
        OTHER: Location(0.0, 4.0, 0.0),
        EXTRAS[0]: Location(0.0, 0.0, 4.0),
        EXTRAS[1]: Location(2.0, 2.0, 0.0),
        EXTRAS[2]: Location(-3.0, 1.0, 0.0),
    }

    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["payload", "payload", "bft", "bft", "validate", "validate", "move"]),
                st.integers(0, 2),   # ticks before the step
                st.integers(0, 4),   # sender, reporter
                st.integers(0, 5),   # payload age or displacement, BFT subject (5: the node)
                st.sampled_from([0.0, 0.0, 0.0, -12.0]),  # dB off the true level
            ),
            min_size=20,
            max_size=60,
        )
    )
    def test_matches_per_pipeline_flags(self, ops):
        params = ProtocolParams(tau=2, pool_ttl=4)
        filter_params = FilterParams(
            warmup=1, trigger_threshold=6.0, trigger_cooldown=2,
            smoother="exp_smoothing", smoother_params={"alpha": 0.7},
        )
        node = make_node(params=params, filter_params=filter_params)
        ref = make_node(FlagReference, params=params, filter_params=filter_params)
        here = node.self_location

        def level(a: Location, b: Location, off: float) -> float:
            return rssi_value_from_distance(MODEL, a.distance_to(b)) + off

        now, seqs = 0, dict.fromkeys(self.SENDERS, 0)
        for kind, dt, who, other, off in ops:
            now += dt
            sender = self.SENDERS[who]
            place = self.PLACES[sender]
            if kind == "payload":
                seqs[sender] += 1
                claimed = Location(place.x, place.y + 2.0 * (other % 2), place.z)
                msg = payload_from(sender, seqs[sender], claimed, now - other)
                rssi = level(here, place, off)
                got, want = (n.receive_payload(msg, rssi, now) for n in (node, ref))
            elif kind == "bft":
                subject = (*self.SENDERS, ME)[other]
                if subject == sender:  # a BFT message names another node
                    subject = ME
                measured = Rssi(level(place, self.PLACES.get(subject, here), off))
                msg = BftMessage(sender, place, subject, measured, None, now)
                got, want = (n.receive_bft(msg, level(here, place, 0.0), now) for n in (node, ref))
            elif kind == "validate":
                got = []
                for action in node.validate_pool(now):
                    if isinstance(action, Expired):
                        got += [Ignore("expired", f"{m.sender}#{m.seq}") for m in action.messages]
                    else:
                        got.append(action)
                want = ref.validate_pool(now)
            else:
                here = Location(0.5 * who, 0.0, 0.0)
                for n in (node, ref):
                    n.on_moved(here, now, announce=True)
                got = want = None
            assert got == want
            assert node._pending == ref.pending_flags()
            for bound in (1, 2, 3):
                assert node.store.subjects_reported_by(bound) == {
                    s for s in self.SENDERS if len(node.store.latest_reports_of(s)) >= bound
                }


class TestReceiveBft:
    def test_third_party_bft_bookkeeping(self):
        node = make_node()
        msg = BftMessage(PEER, Location(4.0, 0.0, 0.0), OTHER, Rssi(-47.0), None, 20)
        actions = node.receive_bft(msg, -51.0, 21)
        assert actions == []
        assert node.store.latest_reports_of(OTHER) == {PEER: Report(21, -47.0, Location(4.0, 0.0, 0.0))}
        assert link(node.store, PEER) == (21, [-51.0])
        assert link(node.store, OTHER) == (None, [])
        assert node.store.count_recent_bft(OTHER, 100, 21) == 1

    def test_first_report_per_tick_kept_until_a_later_tick(self):
        node = make_node()
        for value, now in ((-47.0, 21), (-60.0, 21), (-49.0, 22)):
            msg = BftMessage(PEER, Location(4.0, 0.0, 0.0), OTHER, Rssi(value), None, now)
            assert node.receive_bft(msg, -51.0, now) == []
            if now == 21:
                assert node.store.latest_reports_of(OTHER)[PEER] == Report(21, -47.0, Location(4.0, 0.0, 0.0))
        assert node.store.latest_reports_of(OTHER)[PEER] == Report(22, -49.0, Location(4.0, 0.0, 0.0))
        # every BFT message is still logged for dissent counting
        assert node.store.count_recent_bft(OTHER, 100, 22) == 1
        assert node.store.has_seen_bft(PEER, OTHER, 21) and node.store.has_seen_bft(PEER, OTHER, 22)

    def test_bft_about_self_dispatches_self_defense(self):
        node = make_node()
        for t in range(10):
            node.ingest_sample(PEER, -50.0, t)
        msg = BftMessage(PEER, Location(4.0, 0.0, 0.0), ME, Rssi(-50.0), None, 20)
        actions = node.receive_bft(msg, -50.0, 21)
        assert len(actions) == 1  # table row (T, T, F, F) -> explicit ignore
        assert isinstance(actions[0], Ignore)

    def test_bft_about_self_counted_and_answered_but_not_stored(self):
        node = make_node()
        for t in range(10):
            node.ingest_sample(PEER, -50.0, t)
        msg = BftMessage(PEER, Location(4.0, 0.0, 0.0), ME, Rssi(-50.0), None, 20)
        twin = copy.deepcopy(node)
        actions = node.receive_bft(msg, -50.0, 21)
        assert node.store.latest_reports_of(ME) == {}
        assert ME not in node.store.subjects_reported_by(1)
        assert node.store.count_recent_bft(ME, 100, 21) == 1
        twin.ingest_sample(PEER, -50.0, 21)
        twin.store.register_bft(PEER, ME, 20, 21)
        assert actions == twin.self_defense(msg, 21)

    def test_malformed_wire_bft_ignored(self):
        node = make_node()
        # hand-built BFT whose subject equals its sender
        raw = struct.pack("<B6sQ", 0x02, PEER.mac, 7)
        raw += struct.pack("<3d6sdB", 4.0, 0.0, 0.0, PEER.mac, -42.0, 0)
        (action,) = node.receive_wire(raw, -50.0, 8)
        assert isinstance(action, Ignore) and action.reason == "decode-error"

    def test_distinct_sender_dissent_flips_distrust(self):
        node = make_node()
        for t, sender in enumerate((OTHER, EXTRAS[0], EXTRAS[1])):
            msg = BftMessage(sender, Location(1.0, 1.0, 1.0), PEER, Rssi(-55.0), None, 30 + t)
            node.receive_bft(msg, -48.0, 30 + t)
        assert node.store.count_recent_bft(PEER, 100, 40) == 3
        assert node.distrust(PEER, 40)  # 3 > tau=2


class TestDistrust:
    def test_low_trust_first_disjunct(self):
        node = make_node()
        node.store.peers[PEER].trust = TrustScore(0.2)
        assert node.distrust(PEER, 10)

    def test_dissent_second_disjunct(self):
        node = make_node()
        for i, sender in enumerate((OTHER, EXTRAS[0], EXTRAS[1])):
            node.store.register_bft(sender, PEER, i, i)
        assert node.distrust(PEER, 5)

    def test_neither_disjunct(self):
        node = make_node()
        node.store.register_bft(OTHER, PEER, 1, 1)
        assert not node.distrust(PEER, 5)

    def test_unknown_target_uses_initial_trust(self):
        node = make_node()
        stranger = NodeId.from_str("ff:ff:ff:ff:ff:f1")
        assert not node.distrust(stranger, 5)

    def test_monotone_in_observations_and_trust(self):
        node = make_node()
        assert not node.distrust(PEER, 50)
        flipped = False
        for i, sender in enumerate((OTHER, EXTRAS[0], EXTRAS[1])):
            node.store.register_bft(sender, PEER, 40 + i, 40 + i)
            now_flag = node.distrust(PEER, 50)
            assert not flipped or now_flag  # never true -> false while adding
            flipped = now_flag
        assert flipped
        node.store.peers[PEER].trust = TrustScore(0.1)
        assert node.distrust(PEER, 50)  # lowering trust keeps it true


class TestSelfDefensePaperRows:
    @pytest.mark.parametrize(
        "row,expected",
        [
            ((True, True, False, False), IGNORE),
            ((True, True, True, True), IGNORE),
            ((True, False, True, False), BFT_ABOUT_B),
            ((True, False, True, True), BFT_ABOUT_B),
            ((True, False, False, True), SELF_DISTRUST),
            ((False, True, True, False), BFT_ABOUT_B),
            ((False, False, True, False), DISTRUST_B),
        ],
    )
    def test_fixed_rows(self, row, expected):
        assert SELF_DEFENSE_TABLE[row] == expected

    def test_all_sixteen_rows_defined(self):
        assert len(SELF_DEFENSE_TABLE) == 16
        assert sum(1 for v in SELF_DEFENSE_TABLE.values() if v == IGNORE) == 11

    @pytest.mark.parametrize(
        "row, alert_type, context",
        [
            ((True, False, False, True), AlertType.SELF_DISTRUST, "self-distrust"),
            ((False, False, True, False), AlertType.DISTRUST, "distrust {}"),
        ],
    )
    def test_alert_rows_alert_once_per_cooldown(self, row, alert_type, context):
        state, msg = _craft_state(*row)
        obj = state.self_id if alert_type is AlertType.SELF_DISTRUST else msg.sender
        ref = BftRef(msg.sender, msg.subject, msg.timestamp)
        assert state.self_defense(msg, 40) == [AlertMessage(state.self_id, alert_type, obj, ref, 40)]
        assert state.self_defense(msg, 41) == [Ignore("alert-cooldown", context=context.format(msg.sender))]

    def test_smoothed_value_without_a_smoother_is_no_measurement(self):
        node = make_node()
        node.store.record_rssi(PEER, 1, -80.0)
        node.store.update_smoothed(PEER, 2, -50.0)  # stored past ingest_sample, as seed_full_anchors does
        for sender in (OTHER, *EXTRAS):
            node.store.register_bft(sender, PEER, 1, 1)  # PEER is distrusted
        msg = BftMessage(PEER, Location(4.0, 0.0, 0.0), ME, Rssi(-50.0), None, 3)
        assert node.smoothed_rssi(PEER) is None
        assert node.self_defense(msg, 3) == [Ignore("no-measurement-of-accuser", context=str(PEER))]

    def test_self_defense_requires_own_subject(self):
        node = make_node()
        msg = BftMessage(PEER, Location(4.0, 0.0, 0.0), OTHER, Rssi(-50.0), None, 5)
        with pytest.raises(ValueError):
            node.self_defense(msg, 5)


def distrust_alert(accuser, accused, emitted_at=20, t=25) -> AlertMessage:
    return AlertMessage(
        sender=accuser,
        alert_type=AlertType.DISTRUST,
        object=accused,
        ref_bft=BftRef(accused, accuser, emitted_at),
        timestamp=t,
    )


class TestReceiveAlert:
    def _observing_node(self) -> NodeState:
        node = make_node()
        for t in range(12):
            node.ingest_sample(PEER, -50.0, t)     # accuser link: consistent
            node.ingest_sample(OTHER, -47.0, t)    # accused link: consistent for now
        return node

    def test_accept_reduces_accused_trust(self):
        node = self._observing_node()
        accuser, accused = PEER, OTHER
        node.store.register_bft(accused, accuser, 20, 20)  # the referenced BFT was seen
        # doubt about the accused: history inconsistency plus dissent
        for t in range(12, 12 + node.params.history_window):
            node.store.record_rssi(accused, t, -80.0)
        for i, sender in enumerate((EXTRAS[0], EXTRAS[1], EXTRAS[2])):
            node.store.ensure_peer(sender)
            node.store.register_bft(sender, accused, 21 + i, 21 + i)
        node.store.peers[accused].trust = TrustScore(0.5)
        actions = node.receive_alert(distrust_alert(accuser, accused), None, 25)
        assert actions == []
        assert node.store.peers[accused].trust.value == pytest.approx(0.4)
        assert node.store.peers[accuser].trust.value == 1.0

    def test_unseen_reference_rejects_and_rewards_dissent(self):
        node = self._observing_node()
        accuser, accused = PEER, OTHER
        participants = (EXTRAS[0], EXTRAS[1])
        for i, sender in enumerate(participants):
            node.store.ensure_peer(sender)
            node.store.peers[sender].trust = TrustScore(0.5)
            node.store.register_bft(sender, accuser, 18 + i, 18 + i)
        node.store.peers[accuser].trust = TrustScore(0.5)
        before = {n: r.trust.value for n, r in node.store.peers.items()}
        node.receive_alert(distrust_alert(accuser, accused), None, 25)
        after = {n: r.trust.value for n, r in node.store.peers.items()}
        assert after[accuser] == pytest.approx(0.4)
        for sender in participants:
            assert after[sender] == pytest.approx(0.6)
        unchanged = set(after) - {accuser, *participants}
        assert all(after[n] == before[n] for n in unchanged)
        # trust conservation: nobody moved by more than one step
        assert all(abs(after[n] - before[n]) <= node.params.trust_step + 1e-12 for n in after)

    def test_seen_but_undecidable_is_ignored(self):
        node = self._observing_node()
        accuser, accused = PEER, OTHER
        node.store.register_bft(accused, accuser, 20, 20)
        before = {n: r.trust.value for n, r in node.store.peers.items()}
        (action,) = node.receive_alert(distrust_alert(accuser, accused), None, 25)
        assert isinstance(action, Ignore) and action.reason == "alert-undecidable"
        assert {n: r.trust.value for n, r in node.store.peers.items()} == before

    def test_self_distrust_lowers_trust_one_step_and_keeps_location(self):
        node = make_node()
        rec = node.store.peers[PEER]
        trust, location = rec.trust.value, rec.location
        alert = AlertMessage(PEER, AlertType.SELF_DISTRUST, PEER, None, 30)
        assert node.receive_alert(alert, None, 31) == []
        assert rec.trust.value == trust - node.params.trust_step
        assert rec.location is location

    def test_mismatched_reference_is_malformed(self):
        node = make_node()
        bad = AlertMessage(
            sender=PEER,
            alert_type=AlertType.DISTRUST,
            object=OTHER,
            ref_bft=BftRef(EXTRAS[0], PEER, 20),  # ref sender != accused
            timestamp=25,
        )
        (action,) = node.receive_alert(bad, None, 26)
        assert isinstance(action, Ignore) and action.reason == "malformed-alert"


class TestTick:
    def test_deterministic_replay(self):
        node = make_node()
        inbox = [
            (payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 9), -52.0),
            (BftMessage(OTHER, Location(0.0, 4.0, 0.0), PEER, Rssi(-47.0), None, 9), -48.0),
        ]
        n1, n2 = copy.deepcopy(node), copy.deepcopy(node)
        a1 = n1.tick(list(inbox), now=10)
        a2 = n2.tick(list(inbox), now=10)
        assert repr(a1) == repr(a2)
        assert store_state(n1.store) == store_state(n2.store)

    def test_empty_tick_only_expires(self):
        node = make_node(params=ProtocolParams(tau=2, pool_ttl=5))
        node.receive_payload(payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 0), -50.0, 1)
        assert node.tick([], now=3) == []
        actions = node.tick([], now=50)
        assert [[f"{m.sender}#{m.seq}" for m in a.messages] for a in actions] == [[f"{PEER}#1"]]


def store_state(store: TopologyStore) -> tuple:
    """The store in comparable form. A row compares without its smoother, a
    `functools.partial` that compares by identity, so each row's filter
    state is compared beside it."""
    smoothers = {
        peer: None if rec.smooth is None else (rec.smooth.func, rec.smooth.args)
        for peer, rec in store.peers.items()
    }
    return vars(store), smoothers


def node_state(node: NodeState) -> tuple:
    """What a reception can change of a node, in comparable form."""
    pool = node.pool
    return (
        copy.deepcopy(store_state(node.store)),
        [(sender, pool.entries(sender)) for sender in pool._by_sender],
        set(node._pending),
        dict(node._alert_last),
    )


class TestDispatch:
    """`receive_message` and `tick` route each message type to its receive step."""

    MESSAGES = {
        "payload": (payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 20), "receive_payload"),
        "bft-report": (BftMessage(OTHER, Location(0.0, 4.0, 0.0), PEER, Rssi(-47.0), None, 20), "receive_bft"),
        "bft-about-self": (BftMessage(PEER, Location(4.0, 0.0, 0.0), ME, Rssi(-80.0), None, 20), "receive_bft"),
        "distrust-alert": (distrust_alert(PEER, OTHER), "receive_alert"),
        "self-distrust-alert": (AlertMessage(PEER, AlertType.SELF_DISTRUST, PEER, None, 20), "receive_alert"),
    }

    @staticmethod
    def primed_node() -> NodeState:
        node = make_node(params=ProtocolParams(tau=2, pool_ttl=20))
        for t in range(12):
            node.ingest_sample(PEER, -50.0, t)
            node.ingest_sample(OTHER, -47.0, t)
        node.store.register_bft(OTHER, PEER, 20, 20)  # the BFT the distrust alert names
        node.pool.add(payload_from(OTHER, 1, Location(0.0, 4.0, 0.0), 0), 0)  # due at tick 21
        return node

    @pytest.mark.parametrize("name", MESSAGES)
    def test_receive_message_and_one_message_tick_agree(self, name):
        msg, step = self.MESSAGES[name]
        base = self.primed_node()
        direct, routed, ticked = (copy.deepcopy(base) for _ in range(3))
        want = getattr(direct, step)(msg, -49.0, 21)
        assert routed.receive_message(msg, -49.0, 21) == want
        assert node_state(routed) == node_state(direct)
        heard, values = link(routed.store, msg.sender)
        assert (heard, values[-1]) == (21, -49.0)  # the reception was measured
        assert ticked.tick([(msg, -49.0)], now=21) == want + routed.validate_pool(21)
        assert node_state(ticked) == node_state(routed)

    @pytest.mark.parametrize("msg", [b"\x01raw", "text", BftRef(PEER, ME, 20)], ids=["bytes", "str", "bft-ref"])
    def test_other_types_are_ignored(self, msg):
        node, twin = self.primed_node(), self.primed_node()
        assert node.receive_message(msg, -49.0, 21) == [Ignore("unknown-message-type")]
        assert node_state(node) == node_state(twin)
        assert node.tick([(msg, -49.0)], now=21) == [Ignore("unknown-message-type"), *twin.validate_pool(21)]
        assert node_state(node) == node_state(twin)


class TestConfigurableSmoother:
    def test_exp_smoothing_pipeline(self):
        node = make_node(
            filter_params=FilterParams(
                warmup=2, smoother="exp_smoothing", smoother_params={"alpha": 1.0}
            )
        )
        node.ingest_sample(PEER, -50.0, 0)
        out = node.ingest_sample(PEER, -60.0, 1)
        assert out == pytest.approx(-60.0)  # alpha=1 passes raw values through

    def test_unknown_smoother_rejected(self):
        with pytest.raises(ValueError):
            make_node(filter_params=FilterParams(smoother="nope"))

    def test_reset_on_move_rebuilds_alt_state(self):
        node = make_node(
            filter_params=FilterParams(warmup=2, smoother="moving_average")
        )
        for t in range(5):
            node.ingest_sample(PEER, -50.0, t)
        node.on_moved(Location(1.0, 0.0, 0.0), 5, announce=True)
        out = node.ingest_sample(PEER, -70.0, 6)
        assert out == pytest.approx(-70.0)  # buffer was cleared


class TestHistoryWindow:
    def test_every_sample_of_the_window_is_kept(self):
        node = make_node(params=ProtocolParams(tau=2, history_window=100))
        for t in range(100):
            node.ingest_sample(PEER, -80.0 if t < 60 else -50.0, t)
        # the median of all 100 samples is -80; of only the last 64 it is -50
        params = node.params
        assert len(node.store.peer(PEER).samples) == 100
        assert node.store.history_consistent(PEER, -80.0, params.consistency_tol)


class TestTauResolution:
    def test_fraction_of_in_range_peers(self):
        node = make_node(params=ProtocolParams(tau=0.5))
        for t, peer in enumerate((PEER, OTHER, EXTRAS[0], EXTRAS[1])):
            node.ingest_sample(peer, -50.0, t)
        assert node.in_range_peers(10) == 4
        assert node.tau(10) == 2

    def test_absolute_count(self):
        node = make_node(params=ProtocolParams(tau=3))
        assert node.tau(0) == 3

    def test_auto_default_half(self):
        node = make_node(params=ProtocolParams())
        for t, peer in enumerate((PEER, OTHER, EXTRAS[0])):
            node.ingest_sample(peer, -50.0, t)
        assert node.tau(10) == 2  # ceil(0.5 * 3)


class TestMovedFlag:
    def test_flag_lifetime(self):
        node = make_node(params=ProtocolParams(tau=2, moved_ttl=50))
        node.on_moved(Location(1.0, 0.0, 0.0), 100, announce=True)
        assert node.moved_flag(100)
        assert node.moved_flag(150)
        assert not node.moved_flag(151)

    def test_unannounced_move_sets_no_flag(self):
        node = make_node()
        node.on_moved(Location(1.0, 0.0, 0.0), 100, announce=False)
        assert not node.moved_flag(100)

    def test_announced_move_resets_pipelines(self):
        node = make_node()
        for t in range(10):
            node.ingest_sample(PEER, -50.0, t)
        assert node.smoothed_rssi(PEER) is not None
        node.on_moved(Location(1.0, 0.0, 0.0), 10, announce=True)
        assert node.smoothed_rssi(PEER) is None

    def test_announced_move_clears_every_row_and_rearms_only_pipelines(self):
        node = make_node()
        for t in range(10):
            node.ingest_sample(PEER, -50.0, t)
        # a raw link, as checks._craft_state appends one, and a bare smoothed value
        raw = node.store.record_rssi(EXTRAS[2], 9, -60.0)
        node.store.update_smoothed(OTHER, 9, -47.0)
        peer = node.store.peer(PEER)
        old_smooth, old_trigger = peer.smooth, peer.trigger
        node.on_moved(Location(1.0, 0.0, 0.0), 10, announce=True)
        assert [rec.smoothed for rec in node.store.peers.values()] == [None] * len(node.store.peers)
        fresh_smooth, fresh_trigger = node.filter_params.link_state()
        assert peer.smooth is not old_smooth and peer.smooth.args == fresh_smooth.args
        assert peer.trigger is not old_trigger and peer.trigger == fresh_trigger
        assert len(peer.samples) == 10  # the measured samples stay
        for rec in (raw, node.store.peer(OTHER)):
            assert rec.smooth is None and rec.trigger is None
        assert (raw.heard, raw.samples.tolist()) == (9, [-60.0])

    def test_announced_move_leaves_no_stale_own_anchor(self):
        node = make_node()
        for t in range(10):
            node.ingest_sample(PEER, -50.0, t)
        moved_to = Location(1.0, 0.0, 0.0)
        node.on_moved(moved_to, 10, announce=True)
        assert node.smoothed_rssi(PEER) is None
        assert gather_anchors(PEER, node.store, moved_to, 10, freshness=45) == []
        node.ingest_sample(PEER, -60.0, 11)
        assert node.smoothed_rssi(PEER) == pytest.approx(-60.0)
        (own,) = gather_anchors(PEER, node.store, moved_to, 11, freshness=45)
        assert own[:3] == moved_to.as_tuple()
        assert own[3] == pytest.approx(-60.0)


class TestProtocolParamsBounds:
    """Values that would silently break verification or trust are rejected."""

    @pytest.mark.parametrize(
        "field, bad, edge",
        [
            ("verify_slack_cells", -1, 0),   # empty offset range: every solve contradicts
            ("min_anchors", 3, 4),           # a 3-D solve needs four observers
            ("alert_cooldown", -5, 0),
            ("moved_ttl", -1, 0),
        ],
    )
    def test_bound(self, field, bad, edge):
        with pytest.raises(ValueError, match=field):
            ProtocolParams(**{field: bad})
        assert getattr(ProtocolParams(**{field: edge}), field) == edge

    @pytest.mark.parametrize(
        "tau, message",
        [(0, "positive"), (-2, "positive"), (1.5, "a whole number"), (2.9, "a whole number")],
    )
    def test_tau_rejected(self, tau, message):
        with pytest.raises(ValueError, match=f"tau must be {message}"):
            ProtocolParams(tau=tau)

    @pytest.mark.parametrize("tau, resolved", [(None, 1), (0.99, 1), (1, 1), (3.0, 3)])
    def test_tau_accepted(self, tau, resolved):
        # with no peer in range, a fraction and the default resolve to their floor of 1
        assert make_node(params=ProtocolParams(tau=tau)).tau(0) == resolved

    def test_zero_anchors_rejected(self):
        with pytest.raises(ValueError, match="min_anchors"):
            ProtocolParams(min_anchors=0)
