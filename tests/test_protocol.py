"""Node protocol: payload handling, pool validation, self defense, alerts."""

import copy
import struct

import pytest
from hypothesis import given, settings, strategies as st

from polsim.localization import PathLossModel, gather_anchors, rssi_from_distance
from polsim.messages import (
    AlertMessage,
    AlertType,
    BftMessage,
    BftRef,
    Location,
    NodeId,
    PayloadMessage,
    Rssi,
    RssiSource,
    SensorType,
    TrustScore,
    location_key,
    verify_location_key,
)
from polsim.protocol import (
    BFT_ABOUT_B,
    DISTRUST_B,
    IGNORE,
    SELF_DEFENSE_TABLE,
    SELF_DISTRUST,
    FilterParams,
    Ignore,
    MessagePool,
    NodeState,
    ProtocolParams,
    SendBft,
    SendPayload,
    StoreTrusted,
)
from polsim.topology import LinkKey, PeerRecord

MODEL = PathLossModel()
ME = NodeId.from_str("02:00:00:00:00:01")
PEER = NodeId.from_str("02:00:00:00:00:02")
OTHER = NodeId.from_str("02:00:00:00:00:03")
EXTRAS = [NodeId.from_str(f"02:00:00:00:00:0{i}") for i in (4, 5, 6)]


def make_node(**kwargs) -> NodeState:
    params = kwargs.pop("params", ProtocolParams(tau=2))
    node = NodeState(
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
        (action,) = node.emit_payload(b"\x05", 10)
        assert isinstance(action, SendPayload)
        msg = action.message
        assert verify_location_key(msg.signed_payload, node.self_location, b"\x05", 0.5)
        assert msg.timestamp == 10

    def test_seq_strictly_increases(self):
        node = make_node()
        seqs = [node.emit_payload(b"x", t)[0].message.seq for t in range(3)]
        assert seqs == sorted(set(seqs))

    def test_uses_location_after_move(self):
        node = make_node()
        node.on_moved(Location(5.0, 5.0, 0.0), 3, announce=True)
        (action,) = node.emit_payload(b"\x05", 4)
        assert verify_location_key(
            action.message.signed_payload, Location(5.0, 5.0, 0.0), b"\x05", 0.5
        )


class TestReceivePayload:
    def test_fresh_message_pooled_and_measured(self):
        node = make_node()
        msg = payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 9)
        actions = node.receive_payload(msg, Rssi(-52.0), 10)
        assert actions == []
        assert len(node.pool) == 1
        newest = node.store.history(LinkKey(ME, PEER))[-1]
        assert (newest.value, newest.source) == (-52.0, RssiSource.MEASURED)

    def test_duplicate_seq_single_pool_entry(self):
        node = make_node()
        msg = payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 9)
        node.receive_payload(msg, Rssi(-52.0), 10)
        node.receive_payload(msg, Rssi(-53.0), 11)
        assert len(node.pool) == 1
        # the second reception's RSSI is still recorded
        assert node.store.history(LinkKey(ME, PEER))[-1].value == -53.0

    def test_stale_message_ignored(self):
        node = make_node()
        msg = payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 0)
        (action,) = node.receive_payload(msg, Rssi(-52.0), 500)
        assert isinstance(action, Ignore) and action.reason == "stale"
        assert len(node.pool) == 0

    def test_own_identity_echo_ignored(self):
        node = make_node()
        msg = payload_from(ME, 1, Location(0.0, 0.0, 0.0), 9)
        (action,) = node.receive_payload(msg, Rssi(-50.0), 10)
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
            assert [e.message.seq for e in pool.entries(sender)] == [
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


def seed_full_anchors(node: NodeState, subject_loc: Location, now: int) -> None:
    """Give the node a fresh, exact anchor set for PEER."""
    self_rssi = rssi_from_distance(MODEL, subject_loc.distance_to(node.self_location))
    node.store.update_smoothed(LinkKey(ME, PEER), now, self_rssi.value)
    for reporter in (OTHER, EXTRAS[0], EXTRAS[1]):
        loc = node.store.peer(reporter).location
        node.store.record_rssi(
            LinkKey(reporter, PEER),
            now,
            rssi_from_distance(MODEL, subject_loc.distance_to(loc)),
            RssiSource.REPORTED,
            reporter_location=loc,
        )


class TestValidatePool:
    def test_empty_pool_no_actions(self):
        assert make_node().validate_pool(50) == []

    def test_full_anchor_knowledge_verifies_honest_sender(self):
        node = make_node()
        true_loc = Location(4.0, 0.0, 0.0)
        for seq, t in ((1, 10), (2, 11)):
            node.receive_payload(payload_from(PEER, seq, true_loc, t - 1), Rssi(-52.0), t)
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
        node.receive_payload(payload_from(PEER, 1, claimed, 10), Rssi(-52.0), 11)
        seed_full_anchors(node, actual, 11)
        actions = node.validate_pool(11)
        bfts = [a for a in actions if isinstance(a, SendBft)]
        assert len(bfts) == 1
        assert bfts[0].message.subject == PEER
        assert len(node.pool) == 1  # entry remains until ttl

    def test_contradiction_not_repeated_without_new_trigger(self):
        node = make_node()
        claimed = Location(4.0, 0.0, 0.0)
        actual = Location(4.0, 2.0, 0.0)
        node.receive_payload(payload_from(PEER, 1, claimed, 10), Rssi(-52.0), 11)
        seed_full_anchors(node, actual, 11)
        first = [a for a in node.validate_pool(11) if isinstance(a, SendBft)]
        assert len(first) == 1
        for now in range(12, 90):
            again = [a for a in node.validate_pool(now) if isinstance(a, SendBft)]
            assert again == []

    def test_expiry_produces_ignores(self):
        node = make_node(params=ProtocolParams(tau=2, pool_ttl=5))
        node.receive_payload(payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 9), Rssi(-52.0), 10)
        actions = node.validate_pool(16)
        assert [a.reason for a in actions if isinstance(a, Ignore)] == ["expired"]
        assert len(node.pool) == 0

    def test_insufficient_data_plus_trigger_sends_bft(self):
        node = make_node(filter_params=FilterParams(warmup=2, trigger_threshold=6.0))
        steady = Location(4.0, 0.0, 0.0)
        for t in range(12):
            node.receive_payload(payload_from(PEER, t + 1, steady, t), Rssi(-52.0), t)
            node.validate_pool(t)
        # link level jumps by 15 dB: trigger fires, no anchors exist
        actions = []
        for t in range(12, 30):
            node.receive_payload(payload_from(PEER, t + 1, steady, t), Rssi(-67.0), t)
            actions.extend(node.validate_pool(t))
        bfts = [a for a in actions if isinstance(a, SendBft)]
        assert len(bfts) >= 1
        assert bfts[0].message.subject == PEER
        assert bfts[0].message.measured_rssi.value <= -52.0


class TestReceiveBft:
    def test_third_party_bft_bookkeeping(self):
        node = make_node()
        msg = BftMessage(PEER, Location(4.0, 0.0, 0.0), OTHER, Rssi(-47.0), None, 20)
        actions = node.receive_bft(msg, Rssi(-51.0), 21)
        assert actions == []
        reported = node.store.history(LinkKey(PEER, OTHER))[-1]
        assert (reported.value, reported.source) == (-47.0, RssiSource.REPORTED)
        measured = node.store.history(LinkKey(ME, PEER))[-1]
        assert (measured.value, measured.source) == (-51.0, RssiSource.MEASURED)
        assert node.store.count_recent_bft(OTHER, 100, 21) == 1

    def test_bft_about_self_dispatches_self_defense(self):
        node = make_node()
        for t in range(10):
            node.ingest_sample(PEER, Rssi(-50.0), t)
        msg = BftMessage(PEER, Location(4.0, 0.0, 0.0), ME, Rssi(-50.0), None, 20)
        actions = node.receive_bft(msg, Rssi(-50.0), 21)
        assert len(actions) == 1  # table row (T, T, F, F) -> explicit ignore
        assert isinstance(actions[0], Ignore)

    def test_malformed_wire_bft_ignored(self):
        node = make_node()
        # hand-built BFT whose subject equals its sender
        raw = struct.pack("<B6sQ", 0x02, PEER.mac, 7)
        raw += struct.pack("<3d6sdB", 4.0, 0.0, 0.0, PEER.mac, -42.0, 0)
        (action,) = node.receive_wire(raw, Rssi(-50.0), 8)
        assert isinstance(action, Ignore) and action.reason == "decode-error"

    def test_distinct_sender_dissent_flips_distrust(self):
        node = make_node()
        for t, sender in enumerate((OTHER, EXTRAS[0], EXTRAS[1])):
            msg = BftMessage(sender, Location(1.0, 1.0, 1.0), PEER, Rssi(-55.0), None, 30 + t)
            node.receive_bft(msg, Rssi(-48.0), 30 + t)
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
            node.ingest_sample(PEER, Rssi(-50.0), t)     # accuser link: consistent
            node.ingest_sample(OTHER, Rssi(-47.0), t)    # accused link: consistent for now
        return node

    def test_accept_reduces_accused_trust(self):
        node = self._observing_node()
        accuser, accused = PEER, OTHER
        node.store.register_bft(accused, accuser, 20, 20)  # the referenced BFT was seen
        # doubt about the accused: history inconsistency plus dissent
        for t in range(12, 12 + node.params.history_window):
            node.store.record_rssi(LinkKey(ME, accused), t, Rssi(-80.0), RssiSource.MEASURED)
        for i, sender in enumerate((EXTRAS[0], EXTRAS[1], EXTRAS[2])):
            node.store.ensure_peer(sender)
            node.store.register_bft(sender, accused, 21 + i, 21 + i)
        node.store.peers[accused].trust = TrustScore(0.5)
        actions = node.receive_alert(distrust_alert(accuser, accused), 25)
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
        node.receive_alert(distrust_alert(accuser, accused), 25)
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
        (action,) = node.receive_alert(distrust_alert(accuser, accused), 25)
        assert isinstance(action, Ignore) and action.reason == "alert-undecidable"
        assert {n: r.trust.value for n, r in node.store.peers.items()} == before

    def test_self_distrust_marks_sender_unverified(self):
        node = make_node()
        alert = AlertMessage(PEER, AlertType.SELF_DISTRUST, PEER, None, 30)
        assert node.receive_alert(alert, 31) == []
        assert node.store.peers[PEER].trust.value == pytest.approx(0.9)
        assert not node.store.peers[PEER].location_verified

    def test_measurement_alert_logged_only(self):
        node = make_node()
        alert = AlertMessage(PEER, AlertType.MEASUREMENT, b"\x42", None, 30)
        (action,) = node.receive_alert(alert, 31)
        assert isinstance(action, Ignore) and action.reason == "measurement-alert"

    def test_mismatched_reference_is_malformed(self):
        node = make_node()
        bad = AlertMessage(
            sender=PEER,
            alert_type=AlertType.DISTRUST,
            object=OTHER,
            ref_bft=BftRef(EXTRAS[0], PEER, 20),  # ref sender != accused
            timestamp=25,
        )
        (action,) = node.receive_alert(bad, 26)
        assert isinstance(action, Ignore) and action.reason == "malformed-alert"


class TestTick:
    def test_deterministic_replay(self):
        node = make_node()
        inbox = [
            (payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 9), Rssi(-52.0)),
            (BftMessage(OTHER, Location(0.0, 4.0, 0.0), PEER, Rssi(-47.0), None, 9), Rssi(-48.0)),
        ]
        n1, n2 = copy.deepcopy(node), copy.deepcopy(node)
        a1 = n1.tick(list(inbox), now=10)
        a2 = n2.tick(list(inbox), now=10)
        assert repr(a1) == repr(a2)
        assert vars(n1.store) == vars(n2.store)

    def test_empty_tick_only_expires(self):
        node = make_node(params=ProtocolParams(tau=2, pool_ttl=5))
        node.receive_payload(payload_from(PEER, 1, Location(4.0, 0.0, 0.0), 0), Rssi(-50.0), 1)
        assert node.tick([], now=3) == []
        actions = node.tick([], now=50)
        assert [a.reason for a in actions if isinstance(a, Ignore)] == ["expired"]


class TestConfigurableSmoother:
    def test_exp_smoothing_pipeline(self):
        node = make_node(
            filter_params=FilterParams(
                warmup=2, smoother="exp_smoothing", smoother_params={"alpha": 1.0}
            )
        )
        node.ingest_sample(PEER, Rssi(-50.0), 0)
        out = node.ingest_sample(PEER, Rssi(-60.0), 1)
        assert out == pytest.approx(-60.0)  # alpha=1 passes raw values through

    def test_unknown_smoother_rejected(self):
        with pytest.raises(ValueError):
            make_node(filter_params=FilterParams(smoother="nope"))

    def test_reset_on_move_rebuilds_alt_state(self):
        node = make_node(
            filter_params=FilterParams(warmup=2, smoother="moving_average")
        )
        for t in range(5):
            node.ingest_sample(PEER, Rssi(-50.0), t)
        node.on_moved(Location(1.0, 0.0, 0.0), 5, announce=True)
        out = node.ingest_sample(PEER, Rssi(-70.0), 6)
        assert out == pytest.approx(-70.0)  # buffer was cleared


class TestTauResolution:
    def test_fraction_of_in_range_peers(self):
        node = make_node(params=ProtocolParams(tau=0.5))
        for t, peer in enumerate((PEER, OTHER, EXTRAS[0], EXTRAS[1])):
            node.ingest_sample(peer, Rssi(-50.0), t)
        assert node.in_range_peers(10) == 4
        assert node.tau(10) == 2

    def test_absolute_count(self):
        node = make_node(params=ProtocolParams(tau=3))
        assert node.tau(0) == 3

    def test_auto_default_half(self):
        node = make_node(params=ProtocolParams())
        for t, peer in enumerate((PEER, OTHER, EXTRAS[0])):
            node.ingest_sample(peer, Rssi(-50.0), t)
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
            node.ingest_sample(PEER, Rssi(-50.0), t)
        assert node.smoothed_rssi(PEER) is not None
        node.on_moved(Location(1.0, 0.0, 0.0), 10, announce=True)
        assert node.smoothed_rssi(PEER) is None

    def test_announced_move_leaves_no_stale_own_anchor(self):
        node = make_node()
        for t in range(10):
            node.ingest_sample(PEER, Rssi(-50.0), t)
        moved_to = Location(1.0, 0.0, 0.0)
        node.on_moved(moved_to, 10, announce=True)
        assert node.smoothed_rssi(PEER) is None
        assert gather_anchors(PEER, node.store, moved_to, 10, freshness=45) == []
        node.ingest_sample(PEER, Rssi(-60.0), 11)
        assert node.smoothed_rssi(PEER) == pytest.approx(-60.0)
        (own,) = gather_anchors(PEER, node.store, moved_to, 11, freshness=45)
        assert own.anchor == moved_to
        assert own.rssi.value == pytest.approx(-60.0)


class TestProtocolParamsBounds:
    """Values that would silently break verification or trust are rejected."""

    @pytest.mark.parametrize(
        "field, bad, edge",
        [
            ("verify_slack_cells", -1, 0),   # empty offset range: every solve contradicts
            ("min_anchors", 3, 4),           # a 3-D solve needs four observers
            ("alert_cooldown", -5, 0),
            ("moved_ttl", -1, 0),
            ("initial_trust", 7.0, 1.0),
            ("initial_trust", -0.1, 0.0),
        ],
    )
    def test_bound(self, field, bad, edge):
        with pytest.raises(ValueError, match=field):
            ProtocolParams(**{field: bad})
        assert getattr(ProtocolParams(**{field: edge}), field) == edge

    def test_zero_anchors_rejected(self):
        with pytest.raises(ValueError, match="min_anchors"):
            ProtocolParams(min_anchors=0)
