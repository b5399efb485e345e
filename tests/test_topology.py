"""Topology store: histories, trust, dissent counting."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from polsim.messages import Location, NodeId, Rssi, TrustScore
from polsim.topology import (
    OrderingError,
    PeerRecord,
    Report,
    TopologyStore,
)

A = NodeId.from_str("02:00:00:00:00:01")
B = NodeId.from_str("02:00:00:00:00:02")
C = NodeId.from_str("02:00:00:00:00:03")
D = NodeId.from_str("02:00:00:00:00:04")
HERE = Location(1.0, 0.0, 0.0)


def link(store, peer):
    """(heard, sample values) of the store's link to `peer`; (None, []) without a row."""
    rec = store.peers.get(peer)
    return (None, []) if rec is None else (rec.heard, rec.samples.tolist())


def make_store(capacity=64, min_reporters=2, freshness=45):
    store = TopologyStore(A, capacity=capacity, min_reporters=min_reporters, freshness=freshness)
    for node in (B, C, D):
        store.add_peer(PeerRecord(id=node))
    return store


class TestRecordRssi:
    def test_first_record_creates_link(self):
        store = make_store()
        store.record_rssi(B, 1, -40.0)
        assert link(store, B) == (1, [-40.0])
        assert link(store, C) == (None, [])

    def test_rejects_own_id(self):
        with pytest.raises(ValueError):
            make_store().record_rssi(A, 1, -40.0)

    def test_ring_buffer_evicts_oldest(self):
        store = make_store(capacity=8)
        for t in range(9):
            store.record_rssi(B, t, -40.0 - t)
        heard, values = link(store, B)
        assert heard == 8 and len(values) == 8
        assert values[0] == -41.0  # t=0 evicted

    def test_same_tick_rejected(self):
        store = make_store()
        store.record_rssi(B, 5, -40.0)
        with pytest.raises(OrderingError):
            store.record_rssi(B, 5, -41.0)
        assert link(store, B) == (5, [-40.0])

    def test_backwards_time_rejected(self):
        store = make_store()
        store.record_rssi(B, 5, -40.0)
        with pytest.raises(OrderingError):
            store.record_rssi(B, 4, -40.0)

    def test_returns_the_row_made_as_ensure_peer_makes_one(self):
        store = TopologyStore(A, capacity=4, min_reporters=2, freshness=45)
        rec = store.record_rssi(B, 1, -40.0)
        assert store.trust_changed and store.peers[B] is rec
        assert (rec.id, rec.location, rec.trust.value, rec.heard, rec.samples.tolist()) == (B, None, 1.0, 1, [-40.0])
        assert rec.smooth is None and rec.trigger is None and rec.smoothed is None
        store.trust_changed = False
        assert store.record_rssi(B, 2, -41.0) is rec
        assert not store.trust_changed

    def test_row_without_samples_is_no_link(self):
        store = make_store()  # rows for B, C and D, none measured
        assert store.links_heard_within(10, 0) == 0
        assert store.history_consistent(C, -90.0, 5.0)
        store.record_rssi(B, 0, -40.0)
        assert store.links_heard_within(10, 0) == 1


class TestRecordReport:
    def test_first_report_of_a_tick_is_kept(self):
        store = make_store()
        store.record_report(B, C, 5, -40.0, Location(1.0, 0.0, 0.0))
        store.record_report(B, C, 5, -60.0, Location(2.0, 0.0, 0.0))
        assert store.latest_reports_of(C) == {B: Report(5, -40.0, Location(1.0, 0.0, 0.0))}

    def test_later_tick_replaces_and_older_tick_is_dropped(self):
        store = make_store()
        store.record_report(B, C, 5, -40.0, HERE)
        store.record_report(B, C, 7, -45.0, HERE)
        store.record_report(B, C, 6, -50.0, HERE)
        assert store.latest_reports_of(C) == {B: Report(7, -45.0, HERE)}

    @settings(max_examples=200)
    @given(
        bound=st.integers(1, 4),
        freshness=st.integers(0, 3),
        reports=st.lists(
            st.tuples(st.sampled_from([A, B, C, D]), st.sampled_from([B, C, D]), st.integers(0, 8)),
            max_size=30,
        ),
    )
    def test_live_set_kept_current(self, bound, freshness, reports):
        """After every report, the live set at each tick equals the subjects
        with at least the store's bound of reports the verifier counts as
        fresh (`gather_anchors` drops one older than `freshness`)."""
        store = make_store(min_reporters=bound, freshness=freshness)
        assert store.live(0) == set()
        for reporter, subject, t in reports:
            store.record_report(reporter, subject, t, -50.0, HERE)
            for now in range(14):
                assert store.live(now) == {
                    s
                    for s in (B, C, D)
                    if sum(now - r.timestamp <= freshness for r in store.latest_reports_of(s).values()) >= bound
                }

    def test_subject_leaves_when_its_reports_go_stale_and_rejoins_on_the_next(self):
        store = make_store(min_reporters=2, freshness=45)
        store.record_report(B, D, 0, -40.0, HERE)
        assert store.live(0) == set()
        store.record_report(C, D, 10, -41.0, HERE)
        # the second-newest report, from tick 0, is fresh up to tick 45
        assert store.live(10) == store.live(45) == {D}
        assert store.live(46) == set()
        # B's next report leaves two fresh ones: from ticks 10 and 50
        store.record_report(B, D, 50, -42.0, HERE)
        assert store.live(50) == store.live(55) == {D}
        assert store.live(56) == set()

    def test_reporters_and_subjects_kept_apart(self):
        store = make_store()
        store.record_report(B, C, 5, -40.0, HERE)
        store.record_report(D, C, 5, -41.0, HERE)
        store.record_report(B, D, 5, -42.0, HERE)
        assert store.latest_reports_of(C) == {B: Report(5, -40.0, HERE), D: Report(5, -41.0, HERE)}
        assert store.latest_reports_of(B) == {}
        assert store.live(5) == {C}


class TestHistoryConsistent:
    def test_within_tolerance(self):
        store = make_store(capacity=3)
        for t, v in enumerate([-45.0, -44.0, -46.0]):
            store.record_rssi(B, t, v)
        assert store.history_consistent(B, -45.0, 5.0)

    def test_outside_tolerance(self):
        store = make_store(capacity=3)
        for t, v in enumerate([-45.0, -44.0, -46.0]):
            store.record_rssi(B, t, v)
        assert not store.history_consistent(B, -60.0, 5.0)

    def test_only_the_last_capacity_samples_count(self):
        store = make_store(capacity=3)
        for t, v in enumerate([-90.0, -90.0, -90.0, -45.0, -44.0, -46.0]):
            store.record_rssi(B, t, v)
        assert store.history_consistent(B, -45.0, 5.0)
        assert not store.history_consistent(B, -90.0, 5.0)

    def test_even_count_uses_the_lower_median(self):
        store = make_store(capacity=3)
        for t, v in enumerate([-40.0, -60.0]):
            store.record_rssi(B, t, v)
        assert store.history_consistent(B, -60.0, 0.0)
        assert not store.history_consistent(B, -40.0, 0.0)

    def test_empty_history_is_vacuously_consistent(self):
        assert make_store(capacity=3).history_consistent(B, -90.0, 5.0)

    def test_reported_entries_are_not_history_evidence(self):
        store = make_store(capacity=3)
        store.record_report(B, C, 1, -90.0, HERE)
        store.record_report(C, B, 1, -90.0, HERE)
        assert store.history_consistent(B, -40.0, 5.0)
        assert store.history_consistent(C, -40.0, 5.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            make_store(capacity=3).history_consistent(B, -40.0, -1.0)


class TestBounds:
    """Each bound rejects NaN, which a written-out `<` or `<=` comparison lets through."""

    @pytest.mark.parametrize("capacity", [0, -1, math.nan])
    def test_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            TopologyStore(A, capacity=capacity, min_reporters=2, freshness=45)

    @pytest.mark.parametrize("min_reporters", [0, -1, math.nan])
    def test_min_reporters_rejected(self, min_reporters):
        with pytest.raises(ValueError, match="min_reporters"):
            TopologyStore(A, capacity=4, min_reporters=min_reporters, freshness=45)

    @pytest.mark.parametrize("freshness", [-1, math.nan])
    def test_freshness_rejected(self, freshness):
        with pytest.raises(ValueError, match="freshness"):
            TopologyStore(A, capacity=4, min_reporters=2, freshness=freshness)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            make_store(capacity=3).history_consistent(B, -40.0, math.nan)

    @pytest.mark.parametrize("window", [0, -1, math.nan])
    def test_bft_window_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
            make_store().recent_bft_senders(B, window, 10)


class TestAdjustTrust:
    def test_basic_step(self):
        store = make_store()
        store.peers[B].trust = TrustScore(0.5)
        assert store.adjust_trust(B, 0.1).value == pytest.approx(0.6)

    def test_clamps_both_ends(self):
        store = make_store()
        store.peers[B].trust = TrustScore(0.05)
        assert store.adjust_trust(B, -0.1).value == 0.0
        store.peers[C].trust = TrustScore(1.0)
        assert store.adjust_trust(C, 0.1).value == 1.0

    def test_idempotent_at_clamp_bounds(self):
        store = make_store()
        store.peers[B].trust = TrustScore(0.0)
        store.adjust_trust(B, -0.3)
        assert store.adjust_trust(B, -0.3).value == 0.0

    def test_trust_changed_raised_by_every_record_write(self):
        store = TopologyStore(A, capacity=4, min_reporters=2, freshness=45)
        assert not store.trust_changed
        store.add_peer(PeerRecord(id=B))
        assert store.trust_changed
        store.trust_changed = False
        store.ensure_peer(B)  # the record exists: nothing changed
        assert not store.trust_changed
        store.ensure_peer(C)
        assert store.trust_changed
        store.trust_changed = False
        store.adjust_trust(B, -0.1)
        assert store.trust_changed

    def test_unknown_peer_gets_a_record(self):
        """A trust update on a stranger creates its record at 1.0 + delta, clamped."""
        store = make_store()
        lowered, raised = NodeId.from_str("ff:ff:ff:ff:ff:01"), NodeId.from_str("ff:ff:ff:ff:ff:02")
        assert store.adjust_trust(lowered, -0.1).value == pytest.approx(0.9)
        assert store.adjust_trust(raised, 0.1).value == 1.0
        for stranger, want in ((lowered, 0.9), (raised, 1.0)):
            rec = store.peers[stranger]
            assert rec.location is None
            assert rec.trust.value == pytest.approx(want)


class TestCountRecentBft:
    def test_empty(self):
        assert make_store().count_recent_bft(B, 100, 50) == 0

    def test_distinct_senders_only(self):
        # oracle: {B, C} by set construction, the duplicate sender collapses
        store = make_store()
        store.register_bft(B, D, 10, 10)
        store.register_bft(C, D, 11, 11)
        store.register_bft(B, D, 12, 12)
        assert store.count_recent_bft(D, 100, 20) == len({B, C})

    def test_window_excludes_old(self):
        store = make_store()
        store.register_bft(B, D, 10, 10)
        store.register_bft(C, D, 11, 11)
        assert store.count_recent_bft(D, 5, 100) == 0

    def test_window_boundary_half_open(self):
        store = make_store()
        store.register_bft(B, D, 10, 10)
        assert store.count_recent_bft(D, 10, 10) == 1  # seen_at == now is inside
        assert store.count_recent_bft(D, 10, 19) == 1  # 10 > 19 - 10
        assert store.count_recent_bft(D, 10, 20) == 0  # left edge excluded


class TestBftSightings:
    @settings(max_examples=200)
    @given(
        sightings=st.lists(
            st.tuples(st.sampled_from([A, B, C]), st.sampled_from([B, C, D]),
                      st.integers(0, 30), st.integers(0, 30)),
            max_size=40,
        ),
        window=st.integers(1, 20),
        now=st.integers(0, 40),
    )
    def test_per_subject_lists_match_a_flat_log(self, sightings, window, now):
        store = make_store()
        for sender, subject, emitted_at, seen_at in sightings:
            store.register_bft(sender, subject, emitted_at, seen_at)
        for subject in (A, B, C, D):
            want = {s for s, subj, _, seen in sightings if subj == subject and now - window < seen <= now}
            assert store.recent_bft_senders(subject, window, now) == want
            assert store.count_recent_bft(subject, window, now) == len(want)
            for sender in (A, B, C):
                for emitted_at in range(31):
                    assert store.has_seen_bft(sender, subject, emitted_at) == any(
                        (s, subj, e) == (sender, subject, emitted_at) for s, subj, e, _ in sightings
                    )


samples = st.lists(
    st.tuples(
        st.sampled_from([A, B, C, D]),
        st.integers(min_value=0, max_value=40),
        st.floats(min_value=-120.0, max_value=0.0, allow_nan=False),
    ),
    max_size=120,
)


class TestStoreProperties:
    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=8), samples)
    def test_record_rssi_matches_list_model(self, capacity, calls):
        # the model keeps every accepted sample; the store its last `capacity`
        store = make_store(capacity=capacity)
        model: dict[NodeId, list[tuple[int, float]]] = {}
        for peer, t, value in calls:
            kept = model.get(peer, [])
            if peer == A:
                with pytest.raises(ValueError):
                    store.record_rssi(peer, t, value)
            elif kept and t <= kept[-1][0]:
                with pytest.raises(OrderingError):
                    store.record_rssi(peer, t, value)
            else:
                store.record_rssi(peer, t, value)
                model[peer] = kept + [(t, value)]
            for node in (A, B, C, D):
                kept = model.get(node, [])[-capacity:]
                assert link(store, node) == (kept[-1][0] if kept else None, [v for _, v in kept])
                median = sorted(v for _, v in kept)[(len(kept) - 1) // 2] if kept else None
                for candidate, tol in ((value, 0.0), (-60.0, 5.0)):
                    want = median is None or abs(candidate - median) <= tol
                    assert store.history_consistent(node, candidate, tol) == want
            for window in (0, 5):
                heard = sum(1 for kept in model.values() if t - kept[-1][0] <= window)
                assert store.links_heard_within(window, t) == heard
