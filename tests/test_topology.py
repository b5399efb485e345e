"""Topology store: histories, trust, dissent counting."""

import pytest
from hypothesis import given, settings, strategies as st

from polsim.messages import NodeId, Rssi, RssiSource, TrustScore
from polsim.topology import (
    LinkKey,
    OrderingError,
    PeerRecord,
    TopologyStore,
    UnknownPeerError,
)

A = NodeId.from_str("02:00:00:00:00:01")
B = NodeId.from_str("02:00:00:00:00:02")
C = NodeId.from_str("02:00:00:00:00:03")
D = NodeId.from_str("02:00:00:00:00:04")


def make_store(capacity=64):
    store = TopologyStore(A, capacity=capacity)
    for node in (B, C, D):
        store.add_peer(PeerRecord(id=node))
    return store


class TestLinkKey:
    def test_rejects_self_link(self):
        with pytest.raises(ValueError):
            LinkKey(A, A)


class TestRecordRssi:
    def test_first_record_creates_link(self):
        store = make_store()
        store.record_rssi(LinkKey(A, B), 1, Rssi(-40.0), RssiSource.MEASURED)
        assert len(list(store.links())) == 1
        assert len(store.history(LinkKey(A, B))) == 1

    def test_ring_buffer_evicts_oldest(self):
        store = make_store(capacity=8)
        link = LinkKey(A, B)
        for t in range(9):
            store.record_rssi(link, t, Rssi(-40.0 - t), RssiSource.MEASURED)
        history = store.history(link)
        assert len(history) == 8
        assert history[0].value == -41.0  # t=0 evicted

    def test_same_tick_distinct_sources_ok(self):
        store = make_store()
        link = LinkKey(A, B)
        store.record_rssi(link, 5, Rssi(-40.0), RssiSource.MEASURED)
        store.record_rssi(link, 5, Rssi(-42.0), RssiSource.REPORTED)
        assert len(store.history(link)) == 2

    def test_same_tick_same_source_rejected(self):
        store = make_store()
        link = LinkKey(A, B)
        store.record_rssi(link, 5, Rssi(-40.0), RssiSource.MEASURED)
        with pytest.raises(OrderingError):
            store.record_rssi(link, 5, Rssi(-41.0), RssiSource.MEASURED)

    def test_backwards_time_rejected(self):
        store = make_store()
        link = LinkKey(A, B)
        store.record_rssi(link, 5, Rssi(-40.0), RssiSource.MEASURED)
        with pytest.raises(OrderingError):
            store.record_rssi(link, 4, Rssi(-40.0), RssiSource.MEASURED)


class TestHistoryConsistent:
    def test_within_tolerance(self):
        store = make_store()
        link = LinkKey(A, B)
        for t, v in enumerate([-45.0, -44.0, -46.0]):
            store.record_rssi(link, t, Rssi(v), RssiSource.MEASURED)
        assert store.history_consistent(link, Rssi(-45.0), 3, 5.0)

    def test_outside_tolerance(self):
        store = make_store()
        link = LinkKey(A, B)
        for t, v in enumerate([-45.0, -44.0, -46.0]):
            store.record_rssi(link, t, Rssi(v), RssiSource.MEASURED)
        assert not store.history_consistent(link, Rssi(-60.0), 3, 5.0)

    def test_empty_history_is_vacuously_consistent(self):
        assert make_store().history_consistent(LinkKey(A, B), Rssi(-90.0), 3, 5.0)

    def test_reported_entries_are_not_history_evidence(self):
        store = make_store()
        link = LinkKey(A, B)
        store.record_rssi(link, 1, Rssi(-90.0), RssiSource.REPORTED)
        assert store.history_consistent(link, Rssi(-40.0), 3, 5.0)


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

    def test_unknown_peer(self):
        with pytest.raises(UnknownPeerError):
            make_store().adjust_trust(NodeId.from_str("ff:ff:ff:ff:ff:ff"), 0.1)


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


ops = st.lists(
    st.tuples(
        st.sampled_from([B, C, D]),
        st.integers(min_value=0, max_value=200),
        st.floats(min_value=-120.0, max_value=0.0, allow_nan=False),
        st.sampled_from(list(RssiSource)),
    ),
    max_size=120,
)


class TestStoreProperties:
    @settings(max_examples=100)
    @given(ops)
    def test_histories_sorted_and_bounded(self, calls):
        store = make_store(capacity=16)
        for peer, t, value, source in calls:
            try:
                store.record_rssi(LinkKey(A, peer), t, Rssi(value), source)
            except OrderingError:
                pass
        for link in store.links():
            history = store.history(link)
            assert len(history) <= 16
            times = [e.timestamp for e in history]
            assert times == sorted(times)

    @settings(max_examples=60)
    @given(ops)
    def test_no_self_links(self, calls):
        store = make_store()
        for peer, t, value, source in calls:
            try:
                store.record_rssi(LinkKey(A, peer), t, Rssi(value), source)
            except OrderingError:
                pass
        assert all(link.observer != link.observed for link in store.links())
