"""Simulation harness: determinism, traces, metrics, attack injection."""

import dataclasses
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import polsim.harness
from polsim.harness import RSSI_HEADER, TraceEvent, chunk_lines, run, sensor_reading, write_traces
from polsim.messages import Location, NodeId, PayloadMessage, SensorType
from polsim.protocol import NodeState
from polsim.scenario import BUILTIN_NAMES, AttackKind, AttackSpec, Scenario, builtin_scenario
from polsim.topology import PeerRecord

ME = NodeId(bytes([2, 0, 0, 0, 0, 1]))
PEER = NodeId(bytes([2, 0, 0, 0, 0, 2]))
NO_ROW = object()  # a sender the receiving node keeps no peer row for


def quiet(scenario: Scenario) -> Scenario:
    return scenario.with_channel(noise_sigma=0.0, asymmetry_jitter=0.0)


def rssi_rows(res) -> list[tuple[int, str, str, float]]:
    """(tick, receiver, sender, raw) of each rssi.csv line the run holds."""
    rows = []
    for line in chunk_lines(res.rssi_chunks):
        tick, receiver, sender, raw, _ = line.split(",")
        rows.append((int(tick), receiver, sender, float(raw)))
    return rows


class TestDeterminism:
    def test_same_seed_identical_traces(self, tmp_path):
        res1 = run(builtin_scenario("paper-fig7", seed=11))
        res2 = run(builtin_scenario("paper-fig7", seed=11))
        p1 = write_traces(res1, str(tmp_path / "a"))
        p2 = write_traces(res2, str(tmp_path / "b"))
        for key in ("rssi", "events", "metrics"):
            assert p1[key].read_bytes() == p2[key].read_bytes()

    def test_different_seed_differs(self):
        r1 = run(builtin_scenario("paper-fig7", seed=11), collect_rssi=True)
        r2 = run(builtin_scenario("paper-fig7", seed=12), collect_rssi=True)
        assert any(
            a[3] != b[3] for a, b in zip(rssi_rows(r1), rssi_rows(r2))
        )


class TestTraces:
    def test_rssi_csv_format(self, tmp_path):
        res = run(builtin_scenario("static-honest", seed=2))
        paths = write_traces(res, str(tmp_path))
        lines = paths["rssi"].read_text().splitlines()
        assert lines[0] == "tick,receiver,sender,rssi_raw,rssi_smoothed"
        first = lines[1].split(",")
        assert len(first) == 5
        int(first[0])
        float(first[3])

    def test_events_jsonl_shape(self, tmp_path):
        res = run(builtin_scenario("static-honest", seed=2))
        paths = write_traces(res, str(tmp_path))
        for line in paths["events"].read_text().splitlines()[:50]:
            event = json.loads(line)
            assert set(event) == {"tick", "node", "action", "details"}

    def test_metrics_json_versioned_and_consistent(self, tmp_path):
        res = run(builtin_scenario("paper-fig7", seed=2))
        paths = write_traces(res, str(tmp_path))
        doc = json.loads(paths["metrics"].read_text())
        assert doc["trace_version"] == 1
        derived_bft = sum(1 for e in res.events if e.action == "send_bft")
        assert derived_bft == sum(c["bft_sent"] for c in doc["counts"].values())

    def test_attacker_injections_counted_under_its_label(self):
        res = run(builtin_scenario("spoof-attack", seed=42), collect_rssi=False)
        keys = {"payload_sent", "bft_sent", "alert_sent", "trusted_stored", "ignored",
                "payload_recv", "bft_recv", "alert_recv"}
        assert all(set(c) == keys for c in res.metrics.counts.values())
        injected = [e for e in res.events if e.node == "attacker0"]
        assert injected and {e.action for e in injected} == {"send_payload"}
        assert res.metrics.counts["attacker0"]["payload_sent"] == len(injected)

    def test_reception_counts_match_rows(self):
        res = run(builtin_scenario("static-honest", seed=3), collect_rssi=True)
        total_rows = sum(chunk.count("\n") for chunk in res.rssi_chunks)
        total_recv = sum(
            c["payload_recv"] + c["bft_recv"] + c["alert_recv"]
            for c in res.metrics.counts.values()
        )
        assert total_rows == total_recv


def stretched(name: str, seed: int, ticks: int) -> Scenario:
    doc = builtin_scenario(name, seed=seed).to_dict()
    doc["duration"] = ticks
    return Scenario.from_dict(doc)


def bump_n1_bft_count(counts) -> None:
    counts["n1"]["bft_sent"] += 1


def drop_n5_counts(counts) -> None:
    del counts["n5"]


def forge_counts(monkeypatch, forge) -> None:
    """Apply `forge` to the counters of the run's metrics once they are built."""
    build = polsim.harness._build_metrics

    def forged(*args, **kwargs):
        metrics = build(*args, **kwargs)
        forge(metrics.counts)
        return metrics

    monkeypatch.setattr(polsim.harness, "_build_metrics", forged)


TRACE_FILES = ("rssi.csv", "events.jsonl", "metrics.json")


class TestStreamedTraces:
    """A run with an output directory streams its trace chunks into the
    files; a run without one holds the same chunks."""

    @pytest.mark.parametrize("collect_rssi", [True, False], ids=["rssi", "no-rssi"])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_streamed_files_equal_replayed_result(self, name, seed, collect_rssi, tmp_path):
        scenario = builtin_scenario(name, seed=seed)
        streamed, written = tmp_path / "streamed", tmp_path / "written"
        run(scenario, out_dir=str(streamed), collect_rssi=collect_rssi)
        res = run(scenario, collect_rssi=collect_rssi)
        assert "".join(res.event_chunks).encode() == (streamed / "events.jsonl").read_bytes()
        assert (RSSI_HEADER + "".join(res.rssi_chunks)).encode() == (streamed / "rssi.csv").read_bytes()
        for event, line in zip(res.events, chunk_lines(res.event_chunks), strict=True):
            assert event.to_json() == line
        write_traces(res, str(written))
        for file_name in TRACE_FILES:
            assert (streamed / file_name).read_bytes() == (written / file_name).read_bytes(), file_name
        if not collect_rssi:
            assert (streamed / "rssi.csv").read_text() == RSSI_HEADER

    def test_held_chunks_are_the_streamed_files(self, tmp_path):
        """A held run of several chunks: joined, its chunks are the file
        bytes, each ends a line, a row whose label holds a line separator
        other than "\\n" stays whole, and the events read across chunk
        boundaries."""
        doc = builtin_scenario("paper-fig7", seed=1).to_dict()
        renamed = {"n1": "n\x851", "n5": "n\u20285"}
        for node in doc["nodes"]:
            node["id"] = renamed.get(node["id"], node["id"])
        for movement in doc["movements"]:
            movement["node"] = renamed.get(movement["node"], movement["node"])
        scenario = Scenario.from_dict(doc)
        streamed = tmp_path / "streamed"
        run(scenario, out_dir=str(streamed))
        res = run(scenario)
        chunk = polsim.harness._WRITE_CHUNK_LINES
        for chunks, file_name, header in (
            (res.event_chunks, "events.jsonl", ""),
            (res.rssi_chunks, "rssi.csv", RSSI_HEADER),
        ):
            assert len(chunks) >= 3, file_name
            assert all(text.endswith("\n") for text in chunks), file_name
            assert (header + "".join(chunks)).encode() == (streamed / file_name).read_bytes()
        rows = [line.split(",") for line in chunk_lines(res.rssi_chunks)]
        assert {len(row) for row in rows} == {5}
        assert {row[2] for row in rows} == {"n\x851", "n2", "n3", "n4", "n\u20285"}
        lines = (streamed / "events.jsonl").read_text(encoding="utf-8").split("\n")[:-1]
        assert len(res.events) == len(lines) > 2 * chunk
        assert [event.to_json() for event in res.events] == lines

    def test_held_result_keeps_no_list_per_line(self):
        """Each list a held result keeps has one item per chunk, not per line."""
        res = run(builtin_scenario("paper-fig7", seed=1))
        # one rssi.csv row per reception
        rows = sum(c["payload_recv"] + c["bft_recv"] + c["alert_recv"] for c in res.metrics.counts.values())
        most = max(len(res.events), rows) // polsim.harness._WRITE_CHUNK_LINES + 1
        lists = {name: len(value) for name, value in vars(res).items() if isinstance(value, list)}
        assert lists and max(lists.values()) <= most, lists

    def test_streamed_result_carries_no_records(self, tmp_path):
        out = tmp_path / "out"
        res = run(builtin_scenario("malicious-bft", seed=1), out_dir=str(out))
        assert res.events is None and res.event_chunks is None and res.rssi_chunks is None
        assert res.out_dir == str(out)
        assert res.metrics.counts["n1"]["payload_sent"] > 0
        for read in (res.bft_events, res.alert_events):
            with pytest.raises(RuntimeError, match=f"streamed its records to {out}"):
                read()
        with pytest.raises(RuntimeError, match="streamed"):
            write_traces(res, str(tmp_path / "again"))

    @pytest.mark.parametrize(
        "forge, message",
        [
            (bump_n1_bft_count, "n1.bft_sent: metrics="),
            (drop_n5_counts, "events of nodes without counters: ['n5']"),
        ],
        ids=["count", "node"],
    )
    def test_forged_count_raises_on_both_paths(self, forge, message, monkeypatch, tmp_path):
        forge_counts(monkeypatch, forge)
        scenario = builtin_scenario("malicious-bft", seed=1)
        with pytest.raises(AssertionError) as in_memory:
            run(scenario)
        with pytest.raises(AssertionError) as streamed:
            run(scenario, out_dir=str(tmp_path))
        assert str(in_memory.value).startswith(message)
        assert str(streamed.value) == str(in_memory.value)
        assert not (tmp_path / "metrics.json").exists()

    def test_failed_run_closes_files_and_leaves_no_metrics(self, monkeypatch, tmp_path):
        (tmp_path / "metrics.json").write_text("{}\n")  # left by an earlier run
        opened = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            opened.append(fh)
            return fh

        tick = NodeState.tick

        def failing_tick(self, inbox, *, now):
            if now == 5:
                raise RuntimeError("tick 5 failed")
            return tick(self, inbox, now=now)

        monkeypatch.setattr(polsim.harness, "open", recording_open, raising=False)
        monkeypatch.setattr(NodeState, "tick", failing_tick)
        with pytest.raises(RuntimeError, match="tick 5 failed"):
            run(builtin_scenario("paper-fig7", seed=1), out_dir=str(tmp_path))
        assert sorted(Path(fh.name).name for fh in opened) == ["events.jsonl", "rssi.csv"]
        assert all(fh.closed for fh in opened)
        assert not (tmp_path / "metrics.json").exists()

    def test_buffers_hold_str_only(self, monkeypatch, tmp_path):
        held = set()
        end_tick = polsim.harness._LineSink.end_tick

        def inspecting_end_tick(sink, *least):
            held.update(map(type, sink.event_lines))
            held.update(map(type, sink.rssi_chunks))
            end_tick(sink, *least)

        monkeypatch.setattr(polsim.harness._LineSink, "end_tick", inspecting_end_tick)
        run(builtin_scenario("malicious-bft", seed=1), out_dir=str(tmp_path))
        assert held == {str}

        held.clear()
        res = run(builtin_scenario("malicious-bft", seed=1))
        assert held == {str}
        assert {type(chunk) for chunk in (*res.event_chunks, *res.rssi_chunks)} == {str}
        # `events` parses the lines on each iteration and keeps no list of its own
        assert "events" not in vars(res) and not isinstance(res.events, list)
        first = next(iter(res.events))
        assert first == next(iter(res.events)) and first is not next(iter(res.events))
        assert len(res.events) == sum(chunk.count("\n") for chunk in res.event_chunks)

    def test_memory_flat_with_duration(self, tmp_path):
        peaks = {}
        for ticks in (900, 3600):
            scenario = stretched("malicious-bft", 1, ticks)
            tracemalloc.start()
            try:
                run(scenario, out_dir=str(tmp_path / str(ticks)))
                peaks[ticks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3600] <= 1.5 * peaks[900], peaks


def json_reference(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# non-ASCII, control characters, quotes, backslashes and lone surrogates
trace_text = st.text(
    st.one_of(
        st.characters(),
        st.characters(max_codepoint=0x1F),
        st.sampled_from('"\\/\u2028\ud800\udfff\U0001f600'),
    ),
    max_size=8,
)
trace_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(),  # NaN, +-inf and -0.0 included
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    trace_text,
)
trace_values = st.recursive(
    trace_scalars, lambda inner: st.dictionaries(trace_text, inner, max_size=4), max_leaves=10
)


class TestCompactJson:
    """An event line is the compact, key-sorted `json.dumps` of its record."""

    @settings(max_examples=250)
    @given(st.integers(), trace_text, trace_values)
    def test_matches_json_dumps(self, line_sink, tick, node, value):
        before = line_sink.tally[node]["store_trusted"]
        line_sink.event(TraceEvent(tick, node, "store_trusted", {"value": value}))
        record = {"tick": tick, "node": node, "action": "store_trusted", "details": {"value": value}}
        assert line_sink.event_lines.pop() == json_reference(record) + "\n"
        assert line_sink.tally[node]["store_trusted"] == before + 1

    @pytest.mark.parametrize("value", [b"raw", {1, 2}, {"k": b"raw"}], ids=["bytes", "set", "nested-bytes"])
    def test_other_types_raise_type_error(self, line_sink, value):
        """A value JSON cannot hold raises and leaves neither a line nor a count."""
        lines, before = len(line_sink.event_lines), line_sink.tally["n1"]["store_trusted"]
        with pytest.raises(TypeError):
            line_sink.event(TraceEvent(0, "n1", "store_trusted", {"value": value}))
        assert len(line_sink.event_lines) == lines
        assert line_sink.tally["n1"]["store_trusted"] == before


@pytest.fixture(scope="module")
def line_sink():
    return polsim.harness._LineSink()


# a trace label without '\n', which would end its row (the scenario loader
# rejects it in a node id), drawing often the characters that a `%` template
# or a line split other than on '\n' could trip on
row_label = st.text(
    st.one_of(
        st.characters().filter(lambda c: c != "\n"),
        st.sampled_from("%{}\x85\u2028\u00e9\U0001f600"),
    ),
    max_size=8,
)


def row_round(receptions):
    """The inbox, labels and peer rows of (sender, label, raw, smoothed
    value or NO_ROW) receptions."""
    inbox = [(SimpleNamespace(sender=sender), raw) for sender, _, raw, _ in receptions]
    labels = {sender: label for sender, label, _, _ in receptions}
    peers = {
        sender: PeerRecord(sender, smoothed=smoothed)
        for sender, _, _, smoothed in receptions
        if smoothed is not NO_ROW
    }
    return inbox, labels, peers


def oracle_rows(tick, receiver, receptions):
    """The rssi.csv lines of the receptions, one f-string per row."""
    want = []
    for _, label, raw, smoothed in receptions:
        smooth = "" if smoothed is NO_ROW or smoothed is None else format(smoothed, ".6f")
        want.append(f"{tick},{receiver},{label},{raw:.6f},{smooth}\n")
    return want


def encoded_rows(sink):
    """The row lines a held sink encodes from its kept rows, taken out of it."""
    sink.end_tick(1)
    rows = [f"{line}\n" for line in chunk_lines(sink.rssi_chunks)]
    sink.rssi_chunks.clear()
    return rows


class TestLineTemplates:
    """Each line the sink makes from fields is the generic encoding of the same record."""

    @settings(max_examples=200)
    @given(st.integers(), trace_text, trace_text, trace_text)
    def test_ignore_line(self, line_sink, tick, node, reason, context):
        line_sink.ignore(tick, node, reason, context)
        event = TraceEvent(tick, node, "ignore", {"reason": reason, "context": context})
        assert line_sink.event_lines.pop() == event.to_json() + "\n"

    @settings(max_examples=200)
    @given(
        st.integers(0, 2**32),
        trace_text | st.sampled_from(['n"1', "n\\1", "n\u00e91", "\U0001f600"]),
        st.lists(st.tuples(st.binary(min_size=6, max_size=6), st.integers(0, 2**32)), max_size=5),
    )
    @example(tick=0, node="\ud800\udfff", expired=[(b"\0" * 6, 0)])  # a surrogate pair
    def test_expired_lines(self, line_sink, tick, node, expired):
        """`expired` writes and tallies what one `ignore(..., "expired", "sender#seq")` per payload does."""
        messages = tuple(
            PayloadMessage(NodeId(sender), seq, SensorType.GENERIC, b"", b"\0" * 16, tick)
            for sender, seq in expired
        )
        lines = line_sink.event_lines
        start, before = len(lines), line_sink.tally[node]["ignore"]
        for m in messages:
            line_sink.ignore(tick, node, "expired", f"{m.sender}#{m.seq}")
        want = lines[start:]
        del lines[start:]
        line_sink.expired(tick, node, messages)
        assert lines[start:] == want
        del lines[start:]
        assert line_sink.tally[node]["ignore"] == before + 2 * len(messages)

        bulk, single = polsim.harness._LineSink(), polsim.harness._LineSink()
        bulk.expired(tick, node, messages)
        for m in messages:
            single.ignore(tick, node, "expired", f"{m.sender}#{m.seq}")
        assert bulk.event_lines == single.event_lines
        assert bulk.tally[node] == single.tally[node]
        events = list(polsim.harness.TraceEvents(["".join(bulk.event_lines)]))
        # a parsed line holds the label as JSON decodes it, which joins a surrogate pair
        decoded = json.loads(json.dumps(node))
        assert polsim.harness._tally(events) == ({decoded: single.tally[node]} if messages else {})
        assert [e.details["context"] for e in events] == [f"{m.sender}#{m.seq}" for m in messages]

    @settings(max_examples=200)
    @given(st.integers(), trace_text, st.integers())
    def test_payload_sent_line(self, line_sink, tick, node, seq):
        line_sink.payload_sent(tick, node, seq)
        event = TraceEvent(tick, node, "send_payload", {"seq": seq})
        assert line_sink.event_lines.pop() == event.to_json() + "\n"

    @settings(max_examples=200)
    @given(
        st.integers(),
        trace_text | st.sampled_from(['n"1', "n\\1", "n\u00e91", "\U0001f600"]),
        trace_text | st.sampled_from(['n"2', "n\\2", "n\u00e92", "\U0001f600"]),
        st.integers(0, 2**64) | st.integers(),
    )
    def test_store_trusted_line(self, line_sink, tick, node, sender, seq):
        before = line_sink.tally[node]["store_trusted"]
        line_sink.store_trusted(tick, node, sender, seq)
        event = TraceEvent(tick, node, "store_trusted", {"sender": sender, "seq": seq})
        assert line_sink.event_lines.pop() == event.to_json() + "\n"
        assert line_sink.tally[node]["store_trusted"] == before + 1

    @settings(max_examples=200)
    @given(
        st.integers(),
        row_label,
        st.lists(
            st.tuples(
                st.binary(min_size=6, max_size=6).map(NodeId),
                row_label,
                st.floats(),
                st.just(NO_ROW) | st.none() | st.floats(),
            ),
            max_size=5,
            unique_by=lambda reception: reception[0],
        ),
    )
    def test_row_line(self, line_sink, tick, receiver, receptions):
        """One rssi.csv line per reception of the round, the smoothed value
        read from the `smoothed` value of the sender's peer row;
        empty when the sender has no row or its row no value."""
        inbox, labels, peers = row_round(receptions)
        line_sink.row(tick, receiver, inbox, labels, peers)
        assert encoded_rows(line_sink) == oracle_rows(tick, receiver, receptions)

    @pytest.mark.parametrize("streamed", [False, True], ids=["held", "streamed"])
    def test_rows_across_a_chunk_boundary(self, streamed, tmp_path):
        """Rows that fill a chunk inside one tick's rounds are encoded when
        that tick ends, and the rest at the end; the lines are the same as
        one f-string per row makes, held or written."""
        chunk = polsim.harness._WRITE_CHUNK_LINES
        sink = polsim.harness._LineSink(str(tmp_path) if streamed else None)
        labels = ["n%1", "{n}", "n\u00e9\x85", "\u2028n"]
        receptions = [
            (NodeId(bytes([2, 0, 0, 0, 0, i])), label, -40.0 - i / 7, smoothed)
            for i, (label, smoothed) in enumerate(zip(labels, [NO_ROW, None, -41.5, -0.0]))
        ]
        inbox, by_id, peers = row_round(receptions)
        want = []
        # tick 0 leaves the chunk 8 rows short, tick 1's third round fills it
        rounds = [(0, (chunk - 8) // len(inbox)), (1, 5), (2, 1)]
        for tick, count in rounds:
            for r in range(count):
                sink.row(tick, f"r{r}%s", inbox, by_id, peers)
                want += oracle_rows(tick, f"r{r}%s", receptions)
            if tick == 1:
                assert len(sink._row_templates) > chunk
            sink.end_tick()
            if tick == 1:
                assert sink._row_templates == []
        sink.end_tick(1)
        sink.close()
        if streamed:
            text = (tmp_path / "rssi.csv").read_text(encoding="utf-8")
            assert text == RSSI_HEADER + "".join(want)
        else:
            assert sink.rssi_chunks == ["".join(want[:len(want) - 4]), "".join(want[len(want) - 4:])]

    def rows(self, line_sink, node, inbox, now):
        """The rssi.csv rows of `node`'s inbox at tick `now`, read from its peer rows."""
        labels = {msg.sender: str(msg.sender) for msg, _ in inbox}
        line_sink.row(now, "me", inbox, labels, node.store.peers)
        return encoded_rows(line_sink)

    def test_self_echo_row_has_no_smoothed_value(self, line_sink):
        """A payload under the receiver's own id is a self-echo: the node
        keeps no row for itself, so the smoothed column stays empty."""
        node = NodeState(ME, Location(0.0, 0.0, 0.0))
        inbox = [(PayloadMessage(ME, 1, SensorType.GENERIC, b"", b"\0" * 16, 5), -50.0)]
        node.tick(inbox, now=5)
        assert ME not in node.store.peers
        assert self.rows(line_sink, node, inbox, 5) == [f"5,me,{ME},-50.000000,\n"]

    def test_row_without_smoothed_value(self, line_sink):
        """A peer row before its first counted sample, and one whose value an
        announced move cleared, both leave the smoothed column empty."""
        node = NodeState(ME, Location(0.0, 0.0, 0.0))
        node.store.adjust_trust(PEER, -0.1)  # a row, no sample yet
        inbox = [(PayloadMessage(PEER, 1, SensorType.GENERIC, b"", b"\0" * 16, 5), -50.0)]
        assert self.rows(line_sink, node, inbox, 5) == [f"5,me,{PEER},-50.000000,\n"]
        node.tick(inbox, now=5)
        smoothed = node.store.peers[PEER].smoothed
        assert self.rows(line_sink, node, inbox, 5) == [f"5,me,{PEER},-50.000000,{smoothed:.6f}\n"]
        node.on_moved(Location(1.0, 0.0, 0.0), 6, announce=True)
        assert self.rows(line_sink, node, inbox, 6) == [f"6,me,{PEER},-50.000000,\n"]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_newest_smoothed_entry_is_smoothed_rssi(name, monkeypatch):
    """The rssi.csv rows read the sender row's `smoothed` value and the node
    reads `NodeState.smoothed_rssi`: after every round of a built-in run the
    two agree for every peer, and a row with a value has a smoother and a
    trigger, because only `ingest_sample` stores one, after it gave the row
    both."""
    checked = [0]
    real_tick = NodeState.tick

    def tick(self, inbox, *, now):
        actions = real_tick(self, inbox, now=now)
        for peer in {*self.store.peers, *(msg.sender for msg, _ in inbox)}:
            rec = self.store.peers.get(peer)
            newest = None if rec is None else rec.smoothed
            assert self.smoothed_rssi(peer) == newest, (now, peer)
            if newest is not None:
                assert rec.smooth is not None and rec.trigger is not None, (now, peer)
                checked[0] += 1
        return actions

    monkeypatch.setattr(NodeState, "tick", tick)
    run(builtin_scenario(name, seed=1), collect_rssi=False)
    assert checked[0] > 0


class TestZeroNoiseOracle:
    """Sharp deterministic behavior with all randomness removed."""

    def test_movement_bfts_only_inside_windows(self):
        res = run(quiet(builtin_scenario("paper-fig7", seed=1)), collect_rssi=False)
        bfts = res.bft_events()
        assert bfts, "movement must produce dissent"
        for e in bfts:
            assert e.details["subject"] == "n5"
            assert 300 < e.tick <= 420 or 600 < e.tick <= 720, e
        for mover_at in (300, 600):
            for observer in ("n1", "n2", "n3", "n4"):
                count = sum(
                    1
                    for e in bfts
                    if e.node == observer and mover_at < e.tick <= mover_at + 60
                )
                assert 1 <= count <= 2, (observer, mover_at, count)
        assert res.metrics.static_false_positive_bft == 0

    def test_mover_announces_self_distrust(self):
        res = run(quiet(builtin_scenario("paper-fig7", seed=1)), collect_rssi=False)
        alerts = res.alert_events()
        assert alerts
        assert all(e.node == "n5" for e in alerts)
        assert all(e.details["alert_type"] == "self_distrust" for e in alerts)
        for window_start in (300, 600):
            hits = [e for e in alerts if window_start < e.tick <= window_start + 60]
            assert 1 <= len(hits) <= 2
        # peers lowered the mover's trust accordingly
        for observer in ("n1", "n2", "n3", "n4"):
            assert res.metrics.trust_final[observer]["n5"] < 1.0

    def test_static_honest_totally_silent(self):
        scenario = dataclasses.replace(quiet(builtin_scenario("static-honest", seed=1)), duration=300)
        res = run(scenario, collect_rssi=False)
        assert res.bft_events() == []
        assert res.alert_events() == []

    def test_latency_metrics_populated(self):
        res = run(quiet(builtin_scenario("paper-fig7", seed=1)), collect_rssi=False)
        assert len(res.metrics.bft_latency) == 8  # 2 movements x 4 observers
        for entry in res.metrics.bft_latency:
            assert entry["latency"] is not None
            assert 0 < entry["latency"] <= 60

    def test_verification_heals_after_return(self):
        res = run(quiet(builtin_scenario("paper-fig7", seed=1)), collect_rssi=False)
        trusted = sum(c["trusted_stored"] for c in res.metrics.counts.values())
        assert trusted > 0


class TestSpoofScenario:
    def test_victim_suppressed_and_flagged(self):
        res = run(builtin_scenario("spoof-attack", seed=42), collect_rssi=False)
        sends = [e for e in res.events if e.action == "send_payload" and e.node == "n1"]
        assert sends and max(e.tick for e in sends) < 400  # victim silenced at attack start
        emitters = {
            e.node
            for e in res.bft_events()
            if e.details["subject"] == "n1" and 400 < e.tick <= 520
        }
        assert len(emitters) >= 3

    def test_victim_sends_again_after_until(self):
        doc = builtin_scenario("static-honest", seed=1).to_dict()
        doc["attacks"] = [{
            "type": "identity_spoof", "at": 400,
            "params": {"victim": "n1", "attacker_position": [0.0, -5.0, -1.0], "until": 600},
        }]
        res = run(Scenario.from_dict(doc), collect_rssi=False)
        ticks = [e.tick for e in res.events if e.action == "send_payload" and e.node == "n1"]
        assert [t for t in ticks if 400 <= t <= 600] == []
        assert max(t for t in ticks if t < 400) == 399
        assert min(t for t in ticks if t > 600) == 601
        assert res.metrics.counts["attacker0"]["payload_sent"] == 201

    def test_spoofed_rows_appear_under_victim_identity(self):
        res = run(builtin_scenario("spoof-attack", seed=42), collect_rssi=True)
        rows = rssi_rows(res)
        rows_late = [raw for tick, _, sender, raw in rows if sender == "n1" and tick > 450]
        assert rows_late, "spoofed transmissions carry the victim identity"
        rows_early = [raw for tick, _, sender, raw in rows if sender == "n1" and tick < 390]
        # attacker transmits from much farther away than the victim did
        early = sum(rows_early) / len(rows_early)
        late = sum(rows_late) / len(rows_late)
        assert early - late > 5.0


class TestReplayScenario:
    def make_scenario(self) -> Scenario:
        base = builtin_scenario("static-honest", seed=8)
        return dataclasses.replace(
            base,
            name="replay-test",
            duration=400,
            attacks=(
                AttackSpec(
                    AttackKind.REPLAY,
                    at=300,
                    params={"victim": "n2", "attacker_position": [4.0, 4.0, 0.0], "period": 10},
                ),
            ),
        )

    def test_replayed_messages_rejected_as_stale(self):
        res = run(self.make_scenario(), collect_rssi=False)
        stale = [
            e
            for e in res.events
            if e.action == "ignore"
            and e.details["reason"] == "stale"
            and e.tick >= 300
        ]
        assert stale, "replays of an old capture must be rejected by age"
        victim_mac = str(self.make_scenario().node("n2").mac)
        assert all(e.details["context"] == f"{victim_mac}#1" for e in stale)
        assert res.bft_events() == []
        assert res.alert_events() == []

    @pytest.mark.parametrize("spoof_until, replays", [(10, [50, 60, 70]), (100, [110, 120, 130])])
    def test_count_is_spent_only_on_captured_payloads(self, spoof_until, replays):
        """A replayer whose victim is silenced has nothing to send: those
        ticks neither transmit nor count toward `count`."""
        doc = builtin_scenario("static-honest", seed=1).to_dict()
        doc["duration"] = 200
        doc["attacks"] = [
            {"type": "identity_spoof", "at": 0,
             "params": {"victim": "n1", "attacker_position": [0.0, -5.0, -1.0], "until": spoof_until}},
            {"type": "replay", "at": 50,
             "params": {"victim": "n1", "attacker_position": [4.0, 4.0, 0.0], "period": 10, "count": 3}},
        ]
        res = run(Scenario.from_dict(doc), collect_rssi=False)
        assert [e.tick for e in res.events if e.action == "send_payload" and e.node == "attacker1"] == replays

    def test_replay_does_not_duplicate_pool_entries(self):
        res = run(self.make_scenario(), collect_rssi=False)
        # the pool dedups on (sender, seq); stale handling precedes pooling,
        # so no sender can ever have two entries for one sequence number
        for node in res.nodes.values():
            for messages, _ticks in node.pool._by_sender.values():
                seqs = [msg.seq for msg in messages]
                assert len(seqs) == len(set(seqs))
                assert len(seqs) <= node.params.pool_ttl + 1


class TestMaliciousBftScenario:
    def test_single_liar_is_contained(self):
        res = run(builtin_scenario("malicious-bft", seed=42), collect_rssi=False)
        victim_mac = builtin_scenario("malicious-bft", seed=42).node("n2").mac
        fake = [e for e in res.bft_events() if e.node == "n4" and e.details["subject"] == "n2"]
        assert fake, "the compromised node does emit forged dissent"
        assert res.alert_events() == []
        for label, node in res.nodes.items():
            if label != "n2":
                assert not node.distrust(victim_mac, res.metrics.duration)


class TestSensorReading:
    def test_deterministic(self):
        assert sensor_reading(2, 17) == sensor_reading(2, 17)
        assert sensor_reading(2, 17) != sensor_reading(3, 17)
