"""Discrete-time event loop binding protocol nodes to the radio channel.

One tick is one protocol round: due movements and attacks are applied, due
payload emissions and the previous tick's protocol messages are broadcast,
the channel delivers them, every node runs its round, and the resulting
send actions queue for the next tick. The whole run is a pure function of
the scenario (seed included); traces are byte-stable across runs.

Trace outputs (streamed while the run goes when an output directory is given):
  rssi.csv     one row per reception: tick,receiver,sender,rssi_raw,rssi_smoothed
  events.jsonl one JSON object per node action: {tick, node, action, details}
  metrics.json run summary, cross-checked against the event log, written last
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import closing
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Any, Callable, Optional, TextIO

from .messages import (
    AlertMessage,
    BftMessage,
    Location,
    Message,
    NodeId,
    PayloadMessage,
    Rssi,
    location_key,
)
from .channel import RadioChannel
from .protocol import (
    Action,
    Ignore,
    NodeState,
    SendAlert,
    SendBft,
    SendPayload,
    StoreTrusted,
)
from .scenario import AttackKind, AttackSpec, Scenario
from .topology import PeerRecord

TRACE_VERSION = 1
MOVEMENT_SETTLE_WINDOW = 120  # ticks after a movement not counted as static
# records held before a write: one write per line costs a call per line,
# holding a whole file raises peak memory by its size
_WRITE_CHUNK_LINES = 4096


def compact_json(value: Any) -> str:
    """Serialize a trace value exactly as ``json.dumps(value, sort_keys=True,
    separators=(",", ":"))`` does.

    The domain is exactly the types str, int, float (NaN and +-Infinity are
    written as json writes them), bool, None and dict with str keys and
    values in the domain. Any other type, subclasses included, raises
    TypeError.
    """
    cls = type(value)
    if cls is str:
        return _escape(value)
    if cls is int:
        return repr(value)
    if cls is dict:
        parts = []
        for key in sorted(value):
            # _escape raises TypeError for a key that is not a str
            parts.append(f"{_escape(key)}:{compact_json(value[key])}")
        return "{" + ",".join(parts) + "}"
    if value is None:
        return "null"
    if cls is bool:
        return "true" if value else "false"
    if cls is float:
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return repr(value)
    raise TypeError(f"cannot encode {cls.__name__} in a trace")


@dataclass(slots=True)
class TraceEvent:
    tick: int
    node: str
    action: str
    details: dict[str, Any]

    def to_json(self) -> str:
        # the keys of json.dumps(..., sort_keys=True) in their sorted order
        return (
            f'{{"action":{compact_json(self.action)},"details":{compact_json(self.details)},'
            f'"node":{compact_json(self.node)},"tick":{compact_json(self.tick)}}}'
        )


@dataclass(slots=True)
class RssiRow:
    tick: int
    receiver: str
    sender: str
    raw: float
    smoothed: Optional[float]

    def to_csv(self) -> str:
        smooth = f"{self.smoothed:.6f}" if self.smoothed is not None else ""
        return f"{self.tick},{self.receiver},{self.sender},{self.raw:.6f},{smooth}"


_COUNT_KEYS = (
    "payload_sent", "bft_sent", "alert_sent",
    "payload_recv", "bft_recv", "alert_recv",
    "trusted_stored", "ignored",
)
# the event action behind each sent/stored/ignored counter, in check order
_ACTION_COUNTS = {
    "send_payload": "payload_sent",
    "send_bft": "bft_sent",
    "send_alert": "alert_sent",
    "store_trusted": "trusted_stored",
    "ignore": "ignored",
}
RSSI_HEADER = "tick,receiver,sender,rssi_raw,rssi_smoothed\n"


def _tally(events: list[TraceEvent], tally: dict[str, dict[str, int]]) -> None:
    """Count each event in tally[node][action]; an unknown action raises KeyError."""
    for e in events:
        node = tally.get(e.node)
        if node is None:
            node = tally[e.node] = dict.fromkeys(_ACTION_COUNTS, 0)
        node[e.action] += 1


def _check_counts(counts: dict[str, dict[str, int]], tally: dict[str, dict[str, int]]) -> None:
    """Raise AssertionError where a counter differs from the tally of the events."""
    for label, node_counts in counts.items():
        derived = tally.get(label) or dict.fromkeys(_ACTION_COUNTS, 0)
        for action, key in _ACTION_COUNTS.items():
            if node_counts[key] != derived[action]:
                raise AssertionError(f"{label}.{key}: metrics={node_counts[key]} events={derived[action]}")
    unknown = sorted(set(tally) - set(counts))
    if unknown:
        raise AssertionError(f"events of nodes without counters: {unknown}")


@dataclass
class RunMetrics:
    """Aggregated counters and series of one simulation run."""

    scenario: str
    seed: int
    duration: int
    counts: dict[str, dict[str, int]]
    bft_latency: list[dict[str, Any]]
    static_false_positive_bft: int
    trust_final: dict[str, dict[str, float]]
    trust_timeline: list[tuple[int, str, str, float]]
    movements: list[dict[str, Any]]
    attacks: list[dict[str, Any]]

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_version": TRACE_VERSION,
            "scenario": self.scenario,
            "seed": self.seed,
            "duration": self.duration,
            "counts": self.counts,
            "bft_latency": self.bft_latency,
            "static_false_positive_bft": self.static_false_positive_bft,
            "trust_final": self.trust_final,
            "trust_timeline": [list(t) for t in self.trust_timeline],
            "movements": self.movements,
            "attacks": self.attacks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass
class RunResult:
    """A finished run. A run given an output directory streamed its records
    there: `events` and `rssi_rows` are None and `out_dir` names the files."""

    metrics: RunMetrics
    events: Optional[list[TraceEvent]]
    rssi_rows: Optional[list[RssiRow]]
    nodes: dict[str, NodeState]
    out_dir: Optional[str] = None

    def _events(self) -> list[TraceEvent]:
        if self.events is None:
            raise RuntimeError(
                f"the run streamed its records to {self.out_dir}; read events.jsonl and rssi.csv there"
            )
        return self.events

    def bft_events(self) -> list[TraceEvent]:
        return [e for e in self._events() if e.action == "send_bft"]

    def alert_events(self) -> list[TraceEvent]:
        return [e for e in self._events() if e.action == "send_alert"]

    def verify_counts(self) -> None:
        """Cross-check metric counters against the event log; raises on drift."""
        tally: dict[str, dict[str, int]] = {}
        _tally(self._events(), tally)
        _check_counts(self.metrics.counts, tally)


def sensor_reading(node_index: int, tick: int) -> bytes:
    """Deterministic fake temperature for payload bodies."""
    value = 20.0 + 2.0 * math.sin(2.0 * math.pi * tick / 300.0 + node_index)
    return struct.pack("<d", value)


class _AttackDriver:
    """Expands an attack spec into per-tick injected broadcasts."""

    def __init__(self, spec: AttackSpec, scenario: Scenario, index: int):
        self.spec = spec
        self.kind = spec.kind
        self.params = spec.params
        self.at = spec.at
        self.until = spec.params.get("until", scenario.duration)
        self.counter = 0
        self.victim = scenario.node(spec.params["victim"])
        self.grid = scenario.protocol.location_grid
        if self.kind in (AttackKind.IDENTITY_SPOOF, AttackKind.REPLAY):
            # physical transmitter registered in the channel, invisible to nodes
            self.phys_id = NodeId(bytes([0x02, 0, 0, 0, 0xAA, 0xF0 + index]))
            self.position = Location(*[float(c) for c in spec.params["attacker_position"]])
            self.label = f"attacker{index}"
        else:
            attacker = scenario.node(spec.params["attacker"])
            self.phys_id = attacker.mac
            self.position = attacker.position
            self.label = attacker.label
        self.captured: Optional[PayloadMessage] = None
        self.capture_at = spec.params.get("capture_at")

    def active(self, tick: int) -> bool:
        period = int(self.params.get("period", 1))
        if tick < self.at or tick > self.until:
            return False
        if self.kind is AttackKind.REPLAY:
            count = self.params.get("count")
            if count is not None and self.counter >= count:
                return False
        return (tick - self.at) % period == 0

    def suppresses_payload_of(self, label: str, tick: int) -> bool:
        return (
            self.kind is AttackKind.IDENTITY_SPOOF
            and bool(self.params.get("suppress_victim", True))
            and label == self.victim.label
            and tick >= self.at
        )

    def emit(self, tick: int, victim_index: int) -> Optional[Message]:
        if not self.active(tick):
            return None
        self.counter += 1
        if self.kind is AttackKind.IDENTITY_SPOOF:
            payload = sensor_reading(victim_index, tick)
            return PayloadMessage(
                sender=self.victim.mac,
                seq=1_000_000 + self.counter,
                sensor_type=self.victim.sensor_type,
                payload=payload,
                signed_payload=location_key(self.victim.position, payload, self.grid),
                timestamp=tick,
            )
        if self.kind is AttackKind.MALICIOUS_BFT:
            return BftMessage(
                sender=self.phys_id,
                sender_location=self.position,
                subject=self.victim.mac,
                measured_rssi=Rssi(float(self.params.get("fake_rssi", -90.0))),
                ref_seq=None,
                timestamp=tick,
            )
        # replay: re-broadcast the captured message unmodified
        return self.captured


class _MemorySink:
    """Keeps every record for a RunResult that carries them.

    A sink takes records through its `event` and `row` callables and is told
    when a tick ends; `finish` turns the run's metrics into its RunResult.
    Here both callables are bound `list.append`, so keeping a record costs
    no Python-level call.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.rows: list[RssiRow] = []
        self.event = self.events.append
        self.row = self.rows.append

    def end_tick(self) -> None:
        pass

    def bft_events(self) -> list[TraceEvent]:
        return [e for e in self.events if e.action == "send_bft"]

    def finish(self, metrics: RunMetrics, nodes: dict[str, NodeState]) -> RunResult:
        result = RunResult(metrics, self.events, self.rows, nodes)
        result.verify_counts()
        return result

    def close(self) -> None:
        pass


class _FileSink:
    """Streams records to rssi.csv and events.jsonl in `out_dir` as a run makes them.

    Records are buffered as they come, through bound `list.append` like the
    memory sink's, and encoded and written when a tick ends with a full
    buffer, so the run holds at most about one chunk of records. Of what
    it writes it keeps only the per-(node, action) tally for the count
    check and the `send_bft` events the metrics need. `write_metrics`
    writes the rest, closes both files, checks the tally and writes
    metrics.json last: a run that raises leaves no metrics.json.
    """

    def __init__(self, out_dir: str) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        self.paths = {
            "rssi": out / "rssi.csv",
            "events": out / "events.jsonl",
            "metrics": out / "metrics.json",
        }
        # a metrics.json left by an earlier run would vouch for these files
        self.paths["metrics"].unlink(missing_ok=True)
        self._rssi_fh = open(self.paths["rssi"], "w", encoding="utf-8", newline="\n")
        try:
            self._rssi_fh.write(RSSI_HEADER)
            self._events_fh = open(self.paths["events"], "w", encoding="utf-8", newline="\n")
        except BaseException:
            self._rssi_fh.close()
            raise
        self.events: list[TraceEvent] = []
        self.rows: list[RssiRow] = []
        self.event = self.events.append
        self.row = self.rows.append
        self.tally: dict[str, dict[str, int]] = {}
        self.bft: list[TraceEvent] = []

    def end_tick(self) -> None:
        if len(self.events) >= _WRITE_CHUNK_LINES:
            self._write_events()
        if len(self.rows) >= _WRITE_CHUNK_LINES:
            self._write_rows()

    def _write_events(self) -> None:
        events = self.events
        _write_lines(self._events_fh, events, TraceEvent.to_json)
        _tally(events, self.tally)
        self.bft += [e for e in events if e.action == "send_bft"]
        events.clear()  # the same list: `event` stays bound to it

    def _write_rows(self) -> None:
        _write_lines(self._rssi_fh, self.rows, RssiRow.to_csv)
        self.rows.clear()

    def bft_events(self) -> list[TraceEvent]:
        return self.bft + [e for e in self.events if e.action == "send_bft"]

    def write_metrics(self, metrics: RunMetrics) -> None:
        """Write the buffered records, close the trace files, check the counts, write metrics.json."""
        self._write_events()
        self._write_rows()
        self.close()
        _check_counts(metrics.counts, self.tally)
        with open(self.paths["metrics"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics.to_json() + "\n")

    def finish(self, metrics: RunMetrics, nodes: dict[str, NodeState]) -> RunResult:
        self.write_metrics(metrics)
        return RunResult(metrics, None, None, nodes, out_dir=self.out_dir)

    def close(self) -> None:
        self._rssi_fh.close()
        self._events_fh.close()


def run(scenario: Scenario, out_dir: Optional[str] = None, collect_rssi: bool = True) -> RunResult:
    """Execute a scenario.

    With `out_dir` the trace files are opened before the first tick and
    the records streamed into them, and the result carries no records;
    without it the result holds every event and RSSI row.
    """
    sink = _FileSink(out_dir) if out_dir is not None else _MemorySink()
    with closing(sink):
        return _simulate(scenario, sink, collect_rssi)


def _simulate(scenario: Scenario, sink: _MemorySink | _FileSink, collect_rssi: bool) -> RunResult:
    labels: dict[NodeId, str] = {spec.mac: spec.label for spec in scenario.nodes}
    index_of = {spec.label: i for i, spec in enumerate(scenario.nodes)}

    def label_of(node: NodeId) -> str:
        lab = labels.get(node)
        return lab if lab is not None else str(node)

    channel = RadioChannel(scenario.channel)
    nodes: dict[NodeId, NodeState] = {}
    for spec in scenario.nodes:
        state = NodeState(
            self_id=spec.mac,
            self_location=spec.position,
            sensor_type=spec.sensor_type,
            params=scenario.protocol,
            filter_params=scenario.filters,
            model=scenario.channel.model,
        )
        # initialisation phase result: every node knows every identity row
        for other in scenario.nodes:
            if other.mac != spec.mac:
                state.store.add_peer(
                    PeerRecord(
                        id=other.mac,
                        sensor_type=other.sensor_type,
                        location=other.position,
                    )
                )
        nodes[spec.mac] = state
        channel.register(spec.mac, spec.position)

    drivers = [_AttackDriver(spec, scenario, i) for i, spec in enumerate(scenario.attacks)]
    for driver in drivers:
        if driver.kind in (AttackKind.IDENTITY_SPOOF, AttackKind.REPLAY):
            channel.register(driver.phys_id, driver.position)
    replay_drivers = [d for d in drivers if d.kind is AttackKind.REPLAY]

    movements_by_tick: dict[int, list] = {}
    for mv in scenario.movements:
        movements_by_tick.setdefault(mv.at, []).append(mv)

    event, row = sink.event, sink.row
    counts = {spec.label: dict.fromkeys(_COUNT_KEYS, 0) for spec in scenario.nodes}
    for driver in drivers:
        counts.setdefault(driver.label, dict.fromkeys(_COUNT_KEYS, 0))
    trust_timeline: list[tuple[int, str, str, float]] = []
    trust_snapshot: dict[str, dict[str, float]] = {spec.label: {} for spec in scenario.nodes}
    node_order = sorted(nodes)

    def record_action(tick: int, node_label: str, action: Action) -> None:
        # most actions are Ignore("expired"), so it is tested first
        if isinstance(action, Ignore):
            event(
                TraceEvent(
                    tick, node_label, "ignore",
                    {"reason": action.reason, "context": action.context},
                )
            )
            counts[node_label]["ignored"] += 1
        elif isinstance(action, SendPayload):
            event(TraceEvent(tick, node_label, "send_payload", {"seq": action.message.seq}))
            counts[node_label]["payload_sent"] += 1
        elif isinstance(action, SendBft):
            m = action.message
            event(
                TraceEvent(
                    tick, node_label, "send_bft",
                    {
                        "subject": label_of(m.subject),
                        "measured_rssi": round(m.measured_rssi.value, 6),
                        "ref_seq": m.ref_seq,
                    },
                )
            )
            counts[node_label]["bft_sent"] += 1
        elif isinstance(action, SendAlert):
            m = action.message
            obj = label_of(m.object) if isinstance(m.object, NodeId) else m.object.hex()
            ref = None
            if m.ref_bft is not None:
                ref = {
                    "sender": label_of(m.ref_bft.sender),
                    "subject": label_of(m.ref_bft.subject),
                    "timestamp": m.ref_bft.timestamp,
                }
            event(
                TraceEvent(
                    tick, node_label, "send_alert",
                    {"alert_type": m.alert_type.name.lower(), "object": obj, "ref_bft": ref},
                )
            )
            counts[node_label]["alert_sent"] += 1
        elif isinstance(action, StoreTrusted):
            m = action.message
            event(
                TraceEvent(
                    tick, node_label, "store_trusted",
                    {"sender": label_of(m.sender), "seq": m.seq},
                )
            )
            counts[node_label]["trusted_stored"] += 1

    pending: list[tuple[NodeId, Message]] = []  # broadcasts queued for next tick

    for tick in range(scenario.duration):
        # 1. movements and attack captures
        for mv in movements_by_tick.get(tick, ()):
            mac = scenario.node(mv.node).mac
            channel.move(mac, mv.to, tick)
            nodes[mac].on_moved(mv.to, tick, mv.announce)

        # 2. collect this tick's broadcasts: payloads, queued actions, attacks
        broadcasts: list[tuple[NodeId, Message]] = []
        for spec in scenario.nodes:
            if tick % spec.payload_period != 0:
                continue
            if any(d.suppresses_payload_of(spec.label, tick) for d in drivers):
                continue
            state = nodes[spec.mac]
            for action in state.emit_payload(sensor_reading(index_of[spec.label], tick), tick):
                assert isinstance(action, SendPayload)
                record_action(tick, spec.label, action)
                broadcasts.append((spec.mac, action.message))
                if replay_drivers:
                    for d in replay_drivers:
                        if d.victim.mac == spec.mac:
                            cap_at = d.capture_at if d.capture_at is not None else 0
                            if tick <= cap_at or d.captured is None:
                                d.captured = action.message
        broadcasts.extend(pending)
        pending = []
        for driver in drivers:
            injected = driver.emit(tick, index_of[driver.victim.label])
            if injected is not None:
                broadcasts.append((driver.phys_id, injected))
                if isinstance(injected, BftMessage):
                    record_action(tick, driver.label, SendBft(injected))
                elif isinstance(injected, PayloadMessage):
                    record_action(tick, driver.label, SendPayload(injected))

        # 3. channel delivery
        inboxes: dict[NodeId, list[tuple[Message, Rssi]]] = {mac: [] for mac in node_order}
        for phys_sender, msg in broadcasts:
            for receiver, rssi in channel.broadcast(phys_sender, msg, tick):
                inbox = inboxes.get(receiver)
                if inbox is not None:
                    inbox.append((msg, rssi))

        # 4. protocol rounds, ascending node id
        for mac in node_order:
            state = nodes[mac]
            node_label = labels[mac]
            inbox = inboxes[mac]
            for msg, _rssi in inbox:
                if isinstance(msg, PayloadMessage):
                    counts[node_label]["payload_recv"] += 1
                elif isinstance(msg, BftMessage):
                    counts[node_label]["bft_recv"] += 1
                elif isinstance(msg, AlertMessage):
                    counts[node_label]["alert_recv"] += 1
            for action in state.tick(inbox, now=tick):
                record_action(tick, node_label, action)
                if isinstance(action, (SendBft, SendAlert)):
                    pending.append((mac, action.message))
            if collect_rssi:
                smoothed_rssi = state.smoothed_rssi
                for msg, rssi in inbox:
                    row(
                        RssiRow(
                            tick,
                            node_label,
                            label_of(msg.sender),
                            rssi.value,
                            smoothed_rssi(msg.sender),
                        )
                    )

        # 5. trust timeline
        for mac in node_order:
            observer = labels[mac]
            snap = trust_snapshot[observer]
            for peer_id, rec in nodes[mac].store.peers.items():
                if peer_id == mac:
                    continue
                peer_label = label_of(peer_id)
                value = rec.trust.value
                if snap.get(peer_label) != value:
                    snap[peer_label] = value
                    trust_timeline.append((tick, observer, peer_label, value))
        sink.end_tick()

    metrics = _build_metrics(scenario, sink.bft_events(), counts, trust_snapshot, trust_timeline)
    return sink.finish(metrics, {labels[mac]: nodes[mac] for mac in node_order})


def _build_metrics(
    scenario: Scenario,
    bft_sends: list[TraceEvent],
    counts: dict[str, dict[str, int]],
    trust_snapshot: dict[str, dict[str, float]],
    trust_timeline: list[tuple[int, str, str, float]],
) -> RunMetrics:
    latency: list[dict[str, Any]] = []
    for mv in scenario.movements:
        for spec in scenario.nodes:
            if spec.label == mv.node:
                continue
            first = next(
                (
                    e.tick
                    for e in bft_sends
                    if e.node == spec.label
                    and e.details["subject"] == mv.node
                    and mv.at < e.tick <= mv.at + MOVEMENT_SETTLE_WINDOW
                ),
                None,
            )
            latency.append(
                {
                    "movement_tick": mv.at,
                    "mover": mv.node,
                    "observer": spec.label,
                    "first_bft_tick": first,
                    "latency": (first - mv.at) if first is not None else None,
                }
            )

    def in_disturbed_window(tick: int) -> bool:
        for mv in scenario.movements:
            if mv.at < tick <= mv.at + MOVEMENT_SETTLE_WINDOW:
                return True
        for attack in scenario.attacks:
            if tick > attack.at:
                return True
        return False

    static_fp = sum(1 for e in bft_sends if not in_disturbed_window(e.tick))

    return RunMetrics(
        scenario=scenario.name,
        seed=scenario.seed,
        duration=scenario.duration,
        counts=counts,
        bft_latency=latency,
        static_false_positive_bft=static_fp,
        trust_final={obs: dict(sorted(snap.items())) for obs, snap in trust_snapshot.items()},
        trust_timeline=trust_timeline,
        movements=[
            {"node": m.node, "at": m.at, "to": list(m.to.as_tuple()), "announce": m.announce}
            for m in scenario.movements
        ],
        attacks=[{"type": a.kind.value, "at": a.at, "params": dict(a.params)} for a in scenario.attacks],
    )


def _write_lines(fh: TextIO, records: list, line: Callable[[Any], str]) -> None:
    """Write line(record) + newline per record, in one write call."""
    fh.write("".join([f"{line(record)}\n" for record in records]))


def write_traces(result: RunResult, out_dir: str) -> dict[str, Path]:
    """Write rssi.csv, events.jsonl and metrics.json of an in-memory result
    by replaying its records through the file sink; returns the paths."""
    events = result._events()
    rows = result.rssi_rows
    with closing(_FileSink(out_dir)) as sink:
        for start in range(0, max(len(events), len(rows)), _WRITE_CHUNK_LINES):
            sink.events.extend(events[start:start + _WRITE_CHUNK_LINES])
            sink.rows.extend(rows[start:start + _WRITE_CHUNK_LINES])
            sink.end_tick()
        sink.write_metrics(result.metrics)
    return sink.paths
