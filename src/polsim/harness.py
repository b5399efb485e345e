"""Discrete-time event loop binding protocol nodes to the radio channel.

One tick is one protocol round: due movements and attacks are applied, due
payload emissions and the previous tick's protocol messages are broadcast,
the channel delivers them, every node runs its round, and the messages it
returns queue for the next tick. The whole run is a pure function of
the scenario (seed included); traces are byte-stable across runs.

Trace outputs, one line per record:
  rssi.csv     one row per reception: tick,receiver,sender,rssi_raw,rssi_smoothed
  events.jsonl one JSON object per node action: {tick, node, action, details}
  metrics.json run summary, cross-checked against the event log, written last

One sink encodes every record into its line as the run makes it and joins
the lines into text chunks of at least 4,096 lines. Given an output
directory it writes each chunk into its file; without one the RunResult
holds the same chunks, `events` parses their lines on demand, and
`write_traces` writes them to the files a streamed run would have written.
"""

from __future__ import annotations

import json
import math
import struct
from collections import defaultdict
from contextlib import closing
from dataclasses import asdict, dataclass
from functools import partial
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, TextIO

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
from .protocol import Expired, Ignore, NodeState, StoreTrusted
from .scenario import AttackKind, AttackSpec, Scenario, transmitter_id
from .topology import PeerRecord

TRACE_VERSION = 1
MOVEMENT_SETTLE_WINDOW = 120  # ticks after a movement not counted as static
# lines joined into one chunk of text: one write or one str per line costs a
# call or an object per line, one buffer of a whole file its size at once
_WRITE_CHUNK_LINES = 4096


@dataclass(slots=True)
class TraceEvent:
    tick: int
    node: str
    action: str
    details: dict[str, Any]

    def to_json(self) -> str:
        return json.dumps(
            {"tick": self.tick, "node": self.node, "action": self.action, "details": self.details},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> TraceEvent:
        return cls(**json.loads(line))


def chunk_lines(chunks: Iterable[str]) -> Iterator[str]:
    """The lines of text chunks that each end in "\n", without their "\n",
    split one chunk at a time."""
    for chunk in chunks:
        # not splitlines, which also splits on \x85 and \u2028 in a label
        lines = chunk.split("\n")
        lines.pop()  # the "" after the chunk's last "\n"
        yield from lines


class TraceEvents:
    """The TraceEvents of a run's held events.jsonl chunks, parsed anew on
    each iteration, a chunk at a time: a list of the events or of the lines
    would hold several times the chunks' memory."""

    __slots__ = ("_chunks",)

    def __init__(self, chunks: list[str]) -> None:
        self._chunks = chunks

    def __len__(self) -> int:
        # JSON escapes a line end inside a value, so each "\n" ends a line
        return sum(chunk.count("\n") for chunk in self._chunks)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(TraceEvent.from_json, chunk_lines(self._chunks))


# the event action behind each sent/stored/ignored counter, in check order
_ACTION_COUNTS = {
    "send_payload": "payload_sent",
    "send_bft": "bft_sent",
    "send_alert": "alert_sent",
    "store_trusted": "trusted_stored",
    "ignore": "ignored",
}
RSSI_HEADER = "tick,receiver,sender,rssi_raw,rssi_smoothed\n"
# the received counter of each message type
_RECV_COUNTS = {PayloadMessage: "payload_recv", BftMessage: "bft_recv", AlertMessage: "alert_recv"}
_COUNT_KEYS = (*_ACTION_COUNTS.values(), *_RECV_COUNTS.values())


def _tally(events: Iterable[TraceEvent]) -> defaultdict[str, dict[str, int]]:
    """Count each event in tally[node][action]; an unknown action raises KeyError."""
    tally: defaultdict[str, dict[str, int]] = defaultdict(partial(dict.fromkeys, _ACTION_COUNTS, 0))
    for e in events:
        tally[e.node][e.action] += 1
    return tally


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
        return {"trace_version": TRACE_VERSION, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass
class RunResult:
    """A finished run. A run without an output directory holds its trace as
    text chunks, `event_chunks` and `rssi_chunks`: joined, they are the text
    of events.jsonl and of rssi.csv after its header, and each chunk ends a
    line. `events` parses the event lines on each iteration. A run given an
    output directory streamed its chunks there: `event_chunks`,
    `rssi_chunks` and `events` are None and `out_dir` names the files."""

    metrics: RunMetrics
    nodes: dict[str, NodeState]
    event_chunks: Optional[list[str]] = None
    rssi_chunks: Optional[list[str]] = None
    out_dir: Optional[str] = None

    @property
    def events(self) -> Optional[TraceEvents]:
        return None if self.event_chunks is None else TraceEvents(self.event_chunks)

    def _held(self) -> tuple[list[str], list[str]]:
        if self.event_chunks is None or self.rssi_chunks is None:
            raise RuntimeError(
                f"the run streamed its records to {self.out_dir}; read events.jsonl and rssi.csv there"
            )
        return self.event_chunks, self.rssi_chunks

    def _action_events(self, action: str) -> list[TraceEvent]:
        # a line starts with its first sorted key, "action"
        prefix = f'{{"action":"{action}",'
        lines = chunk_lines(self._held()[0])
        return [TraceEvent.from_json(line) for line in lines if line.startswith(prefix)]

    def bft_events(self) -> list[TraceEvent]:
        return self._action_events("send_bft")

    def alert_events(self) -> list[TraceEvent]:
        return self._action_events("send_alert")


def sensor_reading(node_index: int, tick: int) -> bytes:
    """Deterministic fake temperature for payload bodies."""
    value = 20.0 + 2.0 * math.sin(2.0 * math.pi * tick / 300.0 + node_index)
    return struct.pack("<d", value)


class _AttackDriver:
    """Expands an attack spec into per-tick injected broadcasts."""

    def __init__(self, spec: AttackSpec, scenario: Scenario, index: int, channel: RadioChannel):
        self.kind = spec.kind
        self.params = spec.params
        self.at = spec.at
        self.until = spec.params.get("until", scenario.duration)
        self.period = spec.params.get("period", 1)
        self.counter = 0
        self.victim = scenario.node(spec.params["victim"])
        self.victim_index = scenario.nodes.index(self.victim)
        self.grid = scenario.protocol.location_grid
        if self.kind is AttackKind.MALICIOUS_BFT:
            attacker = scenario.node(spec.params["attacker"])
            self.phys_id = attacker.mac
            self.position = attacker.position
            self.label = attacker.label
        else:
            # physical transmitter registered in the channel, invisible to nodes
            self.phys_id = transmitter_id(index)
            self.position = Location(*[float(c) for c in spec.params["attacker_position"]])
            self.label = f"attacker{index}"
            channel.register(self.phys_id, self.position)
        self.captured: Optional[PayloadMessage] = None
        self.capture_at = spec.params.get("capture_at", 0)

    def active(self, tick: int) -> bool:
        if tick < self.at or tick > self.until:
            return False
        if self.kind is AttackKind.REPLAY:
            count = self.params.get("count")
            if count is not None and self.counter >= count:
                return False
        return (tick - self.at) % self.period == 0

    def silences(self, tick: int) -> bool:
        """Does this spoofer hold back its victim's own payload at `tick`?
        It does while it is under way, `at <= tick <= until`."""
        return (
            self.kind is AttackKind.IDENTITY_SPOOF
            and self.at <= tick <= self.until
            and self.params.get("suppress_victim", True)
        )

    def overhear(self, payloads: list[tuple[NodeId, Message]], tick: int) -> None:
        """A replayer keeps its victim's payload among the tick's node payloads
        while `tick <= capture_at`, or the first one after."""
        if self.kind is AttackKind.REPLAY and (tick <= self.capture_at or self.captured is None):
            for sender, msg in payloads:
                if sender == self.victim.mac:
                    self.captured = msg

    def emit(self, tick: int) -> Optional[Message]:
        if not self.active(tick):
            return None
        self.counter += 1
        if self.kind is AttackKind.IDENTITY_SPOOF:
            payload = sensor_reading(self.victim_index, tick)
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


# an rssi.csv row: the head "tick,receiver,", the sender label, the raw
# value and the smoothed value, both to 6 decimals; the second template
# leaves the smoothed column empty
_ROW = "%s%s,%.6f,%.6f\n"
_ROW_UNSMOOTHED = "%s%s,%.6f,\n"


class _ExpiredHeads(dict):
    """The head of a sender's `expired` ignore line, up to the '#' of its
    context `sender#seq`, by sender id; made on a sender's first line. The
    sender's MAC text is hex digits and colons: nothing to escape."""

    def __missing__(self, sender: NodeId) -> str:
        head = self[sender] = f'{{"action":"ignore","details":{{"context":"{sender.hex(":")}#'
        return head


class _LineSink:
    """Encodes each record of a run into its trace line as the run makes it.

    A sink takes records through one callable per record shape the run
    makes in bulk, `ignore`, `expired`, `payload_sent`, `store_trusted`
    and `row`, and through `event` for the rare kinds; it is told when a
    tick ends, and `finish` turns the run's metrics into its RunResult.
    The bulk shapes fill one template each, the exact encoding
    `TraceEvent.to_json` gives their fields; `expired` starts each line
    from its sender's head, which it makes once per sender, and ends it
    with the payload's seq and one tail per call: the line `ignore` makes
    for that payload's `expired` record; and `event` encodes a `TraceEvent`
    through `to_json`. `row` keeps one rssi.csv row template and its values
    per reception of a receiver's round. Of what it encodes the sink also
    keeps the per-(node, action) tally that `finish` checks the counters
    against.

    A tick that ends with 4,096 or more event lines or rows hands them on
    as one chunk, and `finish` the rest, the same chunks on both paths.
    With `out_dir` each chunk is written to events.jsonl or rssi.csv, so
    the run holds about one chunk at most; without it the sink keeps the
    chunks, plain strings that the cyclic GC does not track, for the
    RunResult. `finish` closes both files, checks the tally and writes
    metrics.json last: a run that raises leaves no metrics.json.
    """

    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.out_dir = out_dir
        # the event lines of the chunk being formed
        self.event_lines: list[str] = []
        # the rows not yet encoded: one template each, and their values in order
        self._row_templates: list[str] = []
        self._row_values: list[Any] = []
        self._expired_heads = _ExpiredHeads()
        self.tally = _tally(())
        self._events_fh: Optional[TextIO] = None
        self._rssi_fh: Optional[TextIO] = None
        # where a formed chunk goes: the held lists, or the files' writes
        self.event_chunks: list[str] = []
        self.rssi_chunks: list[str] = []
        self._put_events = self.event_chunks.append
        self._put_rows = self.rssi_chunks.append
        if out_dir is None:
            return
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
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
        self._put_events = self._events_fh.write
        self._put_rows = self._rssi_fh.write

    def event(self, e: TraceEvent) -> None:
        self.event_lines.append(f"{e.to_json()}\n")
        self.tally[e.node][e.action] += 1  # an unknown action raises KeyError

    def ignore(self, tick: int, node: str, reason: str, context: str) -> None:
        self.event_lines.append(
            f'{{"action":"ignore","details":{{"context":{_escape(context)},"reason":{_escape(reason)}}},'
            f'"node":{_escape(node)},"tick":{tick!r}}}\n'
        )
        self.tally[node]["ignore"] += 1

    def expired(self, tick: int, node: str, messages: tuple[PayloadMessage, ...]) -> None:
        heads = self._expired_heads
        tail = f'","reason":"expired"}},"node":{_escape(node)},"tick":{tick!r}}}\n'
        self.event_lines.extend([f"{heads[m.sender]}{m.seq}{tail}" for m in messages])
        self.tally[node]["ignore"] += len(messages)

    def payload_sent(self, tick: int, node: str, seq: int) -> None:
        self.event_lines.append(
            f'{{"action":"send_payload","details":{{"seq":{seq!r}}},"node":{_escape(node)},"tick":{tick!r}}}\n'
        )
        self.tally[node]["send_payload"] += 1

    def store_trusted(self, tick: int, node: str, sender: str, seq: int) -> None:
        self.event_lines.append(
            f'{{"action":"store_trusted","details":{{"sender":{_escape(sender)},"seq":{seq!r}}},'
            f'"node":{_escape(node)},"tick":{tick!r}}}\n'
        )
        self.tally[node]["store_trusted"] += 1

    def row(
        self,
        tick: int,
        receiver: str,
        inbox: list[tuple[Message, float]],
        labels: dict[NodeId, str],
        peers: dict[NodeId, PeerRecord],
    ) -> None:
        """The rssi.csv rows of one receiver's round, one per (message, raw
        RSSI) of its inbox: the sender's label from `labels`, and the smoothed
        value from the `smoothed` (tick, value) of the sender's row in
        `peers`, empty when the sender has no row or the row no value. The
        rows are kept as templates and values until their chunk is encoded."""
        head = f"{tick},{receiver},"
        templates = self._row_templates
        values = self._row_values
        for msg, raw in inbox:
            sender = msg.sender
            if (rec := peers.get(sender)) is None or (entry := rec.smoothed) is None:
                templates.append(_ROW_UNSMOOTHED)
                values += (head, labels[sender], raw)
            else:
                templates.append(_ROW)
                values += (head, labels[sender], raw, entry[1])

    def end_tick(self, least: int = _WRITE_CHUNK_LINES) -> None:
        """Hand on as one chunk each buffer of at least `least` lines: the
        rows encoded through one `%`, the event lines joined."""
        if len(self._row_templates) >= least:
            self._put_rows("".join(self._row_templates) % tuple(self._row_values))
            self._row_templates.clear()
            self._row_values.clear()
        if len(self.event_lines) >= least:
            self._put_events("".join(self.event_lines))
            self.event_lines.clear()

    def finish(self, metrics: RunMetrics, nodes: dict[str, NodeState]) -> RunResult:
        """Hand on the last chunks, close the files, check the counters
        against the tally and make the RunResult; with an output directory
        metrics.json is written after the check."""
        self.end_tick(1)
        self.close()
        _check_counts(metrics.counts, self.tally)
        if self.out_dir is None:
            return RunResult(metrics, nodes, self.event_chunks, self.rssi_chunks)
        with open(self.paths["metrics"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics.to_json() + "\n")
        return RunResult(metrics, nodes, out_dir=self.out_dir)

    def close(self) -> None:
        if self._events_fh is not None:
            self._events_fh.close()
        if self._rssi_fh is not None:
            self._rssi_fh.close()


def run(scenario: Scenario, out_dir: Optional[str] = None, collect_rssi: bool = True) -> RunResult:
    """Execute a scenario.

    With `out_dir` the trace files are opened before the first tick and
    the trace chunks streamed into them, and the result carries none;
    without it the result holds every chunk, the same text the files would
    hold.
    """
    sink = _LineSink(out_dir)
    with closing(sink):
        return _simulate(scenario, sink, collect_rssi)


class _Labels(dict):
    """Trace label by node id; an id of no node reads as its MAC text."""

    def __missing__(self, node: NodeId) -> str:
        return str(node)


def _simulate(scenario: Scenario, sink: _LineSink, collect_rssi: bool) -> RunResult:
    labels = _Labels((spec.mac, spec.label) for spec in scenario.nodes)

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
                state.store.add_peer(PeerRecord(id=other.mac, location=other.position))
        nodes[spec.mac] = state
        channel.register(spec.mac, spec.position)

    drivers = [_AttackDriver(spec, scenario, i, channel) for i, spec in enumerate(scenario.attacks)]

    movements_by_tick: dict[int, list] = {}
    for mv in scenario.movements:
        movements_by_tick.setdefault(mv.at, []).append(mv)

    event, ignore, expired, payload_sent, store_trusted, row = (
        sink.event, sink.ignore, sink.expired, sink.payload_sent, sink.store_trusted, sink.row
    )
    counts = {spec.label: dict.fromkeys(_COUNT_KEYS, 0) for spec in scenario.nodes}
    counts_of = {spec.mac: counts[spec.label] for spec in scenario.nodes}
    for driver in drivers:
        counts.setdefault(driver.label, dict.fromkeys(_COUNT_KEYS, 0))
    bft_sends: list[tuple[int, str, str]] = []  # (tick, sender label, subject label)
    trust_timeline: list[tuple[int, str, str, float]] = []
    trust_snapshot: dict[NodeId, dict[NodeId, float]] = {spec.mac: {} for spec in scenario.nodes}
    node_order = sorted(nodes)

    def record(tick: int, label: str, out: Message | StoreTrusted) -> None:
        """Write the trace record and counter of one node or attacker output
        (a round's Expired and Ignore go to their sink callables directly)."""
        cls = type(out)
        if cls is PayloadMessage:
            payload_sent(tick, label, out.seq)
            counts[label]["payload_sent"] += 1
        elif cls is BftMessage:
            subject = labels[out.subject]
            bft_sends.append((tick, label, subject))
            event(
                TraceEvent(
                    tick, label, "send_bft",
                    {
                        "subject": subject,
                        "measured_rssi": round(out.measured_rssi.value, 6),
                        "ref_seq": out.ref_seq,
                    },
                )
            )
            counts[label]["bft_sent"] += 1
        elif cls is AlertMessage:
            ref = None
            if out.ref_bft is not None:
                ref = {
                    "sender": labels[out.ref_bft.sender],
                    "subject": labels[out.ref_bft.subject],
                    "timestamp": out.ref_bft.timestamp,
                }
            event(
                TraceEvent(
                    tick, label, "send_alert",
                    {"alert_type": out.alert_type.name.lower(), "object": labels[out.object], "ref_bft": ref},
                )
            )
            counts[label]["alert_sent"] += 1
        elif cls is StoreTrusted:
            m = out.message
            store_trusted(tick, label, labels[m.sender], m.seq)
            counts[label]["trusted_stored"] += 1

    pending: list[tuple[NodeId, Message]] = []  # broadcasts queued for next tick

    for tick in range(scenario.duration):
        # 1. movements
        for mv in movements_by_tick.get(tick, ()):
            mac = scenario.node(mv.node).mac
            channel.move(mac, mv.to)
            nodes[mac].on_moved(mv.to, tick, mv.announce)

        # 2. collect this tick's broadcasts: payloads, queued actions, attacks
        broadcasts: list[tuple[NodeId, Message]] = []
        silenced = {d.victim.mac for d in drivers if d.silences(tick)}
        for i, spec in enumerate(scenario.nodes):
            if tick % spec.payload_period != 0 or spec.mac in silenced:
                continue
            msg = nodes[spec.mac].emit_payload(sensor_reading(i, tick), tick)
            record(tick, spec.label, msg)
            broadcasts.append((spec.mac, msg))
        for driver in drivers:
            driver.overhear(broadcasts, tick)
        broadcasts.extend(pending)
        pending = []
        for driver in drivers:
            injected = driver.emit(tick)
            if injected is not None:
                broadcasts.append((driver.phys_id, injected))
                record(tick, driver.label, injected)

        # 3. channel delivery, counted per receiver by message type
        inboxes: dict[NodeId, list[tuple[Message, float]]] = {mac: [] for mac in node_order}
        for phys_sender, msg in broadcasts:
            received = _RECV_COUNTS[type(msg)]
            for receiver, rssi in channel.broadcast(phys_sender, msg, tick):
                inbox = inboxes.get(receiver)
                if inbox is not None:
                    inbox.append((msg, rssi))
                    counts_of[receiver][received] += 1

        # 4. protocol rounds, ascending node id
        for mac in node_order:
            state = nodes[mac]
            node_label = labels[mac]
            inbox = inboxes[mac]
            node_counts = counts[node_label]
            for out in state.tick(inbox, now=tick):
                # a round that expires payloads returns one Expired, and most do
                cls = type(out)
                if cls is Expired:
                    expired(tick, node_label, out.messages)
                    node_counts["ignored"] += len(out.messages)
                    continue
                if cls is Ignore:
                    ignore(tick, node_label, out.reason, out.context)
                    node_counts["ignored"] += 1
                    continue
                record(tick, node_label, out)
                if cls is BftMessage or cls is AlertMessage:
                    pending.append((mac, out))
            if collect_rssi:
                row(tick, node_label, inbox, labels, state.store.peers)

        # 5. trust timeline, read from the stores whose trust changed
        for mac in node_order:
            store = nodes[mac].store
            if not store.trust_changed:
                continue
            store.trust_changed = False
            snap = trust_snapshot[mac]
            for peer_id, rec in store.peers.items():
                value = rec.trust.value
                if snap.get(peer_id) != value:
                    snap[peer_id] = value
                    trust_timeline.append((tick, labels[mac], labels[peer_id], value))
        sink.end_tick()

    trust_final = {
        labels[mac]: dict(sorted((labels[peer_id], value) for peer_id, value in snap.items()))
        for mac, snap in trust_snapshot.items()
    }
    metrics = _build_metrics(scenario, bft_sends, counts, trust_final, trust_timeline)
    return sink.finish(metrics, {labels[mac]: nodes[mac] for mac in node_order})


def _build_metrics(
    scenario: Scenario,
    bft_sends: list[tuple[int, str, str]],
    counts: dict[str, dict[str, int]],
    trust_final: dict[str, dict[str, float]],
    trust_timeline: list[tuple[int, str, str, float]],
) -> RunMetrics:
    latency: list[dict[str, Any]] = []
    for mv in scenario.movements:
        for spec in scenario.nodes:
            if spec.label == mv.node:
                continue
            first = next(
                (
                    tick
                    for tick, sender, subject in bft_sends
                    if sender == spec.label
                    and subject == mv.node
                    and mv.at < tick <= mv.at + MOVEMENT_SETTLE_WINDOW
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

    static_fp = sum(1 for tick, _, _ in bft_sends if not in_disturbed_window(tick))

    return RunMetrics(
        scenario=scenario.name,
        seed=scenario.seed,
        duration=scenario.duration,
        counts=counts,
        bft_latency=latency,
        static_false_positive_bft=static_fp,
        trust_final=trust_final,
        trust_timeline=trust_timeline,
        movements=[m.to_dict() for m in scenario.movements],
        attacks=[a.to_dict() for a in scenario.attacks],
    )


def write_traces(result: RunResult, out_dir: str) -> dict[str, Path]:
    """Write the held chunks of an in-memory result to rssi.csv and
    events.jsonl and its metrics.json last, through the sink a streamed run
    writes with, its counters checked against the lines again; returns the
    paths."""
    event_chunks, rssi_chunks = result._held()
    with closing(_LineSink(out_dir)) as sink:
        sink.tally = _tally(TraceEvents(event_chunks))
        sink._events_fh.writelines(event_chunks)
        sink._rssi_fh.writelines(rssi_chunks)
        sink.finish(result.metrics, result.nodes)
    return sink.paths
