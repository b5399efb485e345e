"""Trace identity: the built-ins at seed 1 reproduce the benchmark's reference bytes.

The SHA-256 of every trace file is read from `perfbench/references.json`, the
one stored copy of the reference hashes, so a change that alters a single
byte of `events.jsonl` or `rssi.csv` fails here as well as in the bench. The
offline filter sweep over the fig7 trace is held to the bench's hashes too,
and each built-in's `metrics.json` at seeds 1-3 to a hash pinned in this
file, as are the three files of four attack runs that the references do not
cover. One dense run is held to the bench's hash without an output
directory, as the bench runs it, so the lines a run holds in memory, parsed
through `events` and encoded again, are checked too.
The trust timeline, which only `metrics.json` holds, is also checked
against a reference that reads every node's trust after every round.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import polsim.localization
import polsim.messages
from polsim.cli import main
from polsim.filters import FILTER_NAMES
from polsim.harness import run
from polsim.protocol import NodeState
from polsim.scenario import BUILTIN_NAMES, Scenario, builtin_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCES = PERFBENCH / "references.json"
TICKS = 900


@pytest.fixture(scope="module")
def references() -> dict[str, dict[str, str]]:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_traces_match_reference(name, references, tmp_path):
    scenario = builtin_scenario(name, seed=1)
    assert scenario.duration == TICKS
    run(scenario, out_dir=str(tmp_path))
    want = references[f"{name}/seed=1/ticks={TICKS}"]
    assert set(want) == {"events.jsonl", "rssi.csv"}
    for file_name, digest in want.items():
        got = hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest()
        assert got == digest, f"{name} {file_name} differs from the reference trace"


@pytest.mark.parametrize("name, key_digests", [("static-honest", False), ("paper-fig7", True)])
def test_location_digests_computed_only_when_read(name, key_digests, references, monkeypatch, tmp_path):
    """A run without a solve reads no payload's location key, so it computes
    no digest; fig7 verifies payloads and so computes some; both still write
    the reference traces."""
    calls = {"key": 0, "cell": 0}

    def counting(kind, real):
        def counted(*args):
            calls[kind] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(polsim.messages, "cell_digest", counting("key", polsim.messages.cell_digest))
    monkeypatch.setattr(polsim.localization, "cell_digest", counting("cell", polsim.localization.cell_digest))
    run(builtin_scenario(name, seed=1), out_dir=str(tmp_path))
    assert (calls["key"] > 0) is key_digests and (calls["cell"] > 0) is key_digests, calls
    for file_name, digest in references[f"{name}/seed=1/ticks={TICKS}"].items():
        assert hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest() == digest


def test_memory_sink_run_matches_reference(references):
    """dense-8 as the bench's dense workload runs it: lines held in memory, no RSSI rows."""
    spec = importlib.util.spec_from_file_location("perfbench_dense", PERFBENCH / "dense.py")
    dense = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dense)
    result = run(Scenario.from_dict(dense.dense_document(8, 1, 1, 100)), collect_rssi=False)
    events = "".join(f"{event.to_json()}\n" for event in result.events)
    want = references["dense-8/layout=1/seed=1/ticks=100"]
    assert set(want) == {"events.jsonl"}
    assert hashlib.sha256(events.encode("utf-8")).hexdigest() == want["events.jsonl"]


# SHA-256 of metrics.json of each built-in per seed; the bench's references
# hold no metrics.json, so its bytes are pinned here
METRICS_SHA256 = {
    "paper-fig7": {
        1: "16399e9f5966c025da2ff61116f130054cf7af5fe06496608db095789426cef0",
        2: "5dd487be8147e3eddde00f8071b00f8671f56e19f17c6e93b39b2606eb265268",
        3: "db90429d088194ecf945e240f4b0c439eb0b14b4b66c0c562b752f692e88b0f6",
    },
    "static-honest": {
        1: "b8fd13595dfbdf27addd6ea457e55ba8cf012b9c265cec9bbf54e25292c3b8c4",
        2: "7b3641e016f1e705d769ec68eaacc8e7027062fcdced4e95b30233ef68dcd88a",
        3: "447821d4e7ce56c37cc80456308cd992bbdd786d619ce89d0484f0a862fd28ca",
    },
    "spoof-attack": {
        1: "f575918f4266178cc619d89c3b55a50917ee3684db712739ef7687763f7bc5da",
        2: "584887633a6a77778403d85c2edb4ef1d1648ab102f665dac7dc46b9da107a81",
        3: "9027306dc406de03ed34ffcb302bcc0b0cd030e85b1bbfd2c911f21adbd6d772",
    },
    "malicious-bft": {
        1: "56e48f372e4c19b700a1001929577a10561a3187835e690c4fc9a6a8eb6c0028",
        2: "5151eb6febc04a70637fbc3bbbf75910d8c472eeb3d10d73500b4f60367efc22",
        3: "f915e0b82a8f63a81829dabfbb121d7f1d8a827412de33bebb1005cbfc494512",
    },
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_metrics_match_pinned_hash(name, tmp_path):
    for seed, digest in METRICS_SHA256[name].items():
        out = tmp_path / f"seed={seed}"
        run(builtin_scenario(name, seed=seed), out_dir=str(out))
        got = hashlib.sha256((out / "metrics.json").read_bytes()).hexdigest()
        assert got == digest, f"{name} seed {seed} metrics.json differs from the pinned bytes"


# Attack paths the built-ins leave unrun, each on static-honest at seed 1
ATTACKS = {
    "replay": {
        "type": "replay", "at": 300,
        "params": {"victim": "n2", "attacker_position": [4.0, 4.0, 0.0], "period": 10},
    },
    "replay-capture": {
        "type": "replay", "at": 300,
        "params": {"victim": "n2", "attacker_position": [4.0, 4.0, 0.0], "period": 10,
                   "capture_at": 250, "count": 20},
    },
    "spoof-no-suppress": {
        "type": "identity_spoof", "at": 400,
        "params": {"victim": "n1", "attacker_position": [0.0, -5.0, -1.0], "period": 1,
                   "suppress_victim": False, "until": 600},
    },
    "bft-period-1": {
        "type": "malicious_bft", "at": 200,
        "params": {"attacker": "n4", "victim": "n2", "fake_rssi": -90.0, "period": 1},
    },
}


def attack_run(name: str) -> Scenario:
    """static-honest at seed 1 with the attack `name` of ATTACKS."""
    doc = builtin_scenario("static-honest", seed=1).to_dict()
    doc["attacks"] = [ATTACKS[name]]
    return Scenario.from_dict(doc)


# SHA-256 of each file the attack runs write
ATTACK_SHA256 = {
    "replay": {
        "events.jsonl": "f1d45f0f554e339971811a68b8a82f0dd13daff05593d540485897e0b6d3843b",
        "rssi.csv": "6bf3ef676764a0c45fb8aa9fb2eddecd45c5f10bb2a5b32460b1c8eb0345b027",
        "metrics.json": "adb417b4d74f0f2247632c05e14f68ad5989cc817b037c1c73573a7d150a3079",
    },
    "replay-capture": {
        "events.jsonl": "4eb7eea9830472b0f638a6c0e7200434f5dff38349202de23cf1613f354bfad1",
        "rssi.csv": "ba5d31626317d6fa74acd1cd864ef82ecf37dfc04067f2e8c6888dab2366ff40",
        "metrics.json": "52947ae6acdcfcb63ab65acdfb88f5a669182b99f7facdd6c63d623aed719958",
    },
    "spoof-no-suppress": {
        "events.jsonl": "339ee1bd9652fdc45d734a9d930d12d487993e2bd101a13654adc7939f13814c",
        "rssi.csv": "e0c3fe1fdc56b5b74e7f1947df46459a03068e78960ec805c768147f5f3666e8",
        "metrics.json": "8164a4687734b404dd71ebd2fc658215bb165bd092d4355b44a981e3895c92d1",
    },
    "bft-period-1": {
        "events.jsonl": "4f0bfa264e1ac4a4110f0d048df63bc9bcbf0231721f100f973aee13274aa580",
        "rssi.csv": "14e4467dd5cbdc01062624bbac540ecbbe325af01cda2192f1253b7761618847",
        "metrics.json": "e6c491e264279af1ee1b55739e40c83d35329be3fe387d3a45799929636e269a",
    },
}


@pytest.mark.parametrize("name", ATTACKS)
def test_attack_traces_match_pinned_hashes(name, tmp_path):
    run(attack_run(name), out_dir=str(tmp_path))
    for file_name, digest in ATTACK_SHA256[name].items():
        got = hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest()
        assert got == digest, f"{name} {file_name} differs from the pinned bytes"


def rescanned_trust_timeline(scenario: Scenario, monkeypatch) -> tuple[list, list]:
    """The run's trust timeline, and one read from every node's trust
    records after each of its rounds (a round changes only its node's)."""
    labels = {spec.mac: spec.label for spec in scenario.nodes}
    seen: dict[str, dict[str, float]] = {}
    timeline = []
    tick = NodeState.tick

    def rescanning_tick(self, inbox, *, now):
        actions = tick(self, inbox, now=now)
        label = labels[self.self_id]
        snap = seen.setdefault(label, {})
        for peer, rec in self.store.peers.items():
            peer_label = labels.get(peer, str(peer))
            if snap.get(peer_label) != rec.trust.value:
                snap[peer_label] = rec.trust.value
                timeline.append((now, label, peer_label, rec.trust.value))
        return actions

    monkeypatch.setattr(NodeState, "tick", rescanning_tick)
    return run(scenario, collect_rssi=False).metrics.trust_timeline, timeline


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, *ATTACKS])
def test_trust_timeline_matches_full_rescan(name, monkeypatch):
    scenario = attack_run(name) if name in ATTACKS else builtin_scenario(name, seed=1)
    got, want = rescanned_trust_timeline(scenario, monkeypatch)
    assert got == want
    assert any(entry[0] == 0 for entry in want)  # the initial records are read at tick 0
    if name == "paper-fig7":
        assert any(entry[0] > 0 for entry in want)  # trust moved during the run


def test_filter_sweep_matches_reference(references, tmp_path, capsys):
    """`polsim filters` with the bench's arguments over fig7 seed 1."""
    scenario = builtin_scenario("paper-fig7", seed=1)
    trace, out = tmp_path / "trace", tmp_path / "sweep"
    run(scenario, out_dir=str(trace))
    code = main([
        "filters",
        "--trace", str(trace / "rssi.csv"),
        "--filter", ",".join(FILTER_NAMES),
        "--threshold-sweep", "2:10:2",
        "--movements", ",".join(str(mv.at) for mv in scenario.movements),
        "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    report = json.loads((out / "filter_report.json").read_text(encoding="utf-8"))
    report.pop("trace")  # the input path differs per checkout
    got = {"filter_report.json": json.dumps(report, sort_keys=True).encode("utf-8")}
    got.update({f"smoothed_{name}.csv": (out / f"smoothed_{name}.csv").read_bytes() for name in FILTER_NAMES})
    want = references[f"filters/paper-fig7/seed=1/ticks={TICKS}"]
    assert set(want) == set(got)
    for file_name, data in got.items():
        assert hashlib.sha256(data).hexdigest() == want[file_name], f"{file_name} differs from the reference"
