"""Trace identity: the built-ins at seed 1 reproduce the benchmark's reference bytes.

The SHA-256 of every trace file is read from `perfbench/references.json`, the
one stored copy of the reference hashes, so a change that alters a single
byte of `events.jsonl` or `rssi.csv` fails here as well as in the bench. The
offline filter sweep over the fig7 trace is held to the bench's hashes too,
and each built-in's `metrics.json` to a hash pinned in this file.
"""

import hashlib
import json
from pathlib import Path

import pytest

from polsim.cli import main
from polsim.filters import FILTER_NAMES
from polsim.harness import run
from polsim.scenario import BUILTIN_NAMES, builtin_scenario

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"
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


# SHA-256 of metrics.json of each built-in at seed 1; the bench's references
# hold no metrics.json, so its bytes are pinned here
METRICS_SHA256 = {
    "paper-fig7": "16399e9f5966c025da2ff61116f130054cf7af5fe06496608db095789426cef0",
    "static-honest": "b8fd13595dfbdf27addd6ea457e55ba8cf012b9c265cec9bbf54e25292c3b8c4",
    "spoof-attack": "f575918f4266178cc619d89c3b55a50917ee3684db712739ef7687763f7bc5da",
    "malicious-bft": "56e48f372e4c19b700a1001929577a10561a3187835e690c4fc9a6a8eb6c0028",
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_metrics_match_pinned_hash(name, tmp_path):
    run(builtin_scenario(name, seed=1), out_dir=str(tmp_path))
    got = hashlib.sha256((tmp_path / "metrics.json").read_bytes()).hexdigest()
    assert got == METRICS_SHA256[name], f"{name} metrics.json differs from the pinned bytes"


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
