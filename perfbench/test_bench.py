"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH))

import polsim.filters  # noqa: E402
import polsim.protocol  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dense import dense_document, dense_scenario  # noqa: E402
from polsim.scenario import Scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_dense_scenario_is_deterministic_and_valid():
    first = json.dumps(dense_document(20, 4, 2, 300), sort_keys=True)
    assert first == json.dumps(dense_document(20, 4, 2, 300), sort_keys=True)
    assert first != json.dumps(dense_document(20, 5, 2, 300), sort_keys=True)
    scenario = dense_scenario(20, 4, 2, 300)
    assert scenario.to_json() == dense_scenario(20, 4, 2, 300).to_json()
    assert scenario.seed == 2 and scenario.channel.seed == 2
    # a document that went through validation survives a second pass unchanged
    assert Scenario.from_dict(scenario.to_dict()).to_json() == scenario.to_json()
    assert len(scenario.nodes) == 20 and len(scenario.movements) == 1


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_smoke_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _traced_iteration(prepared):
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        outcomes = [run.execute() for run in prepared.runs]
    finally:
        tr.uninstall()
    return tr, outcomes


def test_traced_and_untraced_runs_hash_identically(tmp_path):
    for make in (workloads.Builtins, workloads.Dense, workloads.Soak):
        prepared = make(workloads.SIZES["tiny"], tmp_path).setup(2)
        plain = [run.execute() for run in prepared.runs]
        _, traced = _traced_iteration(prepared)
        assert [o.hashes for o in traced] == [o.hashes for o in plain]
        assert all(o.error is None and o.hashes for o in plain)


def test_every_wrapper_is_removed_after_a_traced_run(tmp_path):
    originals = {
        (polsim.protocol, "bft_trigger"): polsim.protocol.bft_trigger,
        (polsim.filters, "bft_trigger"): polsim.filters.bft_trigger,
        (polsim.protocol.NodeState, "tick"): vars(polsim.protocol.NodeState)["tick"],
        (Scenario, "from_dict"): vars(Scenario)["from_dict"],
    }
    prepared = workloads.FilterSweep(workloads.SIZES["tiny"], tmp_path).setup(1)
    tr, outcomes = _traced_iteration(prepared)
    assert tr.calls("filters.offline_trigger") > 0 and tr.calls("cli.cmd_filters") == 1
    assert len(tr._patches) > 20 and tr.leftovers() == []
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original


def test_mismatch_names_run_and_file():
    refs = {"paper-fig7/seed=1/ticks=900": {"events.jsonl": "a", "rssi.csv": "b"}}
    assert workloads.mismatches("paper-fig7/seed=1/ticks=900", {"events.jsonl": "a", "rssi.csv": "b"}, refs) == []
    (line,) = workloads.mismatches("paper-fig7/seed=1/ticks=900", {"events.jsonl": "a", "rssi.csv": "x"}, refs)
    assert line.startswith("paper-fig7/seed=1/ticks=900 rssi.csv:")
    assert workloads.mismatches("static-honest/seed=1/ticks=900", {}, refs) != []


def test_references_cover_every_builtin_and_seed():
    refs = workloads.load_references()
    for name in ("paper-fig7", "static-honest", "spoof-attack", "malicious-bft"):
        for seed in range(1, 11):
            assert set(refs[f"{name}/seed={seed}/ticks=900"]) == {"events.jsonl", "rssi.csv"}


def test_reference_check_mode_passes_on_a_subset():
    done = bench("--check-references", "static-honest/seed=7/")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "checked 1 runs, 0 differ" in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = bench("--workload", "builtins", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
