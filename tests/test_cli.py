"""Command-line interface: exit codes, determinism, filter replay oracle."""

import csv
import json
from collections import defaultdict

import pytest

import polsim.checks
from polsim.cli import main
from polsim.scenario import builtin_scenario


def run_cli(*argv) -> int:
    return main(list(argv))


class TestRunCommand:
    def test_builtin_writes_all_traces(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--builtin", "paper-fig7", "--seed", "3", "--out", str(out)) == 0
        for name in ("rssi.csv", "events.jsonl", "metrics.json"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "paper-fig7" in stdout

    def test_same_seed_identical_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--builtin", "static-honest", "--seed", "5", "--out", str(d1)) == 0
        assert run_cli("run", "--builtin", "static-honest", "--seed", "5", "--out", str(d2)) == 0
        assert (d1 / "rssi.csv").read_bytes() == (d2 / "rssi.csv").read_bytes()
        assert (d1 / "events.jsonl").read_bytes() == (d2 / "events.jsonl").read_bytes()

    def test_missing_scenario_file_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = run_cli("run", "--scenario", str(missing), "--out", str(tmp_path / "o"))
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_invalid_scenario_lists_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"duration": -1, "nodes": [], "bogus": 1}))
        code = run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "bogus" in err and "duration" in err

    def test_custom_scenario_file_runs(self, tmp_path, capsys):
        doc = builtin_scenario("static-honest", seed=3).to_dict()
        doc["name"] = "from-file"
        doc["duration"] = 150
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", str(path), "--out", str(out), "--format", "jsonl") == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["scenario"] == "from-file"
        assert summary["duration"] == 150
        assert (out / "events.jsonl").exists()

    def test_jsonl_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(
            "run", "--builtin", "static-honest", "--seed", "2", "--out", str(out),
            "--format", "jsonl",
        ) == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["scenario"] == "static-honest"
        assert summary["bft_sent"] == 0


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    assert main(["run", "--builtin", "static-honest", "--seed", "4", "--out", str(out)]) == 0
    return out


def raw_series(trace_path):
    links = defaultdict(list)
    with open(trace_path, newline="") as fh:
        for row in csv.DictReader(fh):
            links[(row["receiver"], row["sender"])].append((int(row["tick"]), float(row["rssi_raw"])))
    for series in links.values():
        series.sort()
    return links


def brute_force_trigger_count(series, threshold, cooldown=30, warmup=10):
    """Independent re-statement of the trigger contract on raw values.

    The flatness-gated rebaseline never activates on raw noisy data (a
    15-sample window of sigma=1 noise is never flat to threshold/3), so the
    oracle only models baseline-at-warm-up, threshold crossing and cooldown.
    """
    fires = 0
    baseline = None
    last_fire = None
    for i, (t, value) in enumerate(series):
        if i < warmup:
            continue
        if baseline is None:
            baseline = value
            continue
        if abs(value - baseline) > threshold and (last_fire is None or t - last_fire >= cooldown):
            fires += 1
            baseline = value
            last_fire = t
    return fires


class TestFiltersCommand:
    def test_identity_settings_match_raw_thresholding_oracle(self, trace_dir, tmp_path, capsys):
        out = tmp_path / "rep"
        params = json.dumps({"median_kalman": {"window": 1, "q": 1.0, "r": 1e-9}})
        code = run_cli(
            "filters",
            "--trace", str(trace_dir / "rssi.csv"),
            "--filter", "median_kalman",
            "--params", params,
            "--threshold", "2.5",
            "--out", str(out),
        )
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "filter_report.json").read_text())
        reported = report["filters"][0]["thresholds"][0]["trigger_count"]
        links = raw_series(trace_dir / "rssi.csv")
        expected = sum(brute_force_trigger_count(s, 2.5) for s in links.values())
        assert expected > 0
        assert reported == expected

    def test_threshold_sweep_row_count(self, trace_dir, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run_cli(
            "filters",
            "--trace", str(trace_dir / "rssi.csv"),
            "--filter", "median_kalman,moving_average",
            "--threshold-sweep", "2:10:2",
            "--out", str(out),
        )
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "filter_report.json").read_text())
        for entry in report["filters"]:
            thresholds = [row["threshold"] for row in entry["thresholds"]]
            assert thresholds == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_smoothed_csv_emitted_per_filter(self, trace_dir, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run_cli(
            "filters", "--trace", str(trace_dir / "rssi.csv"),
            "--filter", "median,gaussian", "--out", str(out),
        )
        assert code == 0
        capsys.readouterr()
        assert (out / "smoothed_median.csv").exists()
        assert (out / "smoothed_gaussian.csv").exists()
        header = (out / "smoothed_median.csv").read_text().splitlines()[0]
        assert header == "tick,receiver,sender,rssi_raw,rssi_smoothed"

    def test_cascade_on_movement_trace_clean_and_fast(self, tmp_path, capsys):
        trace = tmp_path / "fig7"
        assert run_cli("run", "--builtin", "paper-fig7", "--seed", "6", "--out", str(trace)) == 0
        out = tmp_path / "rep"
        code = run_cli(
            "filters",
            "--trace", str(trace / "rssi.csv"),
            "--filter", "median_kalman",
            "--threshold", "6",
            "--movements", "300,600",
            "--out", str(out),
        )
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "filter_report.json").read_text())
        row = report["filters"][0]["thresholds"][0]
        assert row["static_false_positives"] == 0
        latencies = [d["latency"] for d in row["detections"]]
        assert all(lat is not None and lat <= 60 for lat in latencies)

    def test_unknown_filter_exit_1(self, trace_dir, capsys):
        code = run_cli("filters", "--trace", str(trace_dir / "rssi.csv"), "--filter", "fancy")
        assert code == 1
        assert "unknown filter" in capsys.readouterr().err

    def test_missing_trace_exit_1(self, tmp_path, capsys):
        code = run_cli("filters", "--trace", str(tmp_path / "none.csv"))
        assert code == 1

    def test_bad_sweep_spec_exit_1(self, trace_dir, capsys):
        for sweep in ("5:1:2", "2:10:0", "2:10", "a:b:c"):
            code = run_cli(
                "filters", "--trace", str(trace_dir / "rssi.csv"),
                "--filter", "median", "--threshold-sweep", sweep,
            )
            assert code == 1, sweep
        capsys.readouterr()

    @pytest.mark.parametrize(
        "extra",
        [
            ("--params", "[1]"),
            ("--params", '{"median":5}'),
            ("--params", '{"median":{"bogus":1}}'),
            ("--params", '{"median":{"window":4}}'),
            ("--movements", "a,b"),
            ("--cooldown", "-1"),
            ("--threshold-sweep", "0:4:2"),
            ("--params", '{"medain":{"window":3}}'),
            ("--params", '{"kalman":{"q":0.1}}'),
            ("--warmup", "-5"),
            ("--settle-window", "-3"),
        ],
        ids=["params-list", "params-scalar", "params-unknown-key", "params-even-window",
             "movements", "cooldown", "zero-threshold", "params-unknown-filter",
             "params-unselected-filter", "warmup", "settle-window"],
    )
    def test_bad_argument_exit_1_before_writing(self, trace_dir, tmp_path, capsys, extra):
        out = tmp_path / "rep"
        code = run_cli(
            "filters", "--trace", str(trace_dir / "rssi.csv"),
            "--filter", "moving_average,median", "--out", str(out), *extra,
        )
        assert code == 1
        assert "argument error" in capsys.readouterr().err
        assert list(out.glob("smoothed_*.csv")) == []
        assert not (out / "filter_report.json").exists()

    def test_sweep_smooths_like_the_node(self, tmp_path, capsys):
        # static-honest has no moves (no pipeline resets) and no same-tick
        # duplicate receptions, so every rssi.csv row is one smoother step
        trace = tmp_path / "static"
        assert run_cli("run", "--builtin", "static-honest", "--seed", "1", "--out", str(trace)) == 0
        out = tmp_path / "rep"
        assert run_cli(
            "filters", "--trace", str(trace / "rssi.csv"), "--filter", "median_kalman", "--out", str(out),
        ) == 0
        capsys.readouterr()

        def smoothed(path):
            with open(path, newline="") as fh:
                return {
                    (row["tick"], row["receiver"], row["sender"]): float(row["rssi_smoothed"])
                    for row in csv.DictReader(fh)
                }

        node = smoothed(trace / "rssi.csv")
        sweep = smoothed(out / "smoothed_median_kalman.csv")
        assert len(node) == 18_000
        assert sweep.keys() == node.keys()
        # the sweep reads the raw values rounded to 6 decimals
        assert max(abs(sweep[key] - value) for key, value in node.items()) <= 2e-6


class TestCheckCommand:
    def test_spoof_check_passes(self, capsys):
        assert run_cli("check", "--builtin", "spoof-attack") == 0
        assert "PASS spoof-detection" in capsys.readouterr().out

    def test_malicious_bft_check_passes(self, capsys):
        assert run_cli("check", "--builtin", "malicious-bft") == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")

    def test_unknown_builtin_exit_1(self, capsys):
        assert run_cli("check", "--builtin", "wat") == 1

    def test_misconfigured_build_fails_with_exit_3(self, monkeypatch, capsys):
        # a hair trigger must make the static scenario fire spuriously
        import dataclasses

        real = polsim.checks.builtin_scenario

        def hair_trigger(name, seed=42):
            scenario = real(name, seed=seed)
            filters = dataclasses.replace(scenario.filters, trigger_threshold=0.1)
            return dataclasses.replace(scenario, filters=filters)

        monkeypatch.setattr(polsim.checks, "builtin_scenario", hair_trigger)
        assert run_cli("check", "--builtin", "static-honest") == 3
        assert "FAIL zero-false-positives" in capsys.readouterr().out
