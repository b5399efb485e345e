"""Command-line interface: exit codes, determinism, filter replay oracle."""

import csv
import json
import random
from collections import defaultdict
from pathlib import Path

import pytest

import polsim.checks
from polsim import cli
from polsim.channel import RadioChannel
from polsim.checks import CRITERIA, CheckFailed, Criterion
from polsim.cli import MAX_SWEEP_THRESHOLDS, _parse_sweep, main
from polsim.filters import FILTER_NAMES, TriggerState, bft_trigger, make_filter
from polsim.harness import RSSI_HEADER
from polsim.scenario import BUILTIN_NAMES, builtin_scenario


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

    def test_unwritable_out_exit_2_before_any_tick(self, tmp_path, monkeypatch, capsys):
        def no_broadcast(*args, **kwargs):
            raise AssertionError("a tick ran before the output directory was opened")

        monkeypatch.setattr(RadioChannel, "broadcast", no_broadcast)
        regular_file = tmp_path / "file"
        regular_file.write_text("")
        code = run_cli("run", "--builtin", "static-honest", "--out", str(regular_file / "out"))
        assert code == 2
        assert capsys.readouterr().err.startswith("runtime error:")

    def test_missing_scenario_file_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = run_cli("run", "--scenario", str(missing), "--out", str(tmp_path / "o"))
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["builtin", "file"])
    def test_seed_past_64_bits_exit_1_before_writing(self, source, tmp_path, capsys):
        if source == "builtin":
            scenario = ("--builtin", "static-honest")
        else:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(builtin_scenario("static-honest").to_dict()))
            scenario = ("--scenario", str(path))
        out = tmp_path / "out"
        assert run_cli("run", *scenario, "--seed", str(2**64), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("scenario error: seed must be in")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_unknown_builtin_exit_1_before_writing(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        argv = (command, "--builtin", "no-such", *(("--out", str(out)) if command == "run" else ()))
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err == f"scenario error: unknown builtin scenario 'no-such'; choose from {BUILTIN_NAMES}\n"
        assert not out.exists()

    def test_scenario_file_of_a_list_exit_1_before_writing(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err == "scenario error: scenario document must be a JSON object\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [("run", "--builtin", "static-honest"), ("run", "--builtin", "static-honest", "--seed", "x", "--out", "o")],
        ids=["missing-out", "non-integer-seed"],
    )
    def test_usage_error_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "usage: polsim run" in capsys.readouterr().err

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

    def test_sweep_keeps_its_values(self):
        assert _parse_sweep("2:10:2") == [2.0, 4.0, 6.0, 8.0, 10.0]
        assert _parse_sweep("0.1:0.5:0.1") == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert len(_parse_sweep(f"1:{MAX_SWEEP_THRESHOLDS}:1")) == MAX_SWEEP_THRESHOLDS

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("2:1e12:1", "more than 10000 thresholds"),
            (f"1:{MAX_SWEEP_THRESHOLDS + 1}:1", "more than 10000 thresholds"),
            ("1e17:1.00000000000001e17:1", "does not move"),
            ("-1e308:1e308:1e300", "more than 10000 thresholds"),  # hi - lo overflows
        ],
    )
    def test_oversized_sweep_rejected_before_the_loop(self, monkeypatch, spec, message):
        # every threshold goes through round(): none may be made
        def refuse(*args):
            raise AssertionError(f"a threshold of {spec!r} was computed")

        monkeypatch.setattr(cli, "round", refuse, raising=False)
        with pytest.raises(ValueError, match=message):
            _parse_sweep(spec)

    def test_sweep_whose_value_stops_moving_is_bounded(self):
        # 2**53 - 1 + 1 moves, but 2**53 + 1 rounds back to 2**53
        with pytest.raises(ValueError, match="more than 10000 thresholds"):
            _parse_sweep(f"{2**53 - 1}:{2**53 + 10}:1")

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
            ("--params", '{"median":{"window":"7"}}'),
            ("--params", '{"median":{"window":true}}'),
            ("--params", '{"median":{"window":7.9}}'),
            ("--filter", "median_kalman", "--params", '{"median_kalman":{"q":"0.5"}}'),
            ("--filter", "median_kalman", "--params", '{"median_kalman":{"q":NaN}}'),
            ("--threshold", "nan"),
            ("--threshold-sweep", "2:nan:2"),
            ("--threshold-sweep", "2:1e12:1"),
            ("--threshold-sweep", "1e17:1.00000000000001e17:1"),
            ("--filter", ","),
            ("--filter", "median,median"),
        ],
        ids=["params-list", "params-scalar", "params-unknown-key", "params-even-window",
             "movements", "cooldown", "zero-threshold", "params-unknown-filter",
             "params-unselected-filter", "warmup", "settle-window", "params-window-string",
             "params-window-bool", "params-window-float", "params-q-string", "params-q-nan",
             "threshold-nan", "threshold-sweep-nan", "threshold-sweep-too-long",
             "threshold-sweep-step-too-small", "filter-empty", "filter-repeated"],
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
        assert not out.exists()

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


GOOD_ROWS = "tick,receiver,sender,rssi_raw,rssi_smoothed\n1,a,b,-50.0,-50.0\n"


class TestMalformedTrace:
    @pytest.mark.parametrize(
        "text",
        [
            GOOD_ROWS + "2,a,b\n",
            GOOD_ROWS + "2,a,b,-50.0,-50.0,7\n",
            GOOD_ROWS + "2,a,b,nan,-50.0\n",
            GOOD_ROWS + "2,a,b,-inf,-50.0\n",
            "tick,receiver,sender,rssi_raw,rssi_smoothed,tick\n1,a,b,-50.0,-50.0,1\n",
            GOOD_ROWS + "2,a,b,-50.0," + "9" * 200_000 + "\n",
        ],
        ids=["short-row", "long-row", "nan", "inf", "repeated-header", "field-past-csv-limit"],
    )
    def test_exit_1_before_writing(self, tmp_path, capsys, text):
        trace = tmp_path / "rssi.csv"
        trace.write_text(text, encoding="utf-8")
        out = tmp_path / "rep"
        assert run_cli("filters", "--trace", str(trace), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("trace error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,a,b,-50.0,-50.0", "line 3: tick 'x' is not an integer"),
            ("2,a,b,abc,-50.0", "line 3: rssi_raw 'abc' is not a number"),
        ],
        ids=["tick", "rssi_raw"],
    )
    def test_bad_number_names_its_line(self, tmp_path, capsys, row, message):
        trace = tmp_path / "rssi.csv"
        trace.write_text(GOOD_ROWS + row + "\n", encoding="utf-8")
        out = tmp_path / "rep"
        assert run_cli("filters", "--trace", str(trace), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"trace error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rssi.csv"]

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        trace = tmp_path / "rssi.csv"
        trace.write_text(GOOD_ROWS + "\n2,a,b,-51.0,-51.0\n\n", encoding="utf-8")
        out = tmp_path / "rep"
        assert run_cli("filters", "--trace", str(trace), "--filter", "median", "--out", str(out)) == 0
        capsys.readouterr()
        assert (out / "smoothed_median.csv").read_text().splitlines()[1:] == [
            "1,a,b,-50.000000,-50.000000",
            "2,a,b,-51.000000,-50.000000",  # the median of two is the upper one
        ]


# -- the sweep as written with one (tick, raw, smoothed) tuple per row --------


def reference_read_trace(path):
    """`_read_trace` as it was, through `csv.DictReader`."""
    links = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = {"tick", "receiver", "sender", "rssi_raw", "rssi_smoothed"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise ValueError(f"unexpected columns {reader.fieldnames}")
        for row in reader:
            links.setdefault((row["receiver"], row["sender"]), []).append(
                (int(row["tick"]), float(row["rssi_raw"]))
            )
    for series in links.values():
        series.sort(key=lambda p: p[0])
    return links


def reference_sweep(trace_path, out_dir, names, thresholds, cooldown, warmup, movements, settle):
    """The loops of `cmd_filters` as they were: a (t, raw, smoothed) tuple per
    row for each filter, each row formatted whole. Returns the stdout lines."""
    links = reference_read_trace(trace_path)
    params = {}
    fire = bft_trigger
    lines = []
    out_dir.mkdir(parents=True, exist_ok=True)

    report = {"trace": str(trace_path), "movements": movements, "filters": []}
    for name in names:
        smoothed_per_link = {}
        for link, series in sorted(links.items()):
            step = make_filter(name, params.get(name))
            smoothed_per_link[link] = [(t, raw, step(raw)) for t, raw in series]
        smooth_path = out_dir / f"smoothed_{name}.csv"
        with open(smooth_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("tick,receiver,sender,rssi_raw,rssi_smoothed\n")
            for (receiver, sender), rows in sorted(smoothed_per_link.items()):
                for t, raw, smooth in rows:
                    fh.write(f"{t},{receiver},{sender},{raw:.6f},{smooth:.6f}\n")

        entries = []
        for threshold in thresholds:
            fires = []
            for link, rows in sorted(smoothed_per_link.items()):
                trigger = TriggerState(threshold=threshold, cooldown=cooldown, warmup=warmup)
                for t, _raw, smooth in rows:
                    if fire(trigger, smooth, t):
                        fires.append((t, link))
            static_fp = sum(
                1
                for t, _link in fires
                if not any(mv < t <= mv + settle for mv in movements)
            )
            detections = []
            for mv in movements:
                hits = [t for t, _link in fires if mv < t <= mv + settle]
                detections.append(
                    {"movement_tick": mv, "latency": (min(hits) - mv) if hits else None}
                )
            entries.append(
                {
                    "threshold": threshold,
                    "trigger_count": len(fires),
                    "static_false_positives": static_fp,
                    "detections": detections,
                }
            )
            lines.append(
                f"{name},threshold={threshold},triggers={len(fires)},static_fp={static_fp},"
                f"latencies={[d['latency'] for d in detections]}"
            )
        report["filters"].append({"name": name, "params": params.get(name, {}), "thresholds": entries})

    report_path = out_dir / "filter_report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return lines


def synthetic_trace(path: Path, ticks: int = 420) -> None:
    """Three links with a level jump at tick 150 and 300, rows shuffled,
    columns out of the usual order, raw values in several number forms, and
    one link with two rows on the same tick."""
    rng = random.Random(7)
    rows = []
    for receiver, sender, base in (("n1", "n2", -55.0), ("n2", "n1", -61.0), ("n3", "n1", -70.0)):
        for t in range(1, ticks + 1):
            level = base + (9.0 if 150 <= t < 300 else 0.0) - (12.0 if t >= 300 else 0.0)
            raw = level + rng.gauss(0.0, 1.5)
            forms = (f"{raw:.6f}", repr(round(raw, 1)), repr(raw), str(round(raw)))
            rows.append((t, receiver, sender, forms[t % 4]))
    rows.append((77, "n2", "n1", "-45.5"))  # same tick as an earlier n2<-n1 row
    rows.append((77, "n2", "n1", "-80"))
    rng.shuffle(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("rssi_smoothed,sender,tick,rssi_raw,receiver\n")
        for t, receiver, sender, text in rows:
            fh.write(f"0.0,{sender},{t},{text},{receiver}\n")


class TestSweepMatchesReference:
    @pytest.mark.parametrize(
        "sweep, thresholds, warmup, cooldown",
        [
            ("2:6:2", [2.0, 4.0, 6.0], 0, 20),
            ("2:6:2", [2.0, 4.0, 6.0], 10, 20),
            ("2:6:2", [2.0, 4.0, 6.0], 10, 0),
            # long quiet runs at the high thresholds, long non-flat stretches at the low ones
            ("0.5:12:0.5", [0.5 * k for k in range(1, 25)], 10, 20),
            # longer than every link of the 420-tick trace: no baseline is ever set
            ("2:6:2", [2.0, 4.0, 6.0], 500, 20),
        ],
        ids=["warmup-0", "warmup-10", "cooldown-0", "fine-sweep", "warmup-500"],
    )
    def test_byte_identical_outputs(self, tmp_path, capsys, sweep, thresholds, warmup, cooldown):
        trace = tmp_path / "rssi.csv"
        synthetic_trace(trace)
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        argv = [
            "filters", "--trace", str(trace), "--filter", ",".join(FILTER_NAMES),
            "--threshold-sweep", sweep, "--warmup", str(warmup), "--cooldown", str(cooldown),
            "--movements", "150,300", "--settle-window", "60", "--out", str(ours),
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        expected = reference_sweep(trace, theirs, FILTER_NAMES, thresholds, cooldown, warmup, [150, 300], 60)
        assert printed == expected + [f"report,{ours / 'filter_report.json'}"]
        report = json.loads((theirs / "filter_report.json").read_text())
        fired = sum(e["trigger_count"] for f in report["filters"] for e in f["thresholds"])
        assert fired == 0 if warmup >= 420 else fired > 0
        written = sorted(p.name for p in ours.iterdir())
        assert written == sorted(p.name for p in theirs.iterdir())
        assert len(written) == len(FILTER_NAMES) + 1
        for name in written:
            assert (ours / name).read_bytes() == (theirs / name).read_bytes(), name

    def test_labels_with_format_characters(self, tmp_path, capsys):
        """Labels holding `%` and braces reach every smoothed CSV as written,
        and a link whose rows are out of tick order is smoothed in stable
        tick order."""
        trace = tmp_path / "rssi.csv"
        labels = [("n%1", "%s"), ("%%", "{n2}"), ("}{", "%")]
        rows = []
        for k, (receiver, sender) in enumerate(labels):
            for t in range(40):
                rows.append((t, receiver, sender, -50.0 - 10 * k - (t % 7) * 0.75))
        # the first link's rows out of tick order, two on one tick
        rows[:40] = rows[20:40] + [(5, "n%1", "%s", -20.25)] + rows[:20]
        with open(trace, "w", encoding="utf-8", newline="") as fh:
            fh.write(RSSI_HEADER)
            for t, receiver, sender, raw in rows:
                fh.write(f"{t},{receiver},{sender},{raw},0.0\n")
        assert main(["filters", "--trace", str(trace), "--filter", ",".join(FILTER_NAMES),
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        columns = reference_read_trace(trace)
        assert [t for t, _raw in columns[("n%1", "%s")]][:8] == [0, 1, 2, 3, 4, 5, 5, 6]
        for name in FILTER_NAMES:
            expected = [RSSI_HEADER]
            for (receiver, sender), series in sorted(columns.items()):
                step = make_filter(name)
                expected += [f"{t},{receiver},{sender},{raw:.6f},{step(raw):.6f}\n" for t, raw in series]
            written = (tmp_path / "out" / f"smoothed_{name}.csv").read_text(encoding="utf-8")
            assert written == "".join(expected), name


class TestCheckCommand:
    def test_registry_names_are_unique(self):
        names = [criterion.name for criterion in CRITERIA]
        assert len(set(names)) == len(names)

    def test_every_check_is_registered_once(self):
        public = [name for name in dir(polsim.checks) if name.startswith("check_")]
        assert sorted(criterion.check.__name__ for criterion in CRITERIA) == sorted(public)

    def test_every_builtin_has_an_entry(self):
        assert set(BUILTIN_NAMES) <= {criterion.builtin for criterion in CRITERIA}

    @pytest.mark.parametrize("failing, code", [(False, 0), (True, 3)], ids=["all-pass", "one-fails"])
    def test_prints_the_builtin_entries_in_registry_order(self, monkeypatch, capsys, failing, code):
        def fail(builtin):
            raise CheckFailed("stub failure")

        monkeypatch.setattr(cli, "CRITERIA", (
            Criterion("stub-first", "malicious-bft", fail if failing else lambda builtin: "first ok"),
            Criterion("stub-elsewhere", "paper-fig7", fail),
            Criterion("stub-second", "malicious-bft", lambda builtin: "second ok"),
        ))
        assert run_cli("check", "--builtin", "malicious-bft") == code
        first = "FAIL stub-first: stub failure" if failing else "PASS stub-first: first ok"
        assert capsys.readouterr().out.splitlines() == [first, "PASS stub-second: second ok"]

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
