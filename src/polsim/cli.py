"""Command-line interface: run scenarios, sweep filters over traces, check builtins.

Exit codes: 0 success, 1 scenario or trace validation error, 2 runtime
failure, 3 acceptance-check failure. Results go to stdout as parseable
lines; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Optional

from . import filters
from .checks import BUILTIN_CHECKS, check_determinism
from .filters import FILTER_NAMES, TriggerState, make_filter
from .harness import run
from .scenario import BUILTIN_NAMES, Scenario, ScenarioError, builtin_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3


def _load_scenario(args: argparse.Namespace) -> Scenario:
    if args.builtin:
        scenario = builtin_scenario(args.builtin, seed=args.seed if args.seed is not None else 42)
    else:
        path = Path(args.scenario)
        if not path.exists():
            raise ScenarioError([f"scenario file not found: {path}"])
        scenario = Scenario.from_json(path.read_text(encoding="utf-8"))
        if args.seed is not None:
            scenario = scenario.with_seed(args.seed)
    return scenario


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = _load_scenario(args)
    except ScenarioError as exc:
        for violation in exc.violations:
            print(f"scenario error: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        result = run(scenario, out_dir=args.out)
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    counts = result.metrics.counts
    totals = {
        "payload_sent": sum(c["payload_sent"] for c in counts.values()),
        "bft_sent": sum(c["bft_sent"] for c in counts.values()),
        "alert_sent": sum(c["alert_sent"] for c in counts.values()),
        "trusted_stored": sum(c["trusted_stored"] for c in counts.values()),
    }
    summary = {
        "scenario": result.metrics.scenario,
        "seed": result.metrics.seed,
        "duration": result.metrics.duration,
        **totals,
        "static_false_positive_bft": result.metrics.static_false_positive_bft,
        "out": args.out,
    }
    if args.format == "jsonl":
        print(json.dumps(summary, sort_keys=True))
    else:
        print(",".join(str(k) for k in summary))
        print(",".join(str(v) for v in summary.values()))
    return EXIT_OK


def _parse_sweep(text: str) -> list[float]:
    try:
        lo, hi, step = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad sweep spec {text!r}, expected LO:HI:STEP") from exc
    if step <= 0 or hi < lo:
        raise ValueError(f"bad sweep spec {text!r}")
    out = []
    value = lo
    while value <= hi + 1e-9:
        out.append(round(value, 9))
        value += step
    return out


def _read_trace(path: Path) -> dict[tuple[str, str], list[tuple[int, float]]]:
    links: dict[tuple[str, str], list[tuple[int, float]]] = {}
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


def _parse_filter_params(text: Optional[str], names: list[str]) -> dict:
    """Parse --params and build each named filter once, so a bad value fails
    before anything is written; raises ValueError."""
    params = json.loads(text) if text else {}
    if not isinstance(params, dict):
        raise ValueError("--params must be a JSON object of per-filter objects")
    unselected = sorted(set(params) - set(names))
    if unselected:
        raise ValueError(f"--params names no selected filter: {unselected}")
    for name in names:
        own = params.get(name)
        if own is not None and not isinstance(own, dict):
            raise ValueError(f"parameters for {name} must be a JSON object")
        try:
            make_filter(name, own)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from exc
    return params


def cmd_filters(args: argparse.Namespace) -> int:
    trace_path = Path(args.trace)
    try:
        links = _read_trace(trace_path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    names = [n.strip() for n in args.filter.split(",") if n.strip()]
    for name in names:
        if name not in FILTER_NAMES:
            print(f"unknown filter {name!r}; choose from {FILTER_NAMES}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        params = _parse_filter_params(args.params, names)
        thresholds = _parse_sweep(args.threshold_sweep) if args.threshold_sweep else [args.threshold]
        for threshold in thresholds:
            # raises on a bad threshold, cooldown or warm-up
            TriggerState(threshold=threshold, cooldown=args.cooldown, warmup=args.warmup)
        movements = [int(m) for m in args.movements.split(",") if m.strip()] if args.movements else []
        if args.settle_window < 0:
            raise ValueError("--settle-window must be >= 0")
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    settle = args.settle_window
    # resolved when the command runs: perfbench/tracer.py wraps it by name
    fire = filters.bft_trigger

    out_dir = Path(args.out) if args.out else trace_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)

    report = {"trace": str(trace_path), "movements": movements, "filters": []}
    for name in names:
        smoothed_per_link: dict[tuple[str, str], list[tuple[int, float, float]]] = {}
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
            fires: list[tuple[int, tuple[str, str]]] = []
            for link, rows in sorted(smoothed_per_link.items()):
                trigger = TriggerState(threshold=threshold, cooldown=args.cooldown, warmup=args.warmup)
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
            print(
                f"{name},threshold={threshold},triggers={len(fires)},static_fp={static_fp},"
                f"latencies={[d['latency'] for d in detections]}"
            )
        report["filters"].append({"name": name, "params": params.get(name, {}), "thresholds": entries})

    report_path = out_dir / "filter_report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"report,{report_path}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    if args.builtin not in BUILTIN_NAMES:
        print(f"unknown builtin {args.builtin!r}; choose from {BUILTIN_NAMES}", file=sys.stderr)
        return EXIT_VALIDATION
    checks = list(BUILTIN_CHECKS[args.builtin])
    results = [check() for check in checks]
    if args.builtin == "paper-fig7":
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            results.append(check_determinism(tmp))
    failed = False
    for result in results:
        print(result.line())
        failed = failed or not result.passed
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polsim",
        description="Proof-of-Location sensor network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and write trace files")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="path to a scenario JSON file")
    src.add_argument("--builtin", choices=BUILTIN_NAMES, help="builtin scenario name")
    p_run.add_argument("--out", required=True, help="output directory for trace files")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv", help="stdout summary format"
    )
    p_run.set_defaults(func=cmd_run)

    p_filters = sub.add_parser("filters", help="replay a recorded trace through smoothing filters")
    p_filters.add_argument("--trace", required=True, help="rssi.csv produced by `run`")
    p_filters.add_argument(
        "--filter",
        default="median_kalman",
        help=f"comma list of filters ({', '.join(FILTER_NAMES)})",
    )
    p_filters.add_argument("--params", default=None, help="JSON object of per-filter parameters")
    p_filters.add_argument("--threshold", type=float, default=6.0, help="trigger threshold in dB")
    p_filters.add_argument(
        "--threshold-sweep", dest="threshold_sweep", default=None, help="LO:HI:STEP sweep of thresholds"
    )
    p_filters.add_argument(
        "--movements", default=None, help="comma list of known movement ticks for latency stats"
    )
    p_filters.add_argument("--settle-window", type=int, default=120, help="ticks after a movement not counted static")
    p_filters.add_argument("--cooldown", type=int, default=30, help="trigger cooldown in ticks")
    p_filters.add_argument("--warmup", type=int, default=10, help="samples skipped before triggering")
    p_filters.add_argument("--out", default=None, help="directory for report and smoothed CSVs")
    p_filters.set_defaults(func=cmd_filters)

    p_check = sub.add_parser("check", help="run the acceptance checks for a builtin scenario")
    p_check.add_argument("--builtin", required=True, help="builtin scenario name")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for violation in exc.violations:
            print(f"scenario error: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
