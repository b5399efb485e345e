"""Command-line interface: run scenarios, sweep filters over traces, check builtins.

Exit codes: 0 success, 1 scenario or trace validation error, 2 runtime
failure or usage error, 3 acceptance-check failure. Results go to stdout
as parseable lines; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from operator import itemgetter
from pathlib import Path
from typing import Optional

from .checks import CRITERIA
from .filters import FILTER_NAMES, TriggerState, make_filter, trigger_fires
from .harness import MOVEMENT_SETTLE_WINDOW, RSSI_HEADER, run
from .protocol import FilterParams
from .scenario import BUILTIN_NAMES, Scenario, ScenarioError, builtin_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3
MAX_SWEEP_THRESHOLDS = 10_000  # values one --threshold-sweep may ask for


def _load_scenario(args: argparse.Namespace) -> Scenario:
    if args.builtin:
        scenario = builtin_scenario(args.builtin)
    else:
        path = Path(args.scenario)
        if not path.exists():
            raise ScenarioError([f"scenario file not found: {path}"])
        scenario = Scenario.from_json(path.read_text(encoding="utf-8"))
    if args.seed is None:
        return scenario
    try:
        return scenario.with_seed(args.seed)
    except ValueError as exc:
        raise ScenarioError([str(exc)]) from exc


def cmd_run(args: argparse.Namespace) -> int:
    result = run(_load_scenario(args), out_dir=args.out)
    counts = result.metrics.counts
    keys = ("payload_sent", "bft_sent", "alert_sent", "trusted_stored")
    totals = {key: sum(c[key] for c in counts.values()) for key in keys}
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
    """The thresholds LO, LO + STEP, ... up to HI; raises ValueError for a
    malformed spec and for one that makes more than MAX_SWEEP_THRESHOLDS."""
    try:
        lo, hi, step = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad sweep spec {text!r}, expected LO:HI:STEP") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)) or step <= 0 or hi < lo:
        raise ValueError(f"bad sweep spec {text!r}")
    if lo + step == lo:
        raise ValueError(f"bad sweep spec {text!r}: step {step!r} does not move {lo!r}")
    too_long = f"sweep spec {text!r} makes more than {MAX_SWEEP_THRESHOLDS} thresholds"
    # the count of the loop below, give or take one step of rounding
    if (hi + 1e-9 - lo) / step >= MAX_SWEEP_THRESHOLDS:
        raise ValueError(too_long)
    out: list[float] = []
    value = lo
    while value <= hi + 1e-9:
        # value can still stop moving where it crosses into a coarser binade
        if len(out) == MAX_SWEEP_THRESHOLDS:
            raise ValueError(too_long)
        out.append(round(value, 9))
        value += step
    return out


def _read_trace(path: Path) -> list[tuple[tuple[str, str], tuple[list[int], list[float]]]]:
    """Each link in order, with its ticks and raw RSSI as two columns stably
    sorted by tick. Raises ValueError unless the header names the five columns
    once each, in any order, and every row has five fields, an integer tick and
    a finite rssi_raw."""
    links: dict[tuple[str, str], tuple[list[int], list[float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or sorted(header) != sorted(RSSI_HEADER.rstrip("\n").split(",")):
            raise ValueError(f"unexpected columns {header}")
        tick, receiver, sender, raw = map(header.index, ("tick", "receiver", "sender", "rssi_raw"))
        for row in reader:
            if len(row) != 5:
                if not row:
                    continue  # a blank line
                raise ValueError(f"line {reader.line_num}: {len(row)} fields, the header has 5")
            try:
                at = int(row[tick])
            except ValueError:
                raise ValueError(f"line {reader.line_num}: tick {row[tick]!r} is not an integer") from None
            try:
                value = float(row[raw])
            except ValueError:
                raise ValueError(f"line {reader.line_num}: rssi_raw {row[raw]!r} is not a number") from None
            if not math.isfinite(value):
                raise ValueError(f"line {reader.line_num}: rssi_raw {row[raw]!r} is not finite")
            link = (row[receiver], row[sender])
            columns = links.get(link)
            if columns is None:
                columns = links[link] = ([], [])
            columns[0].append(at)
            columns[1].append(value)
    for ticks, raws in links.values():
        if ticks != sorted(ticks):  # on ordered ticks the stable sort below changes nothing
            ticks[:], raws[:] = zip(*sorted(zip(ticks, raws), key=itemgetter(0)))
    return sorted(links.items())


def _parse_filter_params(text: Optional[str], names: list[str]) -> dict:
    """Parse --params and build each named filter once, so a bad value fails
    before anything is written; raises ValueError, also when --filter names
    no filter or one filter twice."""
    if not names:
        raise ValueError("--filter names no filter")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"--filter names a filter more than once: {repeated}")
    params = json.loads(text) if text else {}
    if not isinstance(params, dict):
        raise ValueError("--params must be a JSON object of per-filter objects")
    unselected = sorted(set(params) - set(names))
    if unselected:
        raise ValueError(f"--params names no selected filter: {unselected}")
    for name in names:
        try:
            make_filter(name, params.get(name))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
    return params


def cmd_filters(args: argparse.Namespace) -> int:
    trace_path = Path(args.trace)
    try:
        links = _read_trace(trace_path)
    except (OSError, ValueError, csv.Error) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    names = [n.strip() for n in args.filter.split(",") if n.strip()]
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

    out_dir = Path(args.out) if args.out else trace_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)

    report = {"trace": str(trace_path), "movements": movements, "filters": []}
    # each link's rows as one template with the smoothed values left as "%.6f",
    # made once for every filter; "%" in a label is doubled to stay literal
    templates = []
    for (receiver, sender), (ticks, raws) in links:
        labels = f",{receiver},{sender},".replace("%", "%%")
        templates.append("".join([f"{t}{labels}{raw:.6f},%.6f\n" for t, raw in zip(ticks, raws)]))
    for name in names:
        per_link = [list(map(make_filter(name, params.get(name)), raws)) for _link, (_ticks, raws) in links]
        with open(out_dir / f"smoothed_{name}.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(RSSI_HEADER)
            for template, smoothed in zip(templates, per_link):
                fh.write(template % tuple(smoothed))

        entries = []
        for threshold in thresholds:
            fires: list[int] = []  # the tick of every fire, over all links
            for (_link, (ticks, _raws)), smoothed in zip(links, per_link):
                trigger = TriggerState(threshold=threshold, cooldown=args.cooldown, warmup=args.warmup)
                fires += trigger_fires(trigger, ticks, smoothed)
            static_fp = sum(not any(mv < t <= mv + args.settle_window for mv in movements) for t in fires)
            detections = []
            for mv in movements:
                hits = [t for t in fires if mv < t <= mv + args.settle_window]
                detections.append({"movement_tick": mv, "latency": (min(hits) - mv) if hits else None})
            entries.append({"threshold": threshold, "trigger_count": len(fires),
                            "static_false_positives": static_fp, "detections": detections})
            print(
                f"{name},threshold={threshold},triggers={len(fires)},static_fp={static_fp},"
                f"latencies={[d['latency'] for d in detections]}"
            )
        del per_link  # freed before the next filter's list is built, for a lower peak
        report["filters"].append({"name": name, "params": params.get(name, {}), "thresholds": entries})

    report_path = out_dir / "filter_report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"report,{report_path}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    builtin_scenario(args.builtin)  # raises ScenarioError for an unknown name
    results = [criterion.run() for criterion in CRITERIA if criterion.builtin == args.builtin]
    for result in results:
        print(result.line())
    return EXIT_OK if all(result.passed for result in results) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polsim",
        description="Proof-of-Location sensor network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    builtin_help = f"builtin scenario name: {', '.join(BUILTIN_NAMES)}"

    p_run = sub.add_parser("run", help="execute a scenario and write trace files")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="path to a scenario JSON file")
    src.add_argument("--builtin", help=builtin_help)
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
    p_filters.add_argument(
        "--threshold", type=float, default=FilterParams.trigger_threshold, help="trigger threshold in dB"
    )
    p_filters.add_argument(
        "--threshold-sweep", dest="threshold_sweep", default=None, help="LO:HI:STEP sweep of thresholds"
    )
    p_filters.add_argument(
        "--movements", default=None, help="comma list of known movement ticks for latency stats"
    )
    p_filters.add_argument(
        "--settle-window",
        type=int,
        default=MOVEMENT_SETTLE_WINDOW,
        help="ticks after a movement not counted static",
    )
    p_filters.add_argument(
        "--cooldown", type=int, default=FilterParams.trigger_cooldown, help="trigger cooldown in ticks"
    )
    p_filters.add_argument(
        "--warmup", type=int, default=FilterParams.warmup, help="samples skipped before triggering"
    )
    p_filters.add_argument("--out", default=None, help="directory for report and smoothed CSVs")
    p_filters.set_defaults(func=cmd_filters)

    p_check = sub.add_parser("check", help="run the acceptance checks for a builtin scenario")
    p_check.add_argument("--builtin", required=True, help=builtin_help)
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
    except Exception as exc:  # an OSError of the output directory among them
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
