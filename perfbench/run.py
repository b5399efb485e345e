"""polsim benchmark: host time per workload, per-layer attribution, trace identity.

Run from the repository root:

    python3 perfbench/run.py --workload builtins --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` times untraced iterations and
prints the end-to-end metrics; `--trace 1` times one untraced iteration, then
repeats it with every layer wrapped, and prints the per-layer metrics with the
tracing overhead (both iterations in reference seconds). See perfbench/README.md for the metric dictionary.

Other modes:

    python3 perfbench/run.py --check-references [RUN_ID_PREFIX ...]
    python3 perfbench/run.py --write-references
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

import calibrate

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SETUP_MIN_REPEATS = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX_REPEATS = 2000


def import_polsim() -> None:
    """Put the checkout's `src` first on the path; refuse any other polsim."""
    src = ROOT / "src"
    if not (src / "polsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/polsim under {ROOT}; run from the repository root")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH))
    import polsim

    if Path(polsim.__file__).resolve().parent != (src / "polsim").resolve():
        sys.exit(f"perfbench: imported polsim from {polsim.__file__}, not {src}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the bench's self-tests")
    parser.add_argument("--spans-out", help="write the traced span table (JSON) to this file")
    parser.add_argument("--check-references", nargs="*", metavar="PREFIX",
                        help="recompute stored trace hashes (all, or run ids with these prefixes)")
    parser.add_argument("--write-references", action="store_true",
                        help="regenerate references.json (only for an intended behaviour change)")
    args = parser.parse_args(argv)
    if args.check_references is None and not args.write_references and args.workload is None:
        parser.error("--workload is required")
    return args


class Ledger:
    """Counts runs and failures; failures are named on stderr."""

    def __init__(self, refs: dict[str, dict[str, str]]):
        self.refs = refs
        self.attempted = 0
        self.failed = 0

    def check(self, outcome) -> None:
        from workloads import problems

        self.attempted += 1
        found = problems(outcome, self.refs)
        for line in found:
            print(f"perfbench: FAILED {line}", file=sys.stderr)
        self.failed += bool(found)


def timed_setup(workload, seed: int, ledger: Ledger, speed: calibrate.SpeedTrace):
    """Set up repeatedly; returns the last set-up and the median scaled set-up time."""
    times = []
    while True:
        start = perf_counter()
        prepared = workload.setup(seed)
        # a recorded input trace is hashed after its run; that is not set-up
        end = max((o.started + o.seconds for o in prepared.setup_outcomes), default=perf_counter())
        times.append(speed.scaled(start, end - start)[1])
        for outcome in prepared.setup_outcomes:
            ledger.check(outcome)
        if len(times) >= SETUP_MAX_REPEATS or (
            len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_BUDGET_S
        ):
            return prepared, statistics.median(times)


def iterate(prepared, ledger: Ledger, speed: Optional[calibrate.SpeedTrace] = None):
    """Run every run of one iteration.

    Returns (host seconds, scaled seconds, receptions, rows). The times cover
    the program calls only, not the hashing of their output nor the
    calibration passes; without `speed` both times are plain host time.
    """
    host_s, scaled_s, receptions, rows = 0.0, 0.0, 0, 0
    for run in prepared.runs:
        outcome = run.execute()
        ledger.check(outcome)
        program, scaled = speed.scaled(outcome.started, outcome.seconds) if speed else (
            outcome.seconds, outcome.seconds)
        host_s += program
        scaled_s += scaled
        receptions += outcome.receptions
        rows += outcome.rows
    return host_s, scaled_s, receptions, rows


def measure(workload, seed: int, seconds: float, ledger: Ledger) -> dict[str, tuple[float, str]]:
    speed = calibrate.SpeedTrace()
    speed.start()
    try:
        prepared, setup_s = timed_setup(workload, seed, ledger, speed)
        host, scaled = [], []
        deadline = perf_counter() + seconds
        while not scaled or perf_counter() < deadline:
            host_s, scaled_s, receptions, rows = iterate(prepared, ledger, speed)
            host.append(host_s)
            scaled.append(scaled_s)
    finally:
        speed.stop()
    wall_s = statistics.median(scaled)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = [s for _, _, s in speed.passes]
    print(f"perfbench: {len(scaled)} iterations, host wall median {statistics.median(host):.4f} s, "
          f"{len(passes)} calibration passes, median {statistics.median(passes) * 1e3:.3f} ms "
          f"(reference {calibrate.REFERENCE_S * 1e3:.3f} ms)", file=sys.stderr)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "receptions_per_s": (receptions / wall_s, "1/s"),
        "samples_per_s": (rows * prepared.filters_per_row / wall_s, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def measure_traced(workload, seed: int, ledger: Ledger, spans_out):
    import tracer

    tr = tracer.Tracer()
    tracer.install_scenario(tr)
    try:
        prepared = workload.setup(seed)
    finally:
        tr.uninstall()
    for outcome in prepared.setup_outcomes:
        ledger.check(outcome)
    speed = calibrate.SpeedTrace()
    speed.start()
    try:
        _, untraced_s, _, _ = iterate(prepared, ledger, speed)
        tracer.install(tr)
        try:
            _, traced_s, _, _ = iterate(prepared, ledger, speed)
        finally:
            tr.uninstall()
        metrics = tracer.layer_metrics(
            tr, untraced_s, traced_s, lambda start, seconds: speed.scaled(start, seconds)[1]
        )
    finally:
        speed.stop()
    leftovers = tr.leftovers()
    for name in leftovers:
        print(f"perfbench: FAILED wrapper left installed on {name}", file=sys.stderr)
    if spans_out:
        Path(spans_out).write_text(json.dumps(tr.span_table(), indent=1) + "\n", encoding="utf-8")
    return metrics, not leftovers


def check_references(prefixes: list[str], work: Path) -> int:
    from workloads import load_references, problems, reference_runs

    refs = load_references()
    wanted = {rid for rid in refs if not prefixes or any(rid.startswith(p) for p in prefixes)}
    checked = differ = 0
    for run in reference_runs(work):
        if run.run_id not in wanted:
            continue
        wanted.discard(run.run_id)
        found = problems(run.execute(), refs)
        for line in found:
            print(f"MISMATCH {line}")
        checked += 1
        differ += bool(found)
        print(f"{'BAD' if found else 'ok '} {run.run_id}", file=sys.stderr)
    for rid in sorted(wanted):
        print(f"MISMATCH {rid}: stored but no workload produces it")
    print(f"checked {checked} runs, {differ + len(wanted)} differ")
    return 1 if differ or wanted else 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import_polsim()
    from workloads import REFERENCES, SIZES, WORKLOADS, load_references, reference_table

    work = BENCH / ".work" / str(os.getpid())
    try:
        if args.write_references:
            table = reference_table(work, lambda rid: print(rid, file=sys.stderr))
            REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            return 0
        if args.check_references is not None:
            return check_references(args.check_references, work)
        if args.workload not in WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload](SIZES[args.size], work)
        ledger = Ledger(load_references())
        if args.trace:
            metrics, unwrapped = measure_traced(workload, args.seed, ledger, args.spans_out)
        else:
            metrics, unwrapped = measure(workload, args.seed, args.seconds, ledger), True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other bench process is using it
    print(json.dumps({
        "correct": ledger.failed == 0 and unwrapped,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
