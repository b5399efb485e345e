"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads builtins,soak-9k] [--out FILE]

For each workload and end-to-end metric it prints the median of the runs and
the distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound in
BENCHMARK.json. `--trace 1` collects one traced run per workload instead.
`--out` writes every run's full output plus the machine description as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": SPEC["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']}", file=sys.stderr, flush=True)
        summary = {}
        if args.trace == 0 and len(runs) >= 2:
            for name in bounds:
                values = [r["metrics"][name]["value"] for r in runs]
                summary[name] = {"median": statistics.median(values), "spread": spread(values),
                                 "bound": bounds[name]}
                print(f"{workload:13s} {name:17s} median {summary[name]['median']:12.5g} "
                      f"spread {summary[name]['spread']:6.3f} bound {bounds[name]}", flush=True)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
