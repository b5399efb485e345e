"""The four benchmark workloads, their run units and the trace-identity oracle.

A workload turns the bench seed into inputs and builds, in `setup`, the runs
of one iteration. Each simulation run or CLI invocation is one *run*; every
run names its inputs with a run id (for example
`paper-fig7/seed=3/ticks=900`), and the SHA-256 of every trace file it
produces is compared with `references.json` under that id. A run fails when
a hash differs, when `RunResult.verify_counts` raises, or when the CLI exits
non-zero.

The bench seed picks one of ten input variants, `(seed - 1) % 10 + 1`, so
every run a seed can produce has a stored reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

import polsim.cli
import polsim.harness
import polsim.scenario
from polsim.filters import FILTER_NAMES

from dense import dense_scenario

VARIANTS = 10
REFERENCES = Path(__file__).resolve().parent / "references.json"


def variant(seed: int) -> int:
    return (seed - 1) % VARIANTS + 1


def sim_seeds(seed: int, count: int) -> list[int]:
    """`count` consecutive input variants starting at the seed's own."""
    return [(variant(seed) - 1 + k) % VARIANTS + 1 for k in range(count)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_hashes(directory: Path, names: list[str]) -> dict[str, str]:
    return {name: sha256((directory / name).read_bytes()) for name in names}


def load_references() -> dict[str, dict[str, str]]:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def problems(outcome: Outcome, refs: dict[str, dict[str, str]]) -> list[str]:
    """Why a run failed: its error, or each file whose hash differs from its reference."""
    if outcome.error is not None:
        return [f"{outcome.run_id}: {outcome.error}"]
    return mismatches(outcome.run_id, outcome.hashes, refs)


def mismatches(run_id: str, got: dict[str, str], refs: dict[str, dict[str, str]]) -> list[str]:
    """One line per file of `run_id` whose hash differs from (or lacks) its reference."""
    want = refs.get(run_id)
    if want is None:
        return [f"{run_id}: no reference"]
    out = [f"{run_id} {name}: {got.get(name)} != {digest}" for name, digest in want.items() if got.get(name) != digest]
    out += [f"{run_id} {name}: unexpected file" for name in got if name not in want]
    return out


# -- scenarios -----------------------------------------------------------------


def builtin_at(name: str, seed: int, ticks: int) -> polsim.scenario.Scenario:
    """A built-in scenario, stretched to `ticks` through the validating loader."""
    scenario = polsim.scenario.builtin_scenario(name, seed=seed)
    if ticks == scenario.duration:
        return scenario
    doc = scenario.to_dict()
    doc["duration"] = ticks
    return polsim.scenario.Scenario.from_dict(doc)


# -- run units -------------------------------------------------------------------


@dataclass
class Outcome:
    """Result of one run: host seconds spent in the program and what it produced."""

    run_id: str
    started: float  # perf_counter() when the program call began
    seconds: float
    hashes: dict[str, str] = field(default_factory=dict)
    receptions: int = 0
    rows: int = 0
    error: Optional[str] = None


@dataclass
class SimRun:
    """One `harness.run` call; traces are written when `out_dir` is set."""

    run_id: str
    scenario: polsim.scenario.Scenario
    out_dir: Optional[Path]
    collect_rssi: bool

    def execute(self) -> Outcome:
        start = perf_counter()
        try:
            result = polsim.harness.run(
                self.scenario,
                out_dir=str(self.out_dir) if self.out_dir is not None else None,
                collect_rssi=self.collect_rssi,
            )
        except Exception as exc:  # verify_counts raises AssertionError
            return Outcome(self.run_id, start, perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        counts = result.metrics.counts.values()
        receptions = sum(c["payload_recv"] + c["bft_recv"] + c["alert_recv"] for c in counts)
        if self.out_dir is not None:
            names = ["events.jsonl"] + (["rssi.csv"] if self.collect_rssi else [])
            hashes = file_hashes(self.out_dir, names)
        else:
            events = "".join(event.to_json() + "\n" for event in result.events)
            hashes = {"events.jsonl": sha256(events.encode("utf-8"))}
        return Outcome(self.run_id, start, seconds, hashes, receptions=receptions, rows=receptions)


@dataclass
class FilterSweepRun:
    """One `polsim filters` invocation through `cli.main` over a recorded trace."""

    run_id: str
    trace: Path
    out_dir: Path
    movements: tuple[int, ...]
    rows: int

    def argv(self) -> list[str]:
        return [
            "filters",
            "--trace", str(self.trace),
            "--filter", ",".join(FILTER_NAMES),
            "--threshold-sweep", "2:10:2",
            "--movements", ",".join(str(m) for m in self.movements),
            "--out", str(self.out_dir),
        ]

    def execute(self) -> Outcome:
        stdout = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = polsim.cli.main(self.argv())
        seconds = perf_counter() - start
        if code != 0:
            return Outcome(self.run_id, start, seconds, error=f"polsim filters exited {code}")
        report = json.loads((self.out_dir / "filter_report.json").read_text(encoding="utf-8"))
        report.pop("trace")  # the input path depends on where the bench runs
        hashes = {"filter_report.json": sha256(json.dumps(report, sort_keys=True).encode("utf-8"))}
        hashes.update(file_hashes(self.out_dir, [f"smoothed_{name}.csv" for name in FILTER_NAMES]))
        return Outcome(self.run_id, start, seconds, hashes, receptions=self.rows, rows=self.rows)


# -- workloads --------------------------------------------------------------------


@dataclass(frozen=True)
class Size:
    seeds: int = 2               # simulation seeds per iteration of builtins and dense-20
    dense_nodes: int = 20
    dense_ticks: int = 300
    soak_ticks: int = 9000
    sweep_ticks: int = 3600


SIZES = {
    "full": Size(),
    "tiny": Size(seeds=1, dense_nodes=8, dense_ticks=100, soak_ticks=1200, sweep_ticks=900),
}


@dataclass
class Prepared:
    """Set-up output: the runs of one iteration, and how many filters each row passes."""

    runs: list[Any]
    filters_per_row: int = 1
    setup_outcomes: list[Outcome] = field(default_factory=list)


class Workload:
    name = ""
    why = ""

    def __init__(self, size: Size, work: Path):
        self.size = size
        self.work = work

    def setup(self, seed: int) -> Prepared:
        raise NotImplementedError

    def reference_runs(self, v: int) -> list[Any]:
        """The runs whose hashes the oracle stores for input variant `v`."""
        return self.setup(v).runs


class Builtins(Workload):
    name = "builtins"
    why = "the 4 built-ins at 900 ticks with traces written: protocol logic, harness and trace writing"

    def setup(self, seed: int) -> Prepared:
        runs = []
        for sim_seed in sim_seeds(seed, self.size.seeds):
            for name in polsim.scenario.BUILTIN_NAMES:
                scenario = polsim.scenario.builtin_scenario(name, seed=sim_seed)
                run_id = f"{name}/seed={sim_seed}/ticks={scenario.duration}"
                runs.append(SimRun(run_id, scenario, self.work / f"{name}-{sim_seed}", True))
        return Prepared(runs)



class Dense(Workload):
    name = "dense-20"
    why = "20 random nodes, one mover, 2 noise seeds, no trace files: channel delivery and per-link smoothing dominate"

    # One layout for every seed: across layouts the work differs by up to
    # 1.5x (whether the move is noticed at all, how many multilaterations
    # follow), which would drown a 20% bound. The seed drives the noise.
    LAYOUT_SEED = 1

    def setup(self, seed: int) -> Prepared:
        n, ticks = self.size.dense_nodes, self.size.dense_ticks
        runs = []
        for noise_seed in sim_seeds(seed, self.size.seeds):
            scenario = dense_scenario(n, self.LAYOUT_SEED, noise_seed, ticks)
            run_id = f"dense-{n}/layout={self.LAYOUT_SEED}/seed={noise_seed}/ticks={ticks}"
            runs.append(SimRun(run_id, scenario, None, False))
        return Prepared(runs)



class Soak(Workload):
    name = "soak-9k"
    why = "malicious-bft at 9000 ticks with traces: state growth, BFT-log scans, memory and trace writing"

    def setup(self, seed: int) -> Prepared:
        v, ticks = variant(seed), self.size.soak_ticks
        scenario = builtin_at("malicious-bft", v, ticks)
        return Prepared([SimRun(f"malicious-bft/seed={v}/ticks={ticks}", scenario, self.work / "soak", True)])


class FilterSweep(Workload):
    name = "filter-sweep"
    why = "polsim filters over a recorded fig7 trace, 7 filters x 5 thresholds: offline filter path only"

    def recording(self, v: int) -> SimRun:
        ticks = self.size.sweep_ticks
        scenario = builtin_at("paper-fig7", v, ticks)
        return SimRun(f"paper-fig7/seed={v}/ticks={ticks}", scenario, self.work / "sweep-input", True)

    def sweep(self, record: SimRun, rows: int) -> FilterSweepRun:
        return FilterSweepRun(
            f"filters/paper-fig7/seed={record.scenario.seed}/ticks={record.scenario.duration}",
            record.out_dir / "rssi.csv",
            self.work / "sweep-out",
            tuple(mv.at for mv in record.scenario.movements),
            rows,
        )

    def setup(self, seed: int) -> Prepared:
        record = self.recording(variant(seed))
        recorded = record.execute()
        return Prepared(
            [self.sweep(record, recorded.rows)],
            filters_per_row=len(FILTER_NAMES),
            setup_outcomes=[recorded],
        )

    def reference_runs(self, v: int) -> list[Any]:
        record = self.recording(v)
        return [record, _SweepWithInput(self, record)]


@dataclass
class _SweepWithInput:
    """The sweep of one input variant, recording its input trace first."""

    workload: FilterSweep
    record: SimRun

    @property
    def run_id(self) -> str:
        return self.workload.sweep(self.record, 0).run_id

    def execute(self) -> Outcome:
        recorded = self.record.execute()
        if recorded.error is not None:
            return recorded
        return self.workload.sweep(self.record, recorded.rows).execute()


WORKLOADS: dict[str, Callable[[Size, Path], Workload]] = {
    w.name: w for w in (Builtins, Dense, Soak, FilterSweep)
}


def reference_runs(work: Path) -> Iterator[Any]:
    """Every run the oracle stores, both sizes, all input variants, each once."""
    seen: set[str] = set()
    for size in SIZES.values():
        for make in WORKLOADS.values():
            workload = make(size, work)
            for v in range(1, VARIANTS + 1):
                for run in workload.reference_runs(v):
                    if run.run_id not in seen:
                        seen.add(run.run_id)
                        yield run


def reference_table(work: Path, progress: Callable[[str], None]) -> dict[str, dict[str, str]]:
    """Hashes of every run of `reference_runs`."""
    table: dict[str, dict[str, str]] = {}
    for run in reference_runs(work):
        outcome = run.execute()
        if outcome.error is not None:
            raise RuntimeError(f"{run.run_id}: {outcome.error}")
        table[run.run_id] = outcome.hashes
        progress(run.run_id)
    return dict(sorted(table.items()))
