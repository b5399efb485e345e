"""Acceptance checks: executable versions of the protocol's target behaviors.

`CRITERIA` is the one registry of them: criteria 1-9 in order, then the
single-liar containment check. Each entry names its criterion, the built-in
its check runs and whose `polsim check --builtin` runs it (or none), and its
check. `Criterion.run` hands a check its entry's built-in, so a built-in is
named once, in the registry. A check returns its pass detail and raises
`CheckFailed` at its first failure; `Criterion.run` turns either into the
`CheckResult` whose line both the CLI and the acceptance test print.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Iterator, Optional

from .filters import KalmanState, kalman_step, make_filter
from .harness import RunResult, chunk_lines, run
from .localization import PathLossModel, multilaterate, rssi_value_from_distance
from .messages import BftMessage, BftRef, AlertMessage, AlertType, Location, NodeId, Rssi, TrustScore
from .protocol import (
    BFT_ABOUT_B,
    DISTRUST_B,
    IGNORE,
    SELF_DISTRUST,
    SELF_DEFENSE_TABLE,
    FilterParams,
    NodeState,
    ProtocolParams,
)
from .scenario import builtin_scenario
from .topology import PeerRecord

ACCEPTANCE_SEEDS = tuple(range(1, 11))
RUNTIME_BUDGET_S = 5.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


class CheckFailed(Exception):
    """A check's first failure; the message is the FAIL line's detail."""


@dataclass(frozen=True)
class Criterion:
    name: str
    builtin: Optional[str]  # the built-in the check runs and whose `polsim check` runs it, if any
    check: Callable[..., str]  # takes the built-in, if any; returns the pass detail or raises CheckFailed

    def run(self) -> CheckResult:
        try:
            detail = self.check() if self.builtin is None else self.check(self.builtin)
            return CheckResult(self.name, True, detail)
        except CheckFailed as failure:
            return CheckResult(self.name, False, str(failure))


def _budgeted_runs(builtin: str) -> Iterator[tuple[int, RunResult, float]]:
    """`builtin` run untraced on each acceptance seed, as (seed, result,
    seconds); raises CheckFailed at the first run that takes the budget."""
    for seed in ACCEPTANCE_SEEDS:
        t0 = time.perf_counter()
        res = run(builtin_scenario(builtin, seed=seed), collect_rssi=False)
        elapsed = time.perf_counter() - t0
        if elapsed >= RUNTIME_BUDGET_S:
            raise CheckFailed(f"seed {seed} took {elapsed:.2f}s >= {RUNTIME_BUDGET_S}s")
        yield seed, res, elapsed


def check_movement_detection(builtin: str) -> str:
    """Each static node emits 1..2 BFT messages about the mover within 60
    ticks of each movement, on every seed, within the runtime budget."""
    for seed, res, elapsed in _budgeted_runs(builtin):
        bfts = res.bft_events()
        for mover, at in [(m["node"], m["at"]) for m in res.metrics.movements]:
            for observer in [label for label in res.nodes if label != mover]:
                count = sum(
                    1
                    for e in bfts
                    if e.node == observer
                    and e.details["subject"] == mover
                    and at < e.tick <= at + 60
                )
                if not 1 <= count <= 2:
                    raise CheckFailed(
                        f"seed {seed}: {observer} sent {count} BFT about {mover} in ({at}, {at + 60}]"
                    )
    return (
        f"1..2 BFT per static node within 60 ticks of both movements on {len(ACCEPTANCE_SEEDS)} seeds "
        f"(last seed {seed}: {elapsed:.2f}s/run)"
    )


def check_zero_false_positives(builtin: str) -> str:
    """Static honest network: not a single BFT or alert over the whole run."""
    for seed, res, _elapsed in _budgeted_runs(builtin):
        n_bft = len(res.bft_events())
        n_alert = len(res.alert_events())
        if n_bft or n_alert:
            raise CheckFailed(f"seed {seed}: {n_bft} BFT and {n_alert} alerts in static honest run")
    return f"0 BFT and 0 alerts across {len(ACCEPTANCE_SEEDS)} static seeds"


def _paired_diffs(res: RunResult) -> list[float]:
    directed: dict[tuple[str, str, str], float] = {}
    for line in chunk_lines(res.rssi_chunks):
        tick, receiver, sender, raw, _ = line.split(",")
        directed[(tick, sender, receiver)] = float(raw)
    diffs = []
    for (tick, sender, receiver), value in directed.items():
        if sender < receiver:
            other = directed.get((tick, receiver, sender))
            if other is not None:
                diffs.append(abs(value - other))
    return diffs


def check_rssi_symmetry(builtin: str) -> str:
    """|RSSI_AB - RSSI_BA| <= 5 dB: exactly under zero noise, for >= 99% of
    paired samples under default noise. The raw values are read from the
    run's rssi.csv lines, so to their 6 trace decimals."""
    seed = 42
    worst0 = 0.0
    for quiet_seed in (seed - 1, seed, seed + 1):  # different per-link jitter draws
        quiet = builtin_scenario(builtin, seed=quiet_seed).with_channel(noise_sigma=0.0)
        res0 = run(quiet, collect_rssi=True)
        diffs0 = _paired_diffs(res0)
        worst0 = max(worst0, max(diffs0) if diffs0 else 0.0)
        if worst0 > 5.0:
            raise CheckFailed(f"zero-noise max pairwise diff {worst0:.2f} dB > 5 (seed {quiet_seed})")
    res1 = run(builtin_scenario(builtin, seed=seed), collect_rssi=True)
    diffs1 = _paired_diffs(res1)
    within = sum(1 for d in diffs1 if d <= 5.0) / len(diffs1)
    if within < 0.99:
        raise CheckFailed(f"only {within:.2%} of noisy paired samples within 5 dB")
    return (
        f"zero-noise max {worst0:.2f} dB over 3 seeds; "
        f"{within:.2%} of {len(diffs1)} noisy pairs within 5 dB"
    )


# -- decision tree -------------------------------------------------------------

_A = NodeId.from_str("0a:00:00:00:00:01")
_B = NodeId.from_str("0b:00:00:00:00:02")
_EXTRA = [NodeId.from_str(f"0c:00:00:00:00:{i:02x}") for i in range(3, 7)]

# the five fixed rows; every other (c, h, dB, dSelf) combination is ignored
EXPECTED_FIXED_ROWS = {
    (True, False, True, False): BFT_ABOUT_B,
    (True, False, True, True): BFT_ABOUT_B,
    (True, False, False, True): SELF_DISTRUST,
    (False, True, True, False): BFT_ABOUT_B,
    (False, False, True, False): DISTRUST_B,
}


def _craft_state(c: bool, h: bool, db: bool, dself: bool) -> tuple[NodeState, BftMessage]:
    """Build a node whose self-defense predicates evaluate to the given tuple."""
    params = ProtocolParams(tau=2, bft_window=200)
    state = NodeState(
        self_id=_A,
        self_location=Location(0.0, 0.0, 0.0),
        params=params,
        filter_params=FilterParams(warmup=1),
    )
    state.store.add_peer(PeerRecord(id=_B, location=Location(3.0, 0.0, 0.0)))
    if dself:
        state.on_moved(Location(0.0, 0.0, 0.0), 0, announce=True)
    # feed the B link so the smoothed value sits near -50
    for t in range(1, 9):
        state.ingest_sample(_B, -50.0, t)
    smoothed = state.smoothed_rssi(_B)
    assert smoothed is not None and abs(smoothed + 50.0) < 1.0
    if not h:
        # append raw history far from the smoothed value, bypassing the filter
        for t in range(9, 9 + params.history_window):
            state.store.record_rssi(_B, t, -80.0)
    if db:
        state.store.peers[_B].trust = TrustScore(0.05)
    now = 40
    claimed = smoothed if c else smoothed - 30.0
    msg = BftMessage(
        sender=_B,
        sender_location=Location(3.0, 0.0, 0.0),
        subject=_A,
        measured_rssi=Rssi(claimed),
        ref_seq=None,
        timestamp=now,
    )
    return state, msg


def _outcome_of(actions) -> str:
    for action in actions:
        if isinstance(action, BftMessage):
            return BFT_ABOUT_B
        if isinstance(action, AlertMessage):
            if action.alert_type == AlertType.SELF_DISTRUST:
                return SELF_DISTRUST
            return DISTRUST_B
    return IGNORE


def check_decision_tree() -> str:
    """self_defense over all 16 predicate tuples matches the fixed table."""
    t0 = time.perf_counter()
    for tup in product((True, False), repeat=4):
        expected = EXPECTED_FIXED_ROWS.get(tup, IGNORE)
        if SELF_DEFENSE_TABLE[tup] != expected:
            raise CheckFailed(f"shipped table wrong at {tup}")
        state, msg = _craft_state(*tup)
        inputs = state.self_defense_inputs(msg, 40)
        if inputs != tup:
            raise CheckFailed(f"crafted predicates {inputs} != intended {tup}")
        outcome = _outcome_of(state.self_defense(msg, 40))
        if outcome != expected:
            raise CheckFailed(f"{tup} -> {outcome}, expected {expected}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        raise CheckFailed(f"took {elapsed:.2f}s >= 1s")
    return f"all 16 rows match, 5 action rows exact ({elapsed:.2f}s)"


def check_trust_arithmetic() -> str:
    """Rejecting a distrust alert moves exactly 4 trust scores by one step."""
    c_id = NodeId.from_str("0c:00:00:00:00:99")
    accuser = _A
    accused = _B
    participants = _EXTRA[:3]
    state = NodeState(self_id=c_id, self_location=Location(0.0, 0.0, 0.0))
    step = state.params.trust_step
    for node in [accuser, accused, *participants, _EXTRA[3]]:
        state.store.add_peer(PeerRecord(id=node, trust=TrustScore(0.5)))
    for i, participant in enumerate(participants):
        state.store.register_bft(participant, accuser, 10 + i, 10 + i)
    # the referenced BFT from the accused was never observed -> reject
    alert = AlertMessage(
        sender=accuser,
        alert_type=AlertType.DISTRUST,
        object=accused,
        ref_bft=BftRef(accused, accuser, 5),
        timestamp=20,
    )
    before = {n: state.store.peers[n].trust.value for n in state.store.peers}
    state.receive_alert(alert, None, 20)
    after = {n: state.store.peers[n].trust.value for n in state.store.peers}
    changed = {n for n in before if before[n] != after[n]}
    expect_changed = {accuser, *participants}
    if changed != expect_changed:
        raise CheckFailed(f"changed {sorted(map(str, changed))}")
    if abs(after[accuser] - (0.5 - step)) > 1e-12:
        raise CheckFailed(f"accuser trust {after[accuser]}")
    for participant in participants:
        if abs(after[participant] - (0.5 + step)) > 1e-12:
            raise CheckFailed(f"participant trust {after[participant]}")
    if after[accused] != 0.5 or after[_EXTRA[3]] != 0.5:
        raise CheckFailed("bystander trust moved")

    # clamp: participant already at 1.0 stays at 1.0, accuser at 0.05 floors at 0
    state2 = NodeState(self_id=c_id, self_location=Location(0.0, 0.0, 0.0))
    state2.store.add_peer(PeerRecord(id=accuser, trust=TrustScore(0.05)))
    state2.store.add_peer(PeerRecord(id=accused, trust=TrustScore(0.5)))
    state2.store.add_peer(PeerRecord(id=participants[0], trust=TrustScore(1.0)))
    state2.store.register_bft(participants[0], accuser, 10, 10)
    state2.receive_alert(alert, None, 20)
    if state2.store.peers[accuser].trust.value != 0.0:
        raise CheckFailed("accuser trust did not clamp to 0")
    if state2.store.peers[participants[0]].trust.value != 1.0:
        raise CheckFailed("participant trust escaped 1.0")
    return "reject moved exactly 4 scores by one step; clamping exact"


def check_spoof_detection(builtin: str) -> str:
    """Identity spoofing is flagged by more than tau distinct honest nodes,
    tau being the largest an honest node resolves at the deadline."""
    res = run(builtin_scenario(builtin, seed=42), collect_rssi=False)
    attack_at = res.metrics.attacks[0]["at"]
    victim = res.metrics.attacks[0]["params"]["victim"]
    deadline = attack_at + 120
    emitters = {
        e.node
        for e in res.bft_events()
        if e.details["subject"] == victim and attack_at < e.tick <= deadline
    }
    emitters.discard(victim)
    honest = {label: node for label, node in res.nodes.items() if label != victim}
    tau = max(node.tau(deadline) for node in honest.values())
    if len(emitters) <= tau:
        raise CheckFailed(f"only {sorted(emitters)} flagged {victim} within 120 ticks (tau={tau})")
    victim_id = res.nodes[victim].self_id
    distrusting = [label for label, node in honest.items() if node.distrust(victim_id, deadline)]
    if not distrusting:
        raise CheckFailed("no honest node distrusts the victim")
    return f"{len(emitters)} honest nodes sent BFT about {victim} (tau={tau}); distrusted by {distrusting}"


def check_localization_oracle() -> str:
    """Multilateration recovers 100 random in-hull targets to 1e-6 m."""
    t0 = time.perf_counter()
    model = PathLossModel()
    hull = [
        Location(0.0, 0.0, 0.0),
        Location(4.0, 0.0, 0.0),
        Location(0.0, 4.0, 0.0),
        Location(0.0, 0.0, 4.0),
    ]
    rng = random.Random(2024)
    worst = 0.0
    done = 0
    while done < 100:
        weights = [rng.random() for _ in hull]
        total = sum(weights)
        target = Location(
            sum(w * p.x for w, p in zip(weights, hull)) / total,
            sum(w * p.y for w, p in zip(weights, hull)) / total,
            sum(w * p.z for w, p in zip(weights, hull)) / total,
        )
        if min(target.distance_to(p) for p in hull) < 0.1:
            continue
        anchors = [(p.x, p.y, p.z, rssi_value_from_distance(model, target.distance_to(p))) for p in hull]
        result = multilaterate(anchors, model)
        err = result.position.distance_to(target)
        worst = max(worst, err)
        if err > 1e-6:
            raise CheckFailed(f"target {target.as_tuple()} error {err:.2e} m")
        done += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        raise CheckFailed(f"took {elapsed:.2f}s >= 1s")
    return f"100 targets recovered, worst error {worst:.2e} m ({elapsed:.2f}s)"


def check_filter_oracles() -> str:
    """Kalman matches an independent recursion; the cascade kills lone spikes."""
    rng = random.Random(99)
    steps = 0
    while steps < 10_000:
        q = rng.uniform(0.0, 0.5)
        r = rng.uniform(0.5, 8.0)
        state = KalmanState(q=q, r=r)
        x = p = None
        for _ in range(500):
            z = rng.uniform(-100.0, -30.0)
            got = kalman_step(state, z)
            if x is None:
                x, p = z, r
            else:
                p = p + q
                k = p / (p + r)
                x = x + k * (z - x)
                p = (1.0 - k) * p
            if abs(got - x) > 1e-9:
                raise CheckFailed(f"kalman drift {abs(got - x):.2e} at step {steps}")
            steps += 1

    for trial in range(1000):
        level = rng.uniform(-90.0, -35.0)
        length = rng.randint(20, 60)
        spike_at = rng.randint(5, length - 1)
        spike = level + (20.0 if rng.random() < 0.5 else -20.0)
        smooth = make_filter("median_kalman", {"window": 5})
        worst = 0.0
        for i in range(length):
            value = spike if i == spike_at else level
            out = smooth(value)
            worst = max(worst, abs(out - level))
        if worst > 1.0:
            raise CheckFailed(f"spike trial {trial}: deviation {worst:.2f} dB > 1")
    return "kalman matches oracle over 10^4 steps; 1000 spike streams within 1 dB"


def check_determinism(builtin: str) -> str:
    """`polsim run --builtin <builtin> --seed 7` in two interpreters, under
    hash seeds 0 and 1, writes byte-identical files. The children import
    this copy of polsim, whatever is installed."""
    names = ("rssi.csv", "events.jsonl", "metrics.json")
    package_dir = str(Path(__file__).resolve().parents[1])  # where the imported polsim sits
    pythonpath = os.pathsep.join(filter(None, (package_dir, os.environ.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "polsim.cli", "run", "--builtin", builtin, "--seed", "7", "--out"]
    with tempfile.TemporaryDirectory() as workdir:
        dirs = [Path(workdir) / f"hash{hash_seed}" for hash_seed in (0, 1)]
        for hash_seed, out in enumerate(dirs):
            env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": pythonpath}
            proc = subprocess.run([*argv, str(out)], env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise CheckFailed(f"hash seed {hash_seed}: exit {proc.returncode}: {proc.stderr.strip()}")
        for name in names:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                raise CheckFailed(f"{name} differs between hash seeds 0 and 1")
    return f"{', '.join(names)} byte-identical for seed 7"


def check_malicious_bft(builtin: str) -> str:
    """A single lying BFT emitter cannot flip distrust or trigger alerts."""
    res = run(builtin_scenario(builtin, seed=42), collect_rssi=False)
    victim = res.metrics.attacks[0]["params"]["victim"]
    victim_id = res.nodes[victim].self_id
    alerts = res.alert_events()
    if alerts:
        raise CheckFailed(f"{len(alerts)} alerts raised")
    flipped = [
        label
        for label, node in res.nodes.items()
        if label != victim and node.distrust(victim_id, res.metrics.duration)
    ]
    if flipped:
        raise CheckFailed(f"distrust flipped at {flipped}")
    trust_ok = all(
        abs(t.get(victim, 1.0) - 1.0) < 1e-12
        for label, t in res.metrics.trust_final.items()
        if label != victim
    )
    if not trust_ok:
        raise CheckFailed("victim trust changed")
    return "single liar registered but no distrust flip, no alerts, trust intact"


CRITERIA = (
    Criterion("movement-detection", "paper-fig7", check_movement_detection),
    Criterion("zero-false-positives", "static-honest", check_zero_false_positives),
    Criterion("rssi-symmetry", "paper-fig7", check_rssi_symmetry),
    Criterion("decision-tree", None, check_decision_tree),
    Criterion("trust-arithmetic", None, check_trust_arithmetic),
    Criterion("spoof-detection", "spoof-attack", check_spoof_detection),
    Criterion("localization-oracle", None, check_localization_oracle),
    Criterion("filter-oracles", None, check_filter_oracles),
    Criterion("determinism", "paper-fig7", check_determinism),
    Criterion("malicious-bft", "malicious-bft", check_malicious_bft),
)
