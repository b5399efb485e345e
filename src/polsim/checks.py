"""Acceptance checks: executable versions of the protocol's target behaviors.

Each check returns a CheckResult so both the CLI (`polsim check`) and the
test suite can run the same assertions and report one line per criterion.
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .filters import KalmanState, kalman_step, make_filter
from .harness import RunResult, run
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


def _movement_windows(res: RunResult) -> list[tuple[str, int]]:
    return [(m["node"], m["at"]) for m in res.metrics.movements]


def check_movement_detection(seeds=ACCEPTANCE_SEEDS) -> CheckResult:
    """Each static node emits 1..2 BFT messages about the mover within 60
    ticks of each movement, on every seed, within the runtime budget."""
    worst = ""
    for seed in seeds:
        t0 = time.perf_counter()
        res = run(builtin_scenario("paper-fig7", seed=seed), collect_rssi=False)
        elapsed = time.perf_counter() - t0
        if elapsed >= RUNTIME_BUDGET_S:
            return CheckResult(
                "movement-detection", False, f"seed {seed} took {elapsed:.2f}s >= {RUNTIME_BUDGET_S}s"
            )
        bfts = res.bft_events()
        for mover, at in _movement_windows(res):
            for observer in ("n1", "n2", "n3", "n4"):
                count = sum(
                    1
                    for e in bfts
                    if e.node == observer
                    and e.details["subject"] == mover
                    and at < e.tick <= at + 60
                )
                if not 1 <= count <= 2:
                    return CheckResult(
                        "movement-detection",
                        False,
                        f"seed {seed}: {observer} sent {count} BFT about {mover} in ({at}, {at + 60}]",
                    )
        worst = f"last seed {seed}: {elapsed:.2f}s/run"
    return CheckResult(
        "movement-detection",
        True,
        f"1..2 BFT per static node within 60 ticks of both movements on {len(seeds)} seeds ({worst})",
    )


def check_zero_false_positives(seeds=ACCEPTANCE_SEEDS) -> CheckResult:
    """Static honest network: not a single BFT or alert over the whole run."""
    for seed in seeds:
        t0 = time.perf_counter()
        res = run(builtin_scenario("static-honest", seed=seed), collect_rssi=False)
        elapsed = time.perf_counter() - t0
        if elapsed >= RUNTIME_BUDGET_S:
            return CheckResult(
                "zero-false-positives", False, f"seed {seed} took {elapsed:.2f}s >= {RUNTIME_BUDGET_S}s"
            )
        n_bft = len(res.bft_events())
        n_alert = len(res.alert_events())
        if n_bft or n_alert:
            return CheckResult(
                "zero-false-positives",
                False,
                f"seed {seed}: {n_bft} BFT and {n_alert} alerts in static honest run",
            )
    return CheckResult(
        "zero-false-positives", True, f"0 BFT and 0 alerts across {len(seeds)} static seeds"
    )


def _paired_diffs(res: RunResult) -> list[float]:
    directed: dict[tuple[str, str, str], float] = {}
    for line in res.rssi_lines:
        tick, receiver, sender, raw, _ = line.split(",")
        directed[(tick, sender, receiver)] = float(raw)
    diffs = []
    for (tick, sender, receiver), value in directed.items():
        if sender < receiver:
            other = directed.get((tick, receiver, sender))
            if other is not None:
                diffs.append(abs(value - other))
    return diffs


def check_rssi_symmetry(seed: int = 42) -> CheckResult:
    """|RSSI_AB - RSSI_BA| <= 5 dB: exactly under zero noise, for >= 99% of
    paired samples under default noise. The raw values are read from the
    run's rssi.csv lines, so to their 6 trace decimals."""
    worst0 = 0.0
    for quiet_seed in (seed - 1, seed, seed + 1):  # different per-link jitter draws
        quiet = builtin_scenario("paper-fig7", seed=quiet_seed).with_channel(noise_sigma=0.0)
        res0 = run(quiet, collect_rssi=True)
        diffs0 = _paired_diffs(res0)
        worst0 = max(worst0, max(diffs0) if diffs0 else 0.0)
        if worst0 > 5.0:
            return CheckResult(
                "rssi-symmetry", False,
                f"zero-noise max pairwise diff {worst0:.2f} dB > 5 (seed {quiet_seed})",
            )
    res1 = run(builtin_scenario("paper-fig7", seed=seed), collect_rssi=True)
    diffs1 = _paired_diffs(res1)
    within = sum(1 for d in diffs1 if d <= 5.0) / len(diffs1)
    if within < 0.99:
        return CheckResult(
            "rssi-symmetry", False, f"only {within:.2%} of noisy paired samples within 5 dB"
        )
    return CheckResult(
        "rssi-symmetry",
        True,
        f"zero-noise max {worst0:.2f} dB over 3 seeds; "
        f"{within:.2%} of {len(diffs1)} noisy pairs within 5 dB",
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


def check_decision_tree() -> CheckResult:
    """self_defense over all 16 predicate tuples matches the fixed table."""
    t0 = time.perf_counter()
    for c in (True, False):
        for h in (True, False):
            for db in (True, False):
                for dself in (True, False):
                    tup = (c, h, db, dself)
                    expected = EXPECTED_FIXED_ROWS.get(tup, IGNORE)
                    if SELF_DEFENSE_TABLE[tup] != expected:
                        return CheckResult(
                            "decision-tree", False, f"shipped table wrong at {tup}"
                        )
                    state, msg = _craft_state(c, h, db, dself)
                    inputs = state.self_defense_inputs(msg, 40)
                    if inputs != tup:
                        return CheckResult(
                            "decision-tree",
                            False,
                            f"crafted predicates {inputs} != intended {tup}",
                        )
                    outcome = _outcome_of(state.self_defense(msg, 40))
                    if outcome != expected:
                        return CheckResult(
                            "decision-tree", False, f"{tup} -> {outcome}, expected {expected}"
                        )
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        return CheckResult("decision-tree", False, f"took {elapsed:.2f}s >= 1s")
    return CheckResult(
        "decision-tree", True, f"all 16 rows match, 5 action rows exact ({elapsed:.2f}s)"
    )


def check_trust_arithmetic() -> CheckResult:
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
        return CheckResult(
            "trust-arithmetic", False, f"changed {sorted(map(str, changed))}"
        )
    if abs(after[accuser] - (0.5 - step)) > 1e-12:
        return CheckResult("trust-arithmetic", False, f"accuser trust {after[accuser]}")
    for participant in participants:
        if abs(after[participant] - (0.5 + step)) > 1e-12:
            return CheckResult(
                "trust-arithmetic", False, f"participant trust {after[participant]}"
            )
    if after[accused] != 0.5 or after[_EXTRA[3]] != 0.5:
        return CheckResult("trust-arithmetic", False, "bystander trust moved")

    # clamp: participant already at 1.0 stays at 1.0, accuser at 0.05 floors at 0
    state2 = NodeState(self_id=c_id, self_location=Location(0.0, 0.0, 0.0))
    state2.store.add_peer(PeerRecord(id=accuser, trust=TrustScore(0.05)))
    state2.store.add_peer(PeerRecord(id=accused, trust=TrustScore(0.5)))
    state2.store.add_peer(PeerRecord(id=participants[0], trust=TrustScore(1.0)))
    state2.store.register_bft(participants[0], accuser, 10, 10)
    state2.receive_alert(alert, None, 20)
    if state2.store.peers[accuser].trust.value != 0.0:
        return CheckResult("trust-arithmetic", False, "accuser trust did not clamp to 0")
    if state2.store.peers[participants[0]].trust.value != 1.0:
        return CheckResult("trust-arithmetic", False, "participant trust escaped 1.0")
    return CheckResult(
        "trust-arithmetic", True, "reject moved exactly 4 scores by one step; clamping exact"
    )


def check_spoof_detection(seed: int = 42) -> CheckResult:
    """Identity spoofing is flagged by more than tau distinct honest nodes."""
    res = run(builtin_scenario("spoof-attack", seed=seed), collect_rssi=False)
    attack_at = res.metrics.attacks[0]["at"]
    victim = res.metrics.attacks[0]["params"]["victim"]
    deadline = attack_at + 120
    emitters = {
        e.node
        for e in res.bft_events()
        if e.details["subject"] == victim and attack_at < e.tick <= deadline
    }
    emitters.discard(victim)
    tau = 2  # half of the four in-range peers
    if len(emitters) <= tau:
        return CheckResult(
            "spoof-detection",
            False,
            f"only {sorted(emitters)} flagged {victim} within 120 ticks (tau={tau})",
        )
    victim_mac = builtin_scenario("spoof-attack", seed=seed).node(victim).mac
    distrusting = [
        label
        for label, node in res.nodes.items()
        if label != victim and node.distrust(victim_mac, deadline)
    ]
    if not distrusting:
        return CheckResult("spoof-detection", False, "no honest node distrusts the victim")
    return CheckResult(
        "spoof-detection",
        True,
        f"{len(emitters)} honest nodes sent BFT about {victim} (tau={tau}); "
        f"distrusted by {distrusting}",
    )


def check_localization_oracle() -> CheckResult:
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
            return CheckResult(
                "localization-oracle", False, f"target {target.as_tuple()} error {err:.2e} m"
            )
        done += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        return CheckResult("localization-oracle", False, f"took {elapsed:.2f}s >= 1s")
    return CheckResult(
        "localization-oracle", True, f"100 targets recovered, worst error {worst:.2e} m ({elapsed:.2f}s)"
    )


def check_filter_oracles() -> CheckResult:
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
                return CheckResult(
                    "filter-oracles", False, f"kalman drift {abs(got - x):.2e} at step {steps}"
                )
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
            return CheckResult(
                "filter-oracles", False, f"spike trial {trial}: deviation {worst:.2f} dB > 1"
            )
    return CheckResult(
        "filter-oracles", True, "kalman matches oracle over 10^4 steps; 1000 spike streams within 1 dB"
    )


def check_determinism(seed: int = 7) -> CheckResult:
    """Two runs of the same seed write byte-identical files, as `polsim run` writes them."""
    names = ("rssi.csv", "events.jsonl", "metrics.json")
    with tempfile.TemporaryDirectory() as workdir:
        dirs = [Path(workdir) / attempt for attempt in ("a", "b")]
        for out in dirs:
            run(builtin_scenario("paper-fig7", seed=seed), out_dir=str(out))
        for name in names:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                return CheckResult("determinism", False, f"{name} differs between runs")
    return CheckResult("determinism", True, f"{', '.join(names)} byte-identical for seed {seed}")


def check_malicious_bft(seed: int = 42) -> CheckResult:
    """A single lying BFT emitter cannot flip distrust or trigger alerts."""
    res = run(builtin_scenario("malicious-bft", seed=seed), collect_rssi=False)
    victim = res.metrics.attacks[0]["params"]["victim"]
    victim_mac = builtin_scenario("malicious-bft", seed=seed).node(victim).mac
    alerts = res.alert_events()
    if alerts:
        return CheckResult("malicious-bft", False, f"{len(alerts)} alerts raised")
    flipped = [
        label
        for label, node in res.nodes.items()
        if label != victim and node.distrust(victim_mac, res.metrics.duration)
    ]
    if flipped:
        return CheckResult("malicious-bft", False, f"distrust flipped at {flipped}")
    trust_ok = all(
        abs(t.get(victim, 1.0) - 1.0) < 1e-12
        for label, t in res.metrics.trust_final.items()
        if label != victim
    )
    if not trust_ok:
        return CheckResult("malicious-bft", False, "victim trust changed")
    return CheckResult(
        "malicious-bft", True, "single liar registered but no distrust flip, no alerts, trust intact"
    )


BUILTIN_CHECKS: dict[str, list[Callable[[], CheckResult]]] = {
    "paper-fig7": [
        check_movement_detection,
        check_rssi_symmetry,
        check_determinism,
    ],
    "static-honest": [check_zero_false_positives],
    "spoof-attack": [check_spoof_detection],
    "malicious-bft": [check_malicious_bft],
}
