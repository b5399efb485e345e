"""A fixed reference workload that measures how fast the host runs right now.

The kernel touches nothing of polsim: it is a frozen mix of the operations
the simulator spends its time on (small objects with a validating
constructor, user-defined hashing in dict keys, method calls, float math and
`log10`, a seeded Gaussian draw, short sorted windows, `isinstance`
dispatch, f-string and JSON formatting, a keyed BLAKE2b digest). Its running
time therefore follows the host's current speed and not the code under test;
a change to polsim cannot move it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import signal
from time import perf_counter

# Host time of one `kernel()` pass at the speed the bench reports in, about
# the median on the 2-core machine the bench was written on. It only fixes
# the scale, so it never needs to change.
REFERENCE_S = 0.0013
ROUNDS = 200
INTERVAL_S = 0.1    # one pass every INTERVAL_S of wall time
NEAREST = 5         # passes used for a call too short to contain that many


class _Key:
    __slots__ = ("raw", "_hash")

    def __init__(self, raw: bytes):
        if len(raw) != 6:
            raise ValueError("need 6 bytes")
        self.raw = raw
        self._hash = hash(raw)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Key) and other.raw == self.raw


class _Sample:
    __slots__ = ("value",)

    def __init__(self, value: float):
        if not (-120.0 <= value <= 0.0):
            raise ValueError("out of range")
        self.value = value


class _Link:
    __slots__ = ("window", "x", "p")

    def __init__(self) -> None:
        self.window: list[float] = []
        self.x = None
        self.p = 0.0

    def step(self, v: float) -> float:
        self.window.append(v)
        if len(self.window) > 5:
            del self.window[0]
        m = sorted(self.window)[len(self.window) // 2]
        if self.x is None:
            self.x, self.p = m, 4.0
            return m
        p = self.p + 0.01
        k = p / (p + 4.0)
        self.x += k * (m - self.x)
        self.p = (1.0 - k) * p
        return self.x


def kernel(rounds: int = ROUNDS) -> float:
    """One deterministic pass; returns a checksum so no work can be skipped."""
    rng = random.Random(7)
    keys = [_Key(bytes([2, 0, 0, 0, 1, i])) for i in range(12)]
    links: dict[tuple[_Key, _Key], _Link] = {}
    lines: list[str] = []
    acc = 0.0
    for i in range(rounds):
        a = keys[i % 12]
        b = keys[(i * 7 + 3) % 12]
        if a == b:
            continue
        d = math.sqrt(((i % 13) - 6.0) ** 2 + ((i % 5) - 2.0) ** 2 + 1.0)
        level = -40.0 - 20.0 * math.log10(d) + rng.gauss(0.0, 1.0)
        sample = _Sample(min(0.0, max(-120.0, level)))
        link = links.get((a, b))
        if link is None:
            link = links[(a, b)] = _Link()
        smoothed = link.step(sample.value)
        if isinstance(sample, _Sample):
            acc += smoothed
        lines.append(f"{i},{i % 12},{(i * 7 + 3) % 12},{sample.value:.6f},{smoothed:.6f}")
        if i % 25 == 0:
            doc = {"tick": i, "node": f"n{i % 12}", "details": {"seq": i, "rssi": round(smoothed, 6)}}
            lines.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))
            digest = hashlib.blake2b(lines[-1].encode(), key=a.raw, digest_size=32).digest()
            acc += digest[0]
    return acc + len("\n".join(lines))


def sample() -> float:
    """Host seconds of one kernel pass.

    The cyclic garbage collector is off during the pass: its cost depends on
    how many objects the process holds, which would tie the pass to the
    workload instead of to the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedTrace:
    """Runs a kernel pass on a wall-clock timer and scales host time by it.

    While started, SIGALRM fires every INTERVAL_S and its handler times one
    pass. A timed call's program time is its host time minus the passes that
    ran inside it, and its scaled time is that program time multiplied by
    the mean of REFERENCE_S / pass time over those passes (the passes are
    spread evenly in time, so the mean follows the speed over the call). A
    call shorter than NEAREST passes uses the NEAREST passes closest to it.
    """

    def __init__(self) -> None:
        self.passes: list[tuple[float, float, float]] = []  # (start, handler s, pass s)
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        seconds = sample()
        self.passes.append((start, perf_counter() - start, seconds))

    def scaled(self, start: float, seconds: float) -> tuple[float, float]:
        """(program seconds, scaled seconds) of a call that ran from `start` for `seconds`."""
        end = start + seconds
        inside = [p for p in self.passes if start <= p[0] <= end]
        program = seconds - sum(handler for _, handler, _ in inside)
        used = inside
        if len(used) < NEAREST:
            middle = (start + end) / 2.0
            used = sorted(self.passes, key=lambda p: abs(p[0] - middle))[:NEAREST]
        pass_seconds = [s for _, _, s in used] or [sample()]
        factor = sum(REFERENCE_S / s for s in pass_seconds) / len(pass_seconds)
        return program, program * factor
