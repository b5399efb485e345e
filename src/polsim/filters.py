"""RSSI smoothing filters and the BFT trigger function.

Raw RSSI readings vary at almost every step, so a node smooths each link's
stream before deciding whether the link changed. Six candidate filters are
provided (moving average, exponential smoothing, dynamic moving average,
Gaussian, median, Kalman) plus the median-then-Kalman cascade that proved the
best fit, and the threshold trigger that turns smoothed-value deviations into
BFT emissions; `trigger_fires` runs that trigger over a recorded column for
the offline sweep.

Every filter is a state dataclass plus a `step(state, value)` function. The
init fields of the state dataclass are the filter's parameters, with their
defaults and kinds; its running state is not an init field. `make_filter`
builds one by name from the single registry, for the node's links and for
the offline `polsim filters` sweep alike.

All filters consume and produce plain floats (dB), and their sums add left
to right (`_sum`). The dynamic moving average
has no canonical definition; the adaptive-window variant implemented here
(window halves on outliers, grows by one otherwise) is a placeholder, see
README.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate, compress, count, repeat
from operator import lt, mul, sub
from typing import Any, Callable, Iterable, Optional, Sequence

from .kinds import _checked, _schema


def _sum(values: Iterable[float]) -> float:
    """The sum of `values`, added left to right from 0 as `sum` did before
    Python 3.12. From 3.12 on `sum` of floats is compensated and rounds
    differently, and smoothed values feed the traces."""
    total = 0
    for v in values:
        total += v
    return total


@dataclass(slots=True)
class MedianState:
    """Running median over the last `window` values (odd window).

    During warm-up the buffer holds fewer values; an even count returns the
    sorted buffer's element just above the midpoint, so the output is always
    one of the inputs and a warm-up pair like (-40, -90) yields -40.
    """

    window: int = 5
    buffer: deque[float] = field(init=False)

    def __post_init__(self) -> None:
        if not self.window >= 1 or self.window % 2 == 0:
            raise ValueError("median window must be an odd count >= 1")
        self.buffer = deque(maxlen=self.window)


def median_step(state: MedianState, v: float) -> float:
    buffer = state.buffer
    buffer.append(v)  # the deque drops its oldest value once full
    ordered = sorted(buffer)
    return ordered[len(ordered) // 2]


@dataclass(slots=True)
class KalmanState:
    """Scalar constant-state Kalman filter.

    q is the process variance, r the measurement variance. The first sample
    initializes the estimate; afterwards the standard predict/update recursion
    applies.
    """

    q: float = 0.01
    r: float = 4.0
    x: Optional[float] = field(default=None, init=False)
    p: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if not (self.q >= 0 and self.r > 0):
            raise ValueError("need q >= 0 and r > 0")


def kalman_step(state: KalmanState, z: float) -> float:
    if state.x is None:
        state.x = z
        state.p = state.r
        return z
    p = state.p + state.q
    k = p / (p + state.r)
    state.x = state.x + k * (z - state.x)
    state.p = (1.0 - k) * p
    return state.x


def _default(cls: type, name: str) -> Any:
    """The default declared on field `name` of dataclass `cls`; in a slotted
    class the class attribute of that name is the slot itself."""
    return cls.__dataclass_fields__[name].default


@dataclass(slots=True)
class CascadeState:
    """Median filter feeding the Kalman filter (the selected combination)."""

    window: int = _default(MedianState, "window")
    q: float = _default(KalmanState, "q")
    r: float = _default(KalmanState, "r")
    median: MedianState = field(init=False)
    kalman: KalmanState = field(init=False)

    def __post_init__(self) -> None:
        self.median = MedianState(self.window)
        self.kalman = KalmanState(self.q, self.r)


def cascade_step(state: CascadeState, raw: float) -> float:
    return kalman_step(state.kalman, median_step(state.median, raw))


@dataclass(slots=True)
class MovingAverageState:
    window: int = 5
    buffer: deque[float] = field(init=False)

    def __post_init__(self) -> None:
        if not self.window >= 1:
            raise ValueError("window must be >= 1")
        self.buffer = deque(maxlen=self.window)


def moving_average_step(state: MovingAverageState, v: float) -> float:
    buffer = state.buffer
    buffer.append(v)  # the deque drops its oldest value once full
    return _sum(buffer) / len(buffer)


@dataclass(slots=True)
class ExpSmoothingState:
    alpha: float = 0.3
    y: Optional[float] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")


def exp_smoothing_step(state: ExpSmoothingState, v: float) -> float:
    if state.y is None:
        state.y = v
    else:
        state.y = state.alpha * v + (1.0 - state.alpha) * state.y
    return state.y


@dataclass(slots=True)
class DynamicMovingAverageState:
    """Moving average with an outlier-adaptive window (placeholder definition).

    The window halves (min 1) whenever the new value deviates from the last
    output by more than `threshold`, and grows by one (max `max_window`)
    otherwise, so the filter reacts fast to jumps and smooths hard when quiet.
    """

    max_window: int = 10
    threshold: float = 5.0
    window: int = field(default=1, init=False)
    y: Optional[float] = field(default=None, init=False)
    buffer: list[float] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if not self.max_window >= 1:
            raise ValueError("max_window must be >= 1")
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")


def dynamic_moving_average_step(state: DynamicMovingAverageState, v: float) -> float:
    if state.y is not None:
        if abs(v - state.y) > state.threshold:
            state.window = max(1, state.window // 2)
        else:
            state.window = min(state.max_window, state.window + 1)
    state.buffer.append(v)
    if len(state.buffer) > state.max_window:
        del state.buffer[0]
    tail = state.buffer[-state.window :]
    state.y = _sum(tail) / len(tail)
    return state.y


# the longest Gaussian window; its weights are built when a state is made
GAUSSIAN_MAX_WINDOW = 10_000


@lru_cache(maxsize=16)
def _gaussian_weights(sigma: float, window: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """weights[age] for each age below `window`, and totals[n - 1], the first
    n weights added left to right. Every state with the same `sigma` and
    `window` shares the pair, so a node's links hold one copy."""
    spread = 2.0 * sigma * sigma
    weights = tuple(math.exp(-(age * age) / spread) for age in range(window))
    return weights, tuple(accumulate(weights))


@dataclass(slots=True)
class GaussianState:
    """Gaussian-weighted mean over the last `window` values (newest weighted
    highest); `window` is at most `GAUSSIAN_MAX_WINDOW`."""

    sigma: float = 2.0
    window: int = 5
    buffer: deque[float] = field(init=False)
    weights: tuple[float, ...] = field(init=False)
    totals: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not 1 <= self.window <= GAUSSIAN_MAX_WINDOW:
            raise ValueError(f"window must be in [1, {GAUSSIAN_MAX_WINDOW}]")
        self.buffer = deque(maxlen=self.window)
        self.weights, self.totals = _gaussian_weights(self.sigma, self.window)


def gaussian_step(state: GaussianState, v: float) -> float:
    buffer = state.buffer
    buffer.append(v)  # the deque drops its oldest value once full
    # newest sample has age 0 and sits at the end of the buffer
    return _sum(map(mul, state.weights, reversed(buffer))) / state.totals[len(buffer) - 1]


# samples kept for the local-flatness check
FLAT_WINDOW = 15


@dataclass(slots=True)
class TriggerState:
    """Deviation trigger: fire when the smoothed value drifts past `threshold`.

    `last_reported` tracks the smoothed value most recently announced to the
    network; `last_fire` enforces at most one fire per `cooldown` ticks per
    link. The first `warmup` samples are only counted. After
    `rebaseline_after` quiet ticks the baseline follows the current smoothed
    value, so the settled state becomes the new reference and a later change
    is measured at its full swing. Rebaselining only happens while the
    signal is locally flat, never during an in-progress deviation.

    Invariant while `now` does not decrease: once `last_reported` is set,
    `last_baseline` is set too and `last_fire <= last_baseline`, so the
    quiet time counts from `last_baseline` alone.
    """

    threshold: float
    cooldown: int
    rebaseline_after: int = 90
    warmup: int = 0
    samples: int = field(default=0, init=False)  # warm-up samples seen, stops at `warmup`
    last_reported: Optional[float] = field(default=None, init=False)
    last_fire: Optional[int] = field(default=None, init=False)
    last_baseline: Optional[int] = field(default=None, init=False)
    # the last FLAT_WINDOW smoothed values after warm-up, oldest first
    recent: deque[float] = field(default_factory=partial(deque, maxlen=FLAT_WINDOW), init=False)

    def __post_init__(self) -> None:
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")
        if not (self.cooldown >= 0 and self.rebaseline_after >= 1):
            raise ValueError("cooldown must be >= 0 and rebaseline_after >= 1")
        if not self.warmup >= 0:
            raise ValueError("warmup must be >= 0")

    def cooldown_over(self, now: int) -> bool:
        return self.last_fire is None or now - self.last_fire >= self.cooldown

    def note_report(self, smoothed: float, now: int) -> None:
        """Record that `smoothed` went out in a BFT message at `now`."""
        self.last_reported = smoothed
        self.last_fire = now
        self.last_baseline = now


def bft_trigger(state: TriggerState, smoothed: float, now: int) -> bool:
    """True when the smoothed value moved more than the threshold since the
    last reported value and the cooldown allows another fire.

    The first `warmup` calls only count the sample and return False; the
    next one only records the baseline and returns False. On a fire the
    baseline and fire time advance to the current values. A deviation that
    never reaches the threshold is absorbed into the baseline after
    `rebaseline_after` ticks, but only once the signal has flattened out:
    the last `FLAT_WINDOW` smoothed values span at most a third of the
    threshold.
    """
    if state.samples < state.warmup:
        state.samples += 1
        return False
    recent = state.recent
    recent.append(smoothed)
    last_reported = state.last_reported
    if last_reported is None:
        state.last_reported = smoothed
        state.last_baseline = now
        return False
    threshold = state.threshold
    if abs(smoothed - last_reported) > threshold:
        last_fire = state.last_fire
        if last_fire is None or now - last_fire >= state.cooldown:
            state.note_report(smoothed, now)
            return True
    if (
        now - state.last_baseline >= state.rebaseline_after
        and len(recent) == FLAT_WINDOW
        and max(recent) - min(recent) <= threshold / 3.0
    ):
        state.last_reported = smoothed
        state.last_baseline = now
    return False


def _first_past(values: list[float], lo: int, hi: int, last: float, threshold: float) -> int:
    """The first k in [lo, hi) with `abs(values[k] - last) > threshold`, as
    `bft_trigger` tests it, else `hi`. Rounded subtraction is monotone in
    `values[k]`, and `abs(x) > t` exactly when `x > t or -x > t`, so the run
    holds no such sample when its max and min hold none. A NaN never passes;
    `max` and `min` either pass over it or return it, and then the test
    fails and the run is searched in C."""
    if lo >= hi:
        return hi
    run = values[lo:hi]
    if max(run) - last <= threshold and min(run) - last >= -threshold:
        return hi
    past = map(lt, repeat(threshold), map(abs, map(sub, run, repeat(last))))
    return next(compress(count(lo), past), hi)


def trigger_fires(state: TriggerState, ticks: Sequence[int], values: list[float]) -> list[int]:
    """Feed one link's column to `state` as `bft_trigger(state, values[k],
    ticks[k])` for each k in turn would, and return the ticks at which it
    fired; `state` ends as those calls leave it. `ticks` is a sequence of
    non-decreasing ints, such as an `array('q')`; `values` is a list, which
    is joined to `list(recent)`.

    `bft_trigger` stays the one definition of the trigger. It is called for
    the warm-up, the baseline sample and each later sample that can change
    the state; the samples in between only join `recent`. Once a baseline
    is set, a sample changes the state only by

    (a) a fire, which needs the cooldown over (from the first index whose
        tick is `cooldown` or more past `last_fire`) and
        `abs(v - last_reported) > threshold`, found by `_first_past`; or
    (b) a rebaseline, which needs a tick `rebaseline_after` or more past
        `last_baseline` (from index `due`), a full `recent`, and a flat
        window: `max(recent) - min(recent) <= threshold / 3`.

    For (b) the windows that `recent` would hold are searched in the order
    of their last sample. Rounded subtraction is monotone, so if a window's
    span is a number past the bound, so is the span of every window holding
    the last positions of both its max and its min: that window's `max` is
    at least the one and its `min` at most the other, unless it starts with
    a NaN, and then its span is NaN, which `<=` refuses too. So the search
    jumps past the earlier of the two positions. A run of samples holding a
    window bounds that window's span the same way, so the first step tests
    the run from the end of the cooldown to the first window's last sample
    at once, for (a) and for (b). Without that search, scanning from `due`
    sample by sample, `filter-sweep` `wall_s` rises from 1.063 to 1.140 s
    (+7.2%, 6 of 6 alternating `perfbench/run.py` pairs, CPython 3.11.7,
    a 2-CPU host).

    A NaN sample never fires. A window whose span is NaN (it starts with a
    NaN, or its max and min are the same infinity) goes to `bft_trigger`,
    which decides; that call may change nothing.

    `bft_trigger` is looked up in this module at each call, not bound once,
    so a wrapper set on `polsim.filters.bft_trigger` sees every call.
    """
    fires: list[int] = []
    n = len(values)
    i = 0
    while i < n and state.last_reported is None:  # warm-up and the baseline sample
        bft_trigger(state, values[i], ticks[i])
        i += 1
    threshold = state.threshold
    flat = threshold / 3.0
    recent = state.recent
    while i < n:
        last = state.last_reported
        # (a) is searched from `seen` on, (b) in the window that ends at `k`
        seen = i if state.last_fire is None else bisect_left(ticks, state.last_fire + state.cooldown, i)
        due = bisect_left(ticks, state.last_baseline + state.rebaseline_after, i)
        k = max(due, i + FLAT_WINDOW - 1 - len(recent))  # the first full window
        while k < n:
            start = k + 1 - FLAT_WINDOW
            if seen < start:  # the run from `seen`, which holds the window
                window = values[seen : k + 1]
            elif start >= i:
                window = values[start : k + 1]
            else:  # the window begins in `recent`
                window = (list(recent) + values[i : k + 1])[-FLAT_WINDOW:]
            hi = max(window)
            lo = min(window)
            if seen <= k and not (hi - last <= threshold and lo - last >= -threshold):
                stop = _first_past(values, seen, k + 1, last, threshold)
                if stop <= k:
                    break
            if not hi - lo > flat:  # flat, or NaN
                stop = k
                break
            if seen < start:  # that was the run's span: test the window alone
                seen = k + 1
                continue
            seen = max(seen, k + 1)
            backwards = window[::-1]
            k += FLAT_WINDOW - max(backwards.index(hi), backwards.index(lo))
        else:
            stop = _first_past(values, seen, n, last, threshold)
        recent += values[max(i, stop - FLAT_WINDOW) : stop]
        i = stop
        if i < n:
            now = ticks[i]
            if bft_trigger(state, values[i], now):
                fires.append(now)
            i += 1
    return fires


# name -> (state class, step(state, value)); the init fields of the state
# class are the filter's parameters
_FILTERS: dict[str, tuple[type, Callable[[Any, float], float]]] = {
    "moving_average": (MovingAverageState, moving_average_step),
    "exp_smoothing": (ExpSmoothingState, exp_smoothing_step),
    "dynamic_moving_average": (DynamicMovingAverageState, dynamic_moving_average_step),
    "gaussian": (GaussianState, gaussian_step),
    "median": (MedianState, median_step),
    "kalman": (KalmanState, kalman_step),
    "median_kalman": (CascadeState, cascade_step),
}

FILTER_NAMES = tuple(_FILTERS)
_PARAMS = {name: _schema(cls) for name, (cls, _step) in _FILTERS.items()}


def make_filter(name: str, params: Optional[dict] = None) -> Callable[[float], float]:
    """Build a step(value) -> smoothed callable for a named filter.

    The callable is a `functools.partial` over the filter's state, so a deep
    copy carries the state with it. Raises ValueError on an unknown name, a
    parameter the filter does not take, or a value of the wrong kind or
    out of range.
    """
    if name not in _FILTERS:
        raise ValueError(f"unknown filter {name!r}; choose from {FILTER_NAMES}")
    cls, step = _FILTERS[name]
    errors: list[str] = []
    values = _checked({} if params is None else params, _PARAMS[name], "", errors)
    if errors:
        raise ValueError("; ".join(errors))
    return partial(step, cls(**values))
