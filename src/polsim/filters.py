"""RSSI smoothing filters and the BFT trigger function.

Raw RSSI readings vary at almost every step, so a node smooths each link's
stream before deciding whether the link changed. Six candidate filters are
provided (moving average, exponential smoothing, dynamic moving average,
Gaussian, median, Kalman) plus the median-then-Kalman cascade that proved the
best fit, and the threshold trigger that turns smoothed-value deviations into
BFT emissions.

Every filter is a state dataclass plus a `step(state, value)` function;
`make_filter` builds one by name from the single registry, for the node's
links and for the offline `polsim filters` sweep alike.

All filters consume and produce plain floats (dB). The dynamic moving average
has no canonical definition; the adaptive-window variant implemented here
(window halves on outliers, grows by one otherwise) is a placeholder, see
README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional


@dataclass
class MedianState:
    """Running median over the last `window` values (odd window).

    During warm-up the buffer holds fewer values; an even count returns the
    sorted buffer's element just above the midpoint, so the output is always
    one of the inputs and a warm-up pair like (-40, -90) yields -40.
    """

    window: int = 5
    buffer: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("median window must be an odd count >= 1")


def median_step(state: MedianState, v: float) -> float:
    state.buffer.append(v)
    if len(state.buffer) > state.window:
        del state.buffer[0]
    ordered = sorted(state.buffer)
    return ordered[len(ordered) // 2]


@dataclass
class KalmanState:
    """Scalar constant-state Kalman filter.

    q is the process variance, r the measurement variance. The first sample
    initializes the estimate; afterwards the standard predict/update recursion
    applies.
    """

    q: float = 0.01
    r: float = 4.0
    x: Optional[float] = None
    p: float = 0.0

    def __post_init__(self) -> None:
        if self.q < 0 or self.r <= 0:
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


@dataclass
class CascadeState:
    """Median filter feeding the Kalman filter (the selected combination)."""

    median: MedianState = field(default_factory=MedianState)
    kalman: KalmanState = field(default_factory=KalmanState)


def cascade_step(state: CascadeState, raw: float) -> float:
    return kalman_step(state.kalman, median_step(state.median, raw))


@dataclass
class MovingAverageState:
    window: int = 5
    buffer: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")


def moving_average_step(state: MovingAverageState, v: float) -> float:
    state.buffer.append(v)
    if len(state.buffer) > state.window:
        del state.buffer[0]
    return sum(state.buffer) / len(state.buffer)


@dataclass
class ExpSmoothingState:
    alpha: float = 0.3
    y: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")


def exp_smoothing_step(state: ExpSmoothingState, v: float) -> float:
    if state.y is None:
        state.y = v
    else:
        state.y = state.alpha * v + (1.0 - state.alpha) * state.y
    return state.y


@dataclass
class DynamicMovingAverageState:
    """Moving average with an outlier-adaptive window (placeholder definition).

    The window halves (min 1) whenever the new value deviates from the last
    output by more than `threshold`, and grows by one (max `max_window`)
    otherwise, so the filter reacts fast to jumps and smooths hard when quiet.
    """

    max_window: int = 10
    threshold: float = 5.0
    window: int = 1
    y: Optional[float] = None
    buffer: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.max_window < 1 or self.window < 1:
            raise ValueError("windows must be >= 1")
        if self.threshold <= 0:
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
    state.y = sum(tail) / len(tail)
    return state.y


@dataclass
class GaussianState:
    """Gaussian-weighted mean over the last `window` values (newest weighted highest)."""

    sigma: float = 2.0
    window: int = 5
    buffer: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")


def gaussian_step(state: GaussianState, v: float) -> float:
    state.buffer.append(v)
    if len(state.buffer) > state.window:
        del state.buffer[0]
    weights = [math.exp(-(age * age) / (2.0 * state.sigma * state.sigma)) for age in range(len(state.buffer))]
    total = sum(weights)
    # newest sample has age 0 and sits at the end of the buffer
    return sum(w * x for w, x in zip(weights, reversed(state.buffer))) / total


@dataclass
class TriggerState:
    """Deviation trigger: fire when the smoothed value drifts past `threshold`.

    `last_reported` tracks the smoothed value most recently announced to the
    network; `last_fire` enforces at most one fire per `cooldown` ticks per
    link. The first `warmup` samples are only counted. After
    `rebaseline_after` quiet ticks the baseline follows the current smoothed
    value, so the settled state becomes the new reference and a later change
    is measured at its full swing. Rebaselining only happens while the
    signal is locally flat, never during an in-progress deviation.
    """

    threshold: float = 6.0
    cooldown: int = 30
    rebaseline_after: int = 90
    warmup: int = 0
    samples: int = 0  # warm-up samples seen, stops at `warmup`
    last_reported: Optional[float] = None
    last_fire: Optional[int] = None
    last_baseline: Optional[int] = None
    recent: list[float] = field(default_factory=list)

    # samples kept for the local-flatness check
    FLAT_WINDOW = 15

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.cooldown < 0 or self.rebaseline_after < 1:
            raise ValueError("cooldown must be >= 0 and rebaseline_after >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")

    def cooldown_over(self, now: int) -> bool:
        return self.last_fire is None or now - self.last_fire >= self.cooldown

    def note_report(self, smoothed: float, now: int) -> None:
        """Record that `smoothed` went out in a BFT message at `now`."""
        self.last_reported = smoothed
        self.last_fire = now
        self.last_baseline = now

    def locally_flat(self) -> bool:
        if len(self.recent) < self.FLAT_WINDOW:
            return False
        return max(self.recent) - min(self.recent) <= self.threshold / 3.0


def bft_trigger(state: TriggerState, smoothed: float, now: int) -> bool:
    """True when the smoothed value moved more than the threshold since the
    last reported value and the cooldown allows another fire.

    The first `warmup` calls only count the sample and return False; the
    next one only records the baseline and returns False. On a fire the
    baseline and fire time advance to the current values. A deviation that
    never reaches the threshold is absorbed into the baseline after
    `rebaseline_after` ticks, but only once the signal has flattened out.
    """
    if state.samples < state.warmup:
        state.samples += 1
        return False
    state.recent.append(smoothed)
    if len(state.recent) > state.FLAT_WINDOW:
        del state.recent[0]
    if state.last_reported is None:
        state.last_reported = smoothed
        state.last_baseline = now
        return False
    if abs(smoothed - state.last_reported) > state.threshold and state.cooldown_over(now):
        state.note_report(smoothed, now)
        return True
    anchor = state.last_baseline if state.last_baseline is not None else now
    if state.last_fire is not None:
        anchor = max(anchor, state.last_fire)
    if now - anchor >= state.rebaseline_after and state.locally_flat():
        state.last_reported = smoothed
        state.last_baseline = now
    return False


def _median_state(params: dict) -> MedianState:
    return MedianState(window=int(params.pop("window", 5)))


def _kalman_state(params: dict) -> KalmanState:
    return KalmanState(q=float(params.pop("q", 0.01)), r=float(params.pop("r", 4.0)))


# name -> (state factory that pops its own parameters, step(state, value))
_FILTERS: dict[str, tuple[Callable[[dict], Any], Callable[[Any, float], float]]] = {
    "moving_average": (
        lambda p: MovingAverageState(window=int(p.pop("window", 5))),
        moving_average_step,
    ),
    "exp_smoothing": (
        lambda p: ExpSmoothingState(alpha=float(p.pop("alpha", 0.3))),
        exp_smoothing_step,
    ),
    "dynamic_moving_average": (
        lambda p: DynamicMovingAverageState(
            max_window=int(p.pop("max_window", 10)), threshold=float(p.pop("threshold", 5.0))
        ),
        dynamic_moving_average_step,
    ),
    "gaussian": (
        lambda p: GaussianState(sigma=float(p.pop("sigma", 2.0)), window=int(p.pop("window", 5))),
        gaussian_step,
    ),
    "median": (_median_state, median_step),
    "kalman": (_kalman_state, kalman_step),
    "median_kalman": (lambda p: CascadeState(_median_state(p), _kalman_state(p)), cascade_step),
}

FILTER_NAMES = tuple(_FILTERS)


def make_filter(name: str, params: Optional[dict] = None) -> Callable[[float], float]:
    """Build a step(value) -> smoothed callable for a named filter.

    The callable is a `functools.partial` over the filter's state, so a deep
    copy carries the state with it. Raises ValueError on an unknown name, a
    bad value or a parameter the filter does not take.
    """
    if name not in _FILTERS:
        raise ValueError(f"unknown filter {name!r}")
    new_state, step = _FILTERS[name]
    params = dict(params or {})
    state = new_state(params)
    if params:
        raise ValueError(f"unused parameters for {name}: {sorted(params)}")
    return partial(step, state)
