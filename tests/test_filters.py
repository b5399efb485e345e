"""Smoothing filters, the cascade, and the BFT trigger."""

import collections
import copy
import dataclasses
import math
import random
from operator import mul
from typing import get_type_hints

import pytest
from hypothesis import example, given, settings, strategies as st

import polsim.filters
from polsim.filters import (
    _FILTERS,
    FLAT_WINDOW,
    GAUSSIAN_MAX_WINDOW,
    CascadeState,
    DynamicMovingAverageState,
    ExpSmoothingState,
    GaussianState,
    KalmanState,
    MedianState,
    MovingAverageState,
    TriggerState,
    _sum,
    bft_trigger,
    cascade_step,
    dynamic_moving_average_step,
    exp_smoothing_step,
    gaussian_step,
    kalman_step,
    make_filter,
    median_step,
    moving_average_step,
    trigger_fires,
)

streams = st.lists(st.floats(min_value=-120.0, max_value=0.0, allow_nan=False), min_size=1, max_size=80)


class TestMedian:
    def test_window_three_sequence(self):
        state = MedianState(window=3)
        outputs = [median_step(state, v) for v in (-40.0, -90.0, -41.0)]
        # warm-up: single value, then the upper of {-90, -40}, then true median
        assert outputs == [-40.0, -40.0, -41.0]

    def test_constant(self):
        state = MedianState(window=3)
        for _ in range(5):
            assert median_step(state, -45.0) == -45.0

    def test_window_five_middle(self):
        state = MedianState(window=5)
        values = [-40.0, -42.0, -41.0, -90.0, -43.0]
        out = [median_step(state, v) for v in values][-1]
        assert out == -42.0

    def test_rejects_even_window(self):
        with pytest.raises(ValueError):
            MedianState(window=4)

    def test_window_one_is_identity(self):
        state = MedianState(window=1)
        for v in (-40.0, -90.0, -13.5):
            assert median_step(state, v) == v


class TestKalman:
    def test_first_measurement_initializes(self):
        state = KalmanState(q=0.01, r=4.0)
        assert kalman_step(state, -40.0) == -40.0

    def test_forced_arithmetic_step(self):
        # x=-40, p=1, q=0, r=4, z=-46: K = 1/5, x' = -40 + 0.2 * (-6) = -41.2
        state = KalmanState(q=0.0, r=4.0)
        state.x, state.p = -40.0, 1.0
        assert kalman_step(state, -46.0) == pytest.approx(-41.2)

    def test_converges_to_constant_input(self):
        # independent scalar recursion computed inline as the oracle
        state = KalmanState(q=0.01, r=4.0)
        x = p = None
        got = None
        for _ in range(200):
            got = kalman_step(state, -50.0)
            if x is None:
                x, p = -40.0, 4.0  # oracle started from a different point on purpose
        # implementation starts at the first sample (-50) so it stays at -50
        assert got == pytest.approx(-50.0, abs=1e-9)
        # a run started at -40 must close most of the gap within 200 steps
        state2 = KalmanState(q=0.01, r=4.0)
        state2.x, state2.p = -40.0, 4.0
        for _ in range(200):
            out = kalman_step(state2, -50.0)
        assert abs(out - (-50.0)) < 0.5

    def test_r_small_approaches_identity(self):
        state = KalmanState(q=1.0, r=1e-9)
        kalman_step(state, -40.0)
        for v in (-55.0, -70.0, -33.0):
            assert kalman_step(state, v) == pytest.approx(v, abs=1e-6)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KalmanState(q=-0.1, r=1.0)
        with pytest.raises(ValueError):
            KalmanState(q=0.1, r=0.0)


class TestCascade:
    def test_single_spike_suppressed(self):
        state = CascadeState(window=3)
        worst = 0.0
        for i in range(40):
            v = -90.0 if i == 20 else -45.0
            out = cascade_step(state, v)
            if i >= 3:
                worst = max(worst, abs(out + 45.0))
        assert worst <= 1.0

    def test_constant_converges(self):
        state = CascadeState(window=5)
        out = None
        for _ in range(50):
            out = cascade_step(state, -45.0)
        assert out == pytest.approx(-45.0)

    def test_step_change_tracked(self):
        state = CascadeState(window=5)
        for _ in range(30):
            cascade_step(state, -45.0)
        out = None
        for _ in range(50):
            out = cascade_step(state, -60.0)
        assert abs(out - (-60.0)) <= 2.0

    def test_defaults_are_the_median_and_kalman_defaults(self):
        state = CascadeState()
        assert state.window == MedianState().window
        assert (state.q, state.r) == (KalmanState().q, KalmanState().r)


class TestOtherFilters:
    def test_moving_average(self):
        state = MovingAverageState(window=2)
        moving_average_step(state, -40.0)
        assert moving_average_step(state, -50.0) == pytest.approx(-45.0)

    def test_exp_smoothing_alpha_one_is_identity(self):
        state = ExpSmoothingState(alpha=1.0)
        for v in (-40.0, -77.0, -12.0):
            assert exp_smoothing_step(state, v) == v

    def test_exp_smoothing_blend(self):
        state = ExpSmoothingState(alpha=0.5)
        exp_smoothing_step(state, -40.0)
        assert exp_smoothing_step(state, -50.0) == pytest.approx(-45.0)

    def test_gaussian_window_one_is_identity(self):
        state = GaussianState(sigma=2.0, window=1)
        for v in (-40.0, -90.0):
            assert gaussian_step(state, v) == pytest.approx(v)

    def test_gaussian_weights_newest_highest(self):
        state = GaussianState(sigma=1.0, window=3)
        for v in (-60.0, -60.0, -40.0):
            out = gaussian_step(state, v)
        assert -60.0 < out < -40.0
        assert out > -50.0  # newest (-40) carries the largest weight

    @pytest.mark.parametrize("sigma", [0.25, 1.0, 2.0, 3.3, 10.0])
    @pytest.mark.parametrize("window", range(1, 10))
    def test_gaussian_cached_weights_match_the_per_call_expression(self, window, sigma):
        # the weights and their total as each step computed them before they
        # were built once per parameter set; outputs must agree bit for bit,
        # during warm-up (fewer than `window` samples) and after
        rng = random.Random(window * 100 + sigma)
        state, buffer = GaussianState(sigma=sigma, window=window), []
        for _ in range(3 * window + 5):
            v = rng.uniform(-95.0, -30.0)
            buffer = (buffer + [v])[-window:]
            weights = [math.exp(-(age * age) / (2.0 * sigma * sigma)) for age in range(len(buffer))]
            expected = _sum(map(mul, weights, reversed(buffer))) / _sum(weights)
            assert gaussian_step(state, v) == expected

    def test_gaussian_window_past_the_bound_rejected(self):
        # the weights are built when the state is made, so a window is bounded
        assert len(GaussianState(window=GAUSSIAN_MAX_WINDOW).weights) == GAUSSIAN_MAX_WINDOW
        for window in (GAUSSIAN_MAX_WINDOW + 1, 10**12):
            with pytest.raises(ValueError, match="window must be in"):
                make_filter("gaussian", {"window": window})

    def test_gaussian_states_share_one_weight_table(self):
        # one node holds a smoother per link; they share the weights
        a, b = GaussianState(sigma=3.0, window=400), GaussianState(sigma=3.0, window=400)
        assert a.weights is b.weights and a.totals is b.totals
        clone = copy.deepcopy(a)
        assert clone.weights is a.weights and clone.totals is a.totals
        assert GaussianState(sigma=3.0, window=401).weights[:400] == a.weights

    def test_dynamic_moving_average_shrinks_on_jump(self):
        state = DynamicMovingAverageState(max_window=8, threshold=5.0)
        for _ in range(8):
            dynamic_moving_average_step(state, -45.0)
        grown = state.window
        assert grown > 1
        dynamic_moving_average_step(state, -70.0)
        assert state.window == max(1, grown // 2)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MovingAverageState(window=0)
        with pytest.raises(ValueError):
            ExpSmoothingState(alpha=0.0)
        with pytest.raises(ValueError):
            ExpSmoothingState(alpha=1.5)
        with pytest.raises(ValueError):
            GaussianState(sigma=0.0)

    def test_make_filter_registry(self):
        step = make_filter("moving_average", {"window": 2})
        step(-40.0)
        assert step(-50.0) == pytest.approx(-45.0)
        with pytest.raises(ValueError):
            make_filter("nope")
        with pytest.raises(ValueError):
            make_filter("median", {"bogus": 1})

    @pytest.mark.parametrize("name, key, bad", [
        pytest.param(name, f.name, bad, id=f"{name}-{f.name}-{bad!r}")
        for name, (cls, _step) in _FILTERS.items()
        for f in dataclasses.fields(cls)
        if f.init
        for bad in (True, "1", *((1.5,) if get_type_hints(cls)[f.name] is int else ()))
    ])
    def test_make_filter_rejects_a_value_of_the_wrong_kind(self, name, key, bad):
        with pytest.raises(ValueError, match=f"^{key} must be "):
            make_filter(name, {key: bad})

    def test_make_filter_state_survives_deepcopy(self):
        step = make_filter("median_kalman", {"window": 3})
        for v in (-40.0, -60.0, -41.0):
            step(v)
        clone = copy.deepcopy(step)
        assert [clone(v) for v in (-70.0, -42.0)] == [step(v) for v in (-70.0, -42.0)]

    @pytest.mark.parametrize("name", [*_FILTERS, "trigger"])
    def test_every_link_state_is_slotted(self, name):
        # a node keeps one smoother and one trigger per directed link
        state = TriggerState(threshold=6.0, cooldown=30) if name == "trigger" else make_filter(name).args[0]
        assert not hasattr(state, "__dict__")


class TestTrigger:
    def test_fires_past_threshold(self):
        state = TriggerState(threshold=6.0, cooldown=30)
        assert not bft_trigger(state, -45.0, 0)  # baseline
        assert bft_trigger(state, -52.0, 1)  # |7| > 6

    def test_holds_below_threshold(self):
        state = TriggerState(threshold=6.0, cooldown=30)
        bft_trigger(state, -45.0, 0)
        assert not bft_trigger(state, -48.0, 1)  # 3 <= 6

    def test_cooldown_blocks_second_fire(self):
        state = TriggerState(threshold=6.0, cooldown=30)
        bft_trigger(state, -45.0, 0)
        assert bft_trigger(state, -52.0, 1)
        assert not bft_trigger(state, -60.0, 2)  # within cooldown
        assert bft_trigger(state, -60.0, 31)

    def test_rebaseline_follows_settled_value(self):
        state = TriggerState(threshold=6.0, cooldown=30, rebaseline_after=40)
        for t in range(60):
            assert not bft_trigger(state, -50.0, t)
        # baseline refreshed at -50; a 7 dB move now fires even though the
        # very first baseline was also -50
        assert state.last_reported == pytest.approx(-50.0)
        assert bft_trigger(state, -57.0, 61)

    def test_rebaseline_waits_for_flat_signal(self):
        state = TriggerState(threshold=6.0, cooldown=1000, rebaseline_after=10)
        bft_trigger(state, -50.0, 0)
        # ramp: never flat, never re-baselined, so the full swing still fires
        value = -50.0
        fired = []
        for t in range(1, 40):
            value -= 0.4
            fired.append(bft_trigger(state, value, t))
        assert any(fired)

    def test_at_most_two_fires_per_step_change(self):
        fires = 0
        state = TriggerState(threshold=6.0, cooldown=35)
        cascade = CascadeState(window=5)
        for t in range(250):
            raw = -45.0 if t < 50 else -58.0
            smoothed = cascade_step(cascade, raw)
            if t >= 10 and bft_trigger(state, smoothed, t):
                assert t > 50
                fires += 1
        assert 1 <= fires <= 2

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError, match="warmup"):
            TriggerState(threshold=6.0, cooldown=30, warmup=-1)

    @settings(max_examples=150)
    @given(
        st.integers(min_value=0, max_value=30),
        streams,
        st.floats(min_value=0.5, max_value=10.0),
        st.integers(min_value=0, max_value=20),
    )
    def test_warmup_skips_then_matches_a_fresh_trigger(self, k, values, threshold, cooldown):
        warm = TriggerState(threshold=threshold, cooldown=cooldown, rebaseline_after=5, warmup=k)
        initial = copy.deepcopy(warm)
        for t, v in enumerate(values[:k]):
            assert bft_trigger(warm, v, t) is False
            assert warm.samples == t + 1
            counted = copy.deepcopy(warm)
            counted.samples = 0
            assert counted == initial
        fresh = TriggerState(threshold=threshold, cooldown=cooldown, rebaseline_after=5)
        rest = list(enumerate(values))[k:]
        assert [bft_trigger(warm, v, t) for t, v in rest] == [bft_trigger(fresh, v, t) for t, v in rest]
        warm.warmup = warm.samples = 0
        assert warm == fresh


def reference_bft_trigger(state: TriggerState, smoothed: float, now: int) -> bool:
    """The trigger as written before its state was read into locals and the
    flatness check was inlined; `bft_trigger` must match it step for step."""

    def locally_flat() -> bool:
        if len(state.recent) < FLAT_WINDOW:
            return False
        return max(state.recent) - min(state.recent) <= state.threshold / 3.0

    if state.samples < state.warmup:
        state.samples += 1
        return False
    state.recent.append(smoothed)
    if len(state.recent) > FLAT_WINDOW:
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
    if now - anchor >= state.rebaseline_after and locally_flat():
        state.last_reported = smoothed
        state.last_baseline = now
    return False


def assert_trigger_invariant(state: TriggerState) -> None:
    """The `TriggerState` invariant that lets `bft_trigger` count quiet time
    from `last_baseline` alone."""
    if state.last_reported is not None:
        assert state.last_baseline is not None
        assert state.last_fire is None or state.last_fire <= state.last_baseline


class TestTriggerMatchesReference:
    # Each segment jumps by `delta` and then holds within +-`wobble` for
    # `length` samples, so both fires and rebaselines on flat windows occur;
    # `report` stands for the node's own BFT emission before the segment.
    segments = st.lists(
        st.tuples(
            st.floats(min_value=-15.0, max_value=15.0),
            st.integers(min_value=1, max_value=25),
            st.floats(min_value=0.0, max_value=2.0),
            st.integers(min_value=0, max_value=3),
            st.booleans(),
        ),
        max_size=12,
    )

    @settings(max_examples=300, deadline=None)
    @given(
        segments,
        st.floats(min_value=0.5, max_value=10.0),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=12),
    )
    def test_same_fires_and_final_state(self, segments, threshold, cooldown, rebaseline_after, warmup):
        state = TriggerState(threshold=threshold, cooldown=cooldown,
                             rebaseline_after=rebaseline_after, warmup=warmup)
        reference = copy.deepcopy(state)
        level, now = -60.0, 0
        for delta, length, wobble, gap, report in segments:
            level = min(-10.0, max(-110.0, level + delta))
            if report and state.last_reported is not None:
                state.note_report(level, now)
                reference.note_report(level, now)
            for i in range(length):
                value = level + (wobble if i % 2 else -wobble)
                assert bft_trigger(state, value, now) == reference_bft_trigger(reference, value, now)
                assert state == reference
                assert_trigger_invariant(state)
                now += gap


class TestTriggerFires:
    # Each stretch starts `gap` ticks after the last one, steps its ticks by
    # `step` (0 repeats a tick) and holds `level` within +-`wobble` (0 is
    # flat) for `length` samples; levels jump between stretches, up to 1e300
    # and to +-inf, and a NaN level or wobble makes a stretch of NaN.
    stretches = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=0, max_value=3),
            st.one_of(
                st.integers(min_value=-240, max_value=0).map(lambda k: k / 2),
                st.floats(min_value=-120.0, max_value=0.0),
                st.floats(min_value=-1e300, max_value=1e300),
                st.sampled_from([math.inf, -math.inf, math.nan]),
            ),
            st.one_of(st.sampled_from([0.0, 0.5, 1.0, math.nan]), st.floats(min_value=0.0, max_value=3.0)),
            st.integers(min_value=1, max_value=40),
        ),
        max_size=8,
    )

    @staticmethod
    def column(stretches):
        ticks, values, now = [], [], 0
        for gap, step, level, wobble, length in stretches:
            now += gap
            for i in range(length):
                ticks.append(now)
                values.append(level + (wobble if i % 2 else -wobble))
                now += step
        return ticks, values

    @staticmethod
    def fields(state):
        """The state's fields, with the float ones by `repr`, so that NaN
        compares equal to NaN."""
        return (state.samples, repr(state.last_reported), state.last_fire, state.last_baseline,
                repr(list(state.recent)))

    @settings(max_examples=400, deadline=None)
    @given(
        stretches,
        # on the half-dB grid of the levels, samples land exactly on the threshold
        st.one_of(
            st.sampled_from([0.5, 1.0, 1.5, 2.0, 6.0]),
            st.floats(min_value=0.1, max_value=20.0),
            st.floats(min_value=0.1, max_value=1e300),
        ),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=0, max_value=60),
    )
    @example([], 6.0, 30, 90, 0)  # an empty column
    @example([(0, 1, -50.0, 0.5, 4)], 6.0, 30, 90, 10)  # shorter than the warm-up
    @example([(0, 1, -50.0, 0.5, 11)], 6.0, 30, 90, 10)  # the warm-up and the baseline sample
    # a lone sample past the threshold, the first after the cooldown
    @example([(0, 1, -50.0, 0, 5), (0, 1, -60.0, 0, 30), (0, 1, -70.0, 0, 1), (0, 1, -60.0, 0, 100)],
             6.0, 30, 90, 0)
    # a NaN in the middle of a window, and a window that starts with one
    @example([(0, 1, -50.0, 0, 30), (0, 1, math.nan, 0, 1), (0, 1, -50.0, 0, 40)], 6.0, 0, 5, 0)
    def test_same_fires_and_final_state_as_per_sample_calls(
        self, stretches, threshold, cooldown, rebaseline_after, warmup
    ):
        ticks, values = self.column(stretches)
        state = TriggerState(threshold=threshold, cooldown=cooldown,
                             rebaseline_after=rebaseline_after, warmup=warmup)
        reference = copy.deepcopy(state)
        expected = [t for t, v in zip(ticks, values) if bft_trigger(reference, v, t)]
        assert trigger_fires(state, ticks, values) == expected
        assert self.fields(state) == self.fields(reference)

    @staticmethod
    def counted_calls(monkeypatch, state, ticks, values):
        """The ticks at which `trigger_fires` calls the module's trigger, and
        those at which a per-sample reference counts a warm-up sample, fires
        or moves its baseline; the fires and the final state must agree."""
        reference = copy.deepcopy(state)
        fires, changes = [], []
        for t, v in zip(ticks, values):
            before = (reference.samples, reference.last_reported, reference.last_baseline)
            if bft_trigger(reference, v, t):
                fires.append(t)
            if before != (reference.samples, reference.last_reported, reference.last_baseline):
                changes.append(t)
        calls = []

        def counted(state, smoothed, now):
            calls.append(now)
            return bft_trigger(state, smoothed, now)

        monkeypatch.setattr(polsim.filters, "bft_trigger", counted)
        assert trigger_fires(state, ticks, values) == fires
        assert state == reference
        return calls, changes

    def test_calls_the_module_trigger_only_where_a_sample_can_change_it(self, monkeypatch):
        ticks = list(range(1000))
        values = [-50.0] * 500 + [-60.0] * 500
        state = TriggerState(threshold=6.0, cooldown=30, rebaseline_after=200, warmup=10)
        calls, changes = self.counted_calls(monkeypatch, state, ticks, values)
        # the warm-up, the baseline, each rebaseline and the fire
        assert calls == changes == list(range(11)) + [210, 410, 500, 700, 900]

    def test_no_call_past_due_until_a_sample_can_change_the_trigger(self, monkeypatch):
        ticks = list(range(1200))

        def level(k):
            # never flat from 11 to 300 and from 750 to 1000 (a span of 6 dB
            # against a flat bound of 2, within 3 dB of the baseline); a step
            # at 600 fires
            if 11 <= k < 300:
                return -53.0 if k % 2 else -47.0
            if 750 <= k < 1000:
                return -63.0 if k % 2 else -57.0
            return -50.0 if k < 600 else -60.0

        state = TriggerState(threshold=6.0, cooldown=30, rebaseline_after=100, warmup=10)
        calls, changes = self.counted_calls(monkeypatch, state, ticks, list(map(level, ticks)))
        # the warm-up, the baseline, each rebaseline, the fire at 600
        assert calls == changes == list(range(11)) + [314, 414, 514, 600, 700, 1014, 1114]

    def test_no_call_while_a_cooldown_longer_than_rebaseline_after_holds(self, monkeypatch):
        ticks = list(range(400))
        # a fire at 100, then never flat until 300, with a sample past the
        # threshold at 180, inside the cooldown
        values = [-50.0] * 100 + [-63.0, -57.0] * 100 + [-60.0] * 100
        values[180] = -70.0
        state = TriggerState(threshold=6.0, cooldown=150, rebaseline_after=50)
        calls, changes = self.counted_calls(monkeypatch, state, ticks, values)
        # the baseline, the rebaseline at 50, the fire, the rebaselines once flat
        assert calls == changes == [0, 50, 100, 314, 364]

    @pytest.mark.parametrize(
        "recent, first",
        [
            ([-53.0, -47.0] * 7 + [-53.0], 14),  # full and not flat: flat once it has left the window
            ([-50.0] * 5, 9),  # flat, but not full: full at the tenth sample
        ],
        ids=["full", "part"],
    )
    def test_state_passed_in_with_recent_filled(self, monkeypatch, recent, first):
        state = TriggerState(threshold=6.0, cooldown=30)
        state.last_reported, state.last_baseline = -50.0, -200
        state.recent.extend(recent)
        ticks = list(range(200))
        calls, changes = self.counted_calls(monkeypatch, state, ticks, [-50.0] * 200)
        assert calls == changes == list(range(first, 200, 90))

    def test_recent_holds_the_last_flat_window_values(self):
        """Over a long column `recent` keeps only the last FLAT_WINDOW values:
        the deque drops the oldest, with no trimming by `trigger_fires`."""
        ticks = list(range(5000))
        # slow swings past the threshold, flat stretches that rebaseline
        values = [-60.0 + (8.0 if (t // 700) % 2 else 0.0) + 0.1 * math.sin(t) for t in ticks]
        state = TriggerState(threshold=6.0, cooldown=30, rebaseline_after=90, warmup=10)
        assert trigger_fires(state, ticks, values)
        assert len(state.recent) <= FLAT_WINDOW
        assert list(state.recent) == values[-FLAT_WINDOW:]

    def test_recent_is_not_a_callers_list(self):
        with pytest.raises(TypeError, match="recent"):
            TriggerState(threshold=6.0, cooldown=30, recent=[-50.0] * 20)
        with pytest.raises(TypeError, match="recent"):
            TriggerState(threshold=6.0, cooldown=30, recent=collections.deque())
        for name, value in (("samples", 3), ("last_reported", -50.0), ("last_fire", 0), ("last_baseline", 0)):
            with pytest.raises(TypeError, match=name):
                TriggerState(threshold=6.0, cooldown=30, **{name: value})
        assert TriggerState(threshold=6.0, cooldown=30).recent.maxlen == FLAT_WINDOW


class TestBoundedness:
    @settings(max_examples=80)
    @given(streams)
    def test_window_filters_stay_within_input_hull(self, values):
        median = MedianState(window=5)
        avg = MovingAverageState(window=5)
        gauss = GaussianState(sigma=2.0, window=5)
        for i, v in enumerate(values):
            lo, hi = min(values[: i + 1]), max(values[: i + 1])
            for out in (median_step(median, v), moving_average_step(avg, v), gaussian_step(gauss, v)):
                assert lo - 1e-9 <= out <= hi + 1e-9

    @settings(max_examples=80)
    @given(streams)
    def test_recursive_filters_bounded_by_initial_and_inputs(self, values):
        kalman = KalmanState()
        exp = ExpSmoothingState(alpha=0.3)
        for i, v in enumerate(values):
            lo, hi = min(values[: i + 1]), max(values[: i + 1])
            for out in (kalman_step(kalman, v), exp_smoothing_step(exp, v)):
                assert lo - 1e-9 <= out <= hi + 1e-9

    @settings(max_examples=50)
    @given(streams)
    def test_dynamic_moving_average_bounded(self, values):
        state = DynamicMovingAverageState(max_window=8, threshold=5.0)
        for i, v in enumerate(values):
            out = dynamic_moving_average_step(state, v)
            assert min(values[: i + 1]) - 1e-9 <= out <= max(values[: i + 1]) + 1e-9

    @settings(max_examples=50)
    @given(streams, st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.01, max_value=9.0))
    def test_kalman_variance_stays_positive(self, values, q, r):
        state = KalmanState(q=q, r=r)
        for v in values:
            kalman_step(state, v)
            assert state.p > 0.0
