"""Smoothing filters, the cascade, and the BFT trigger."""

import copy
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from polsim.filters import (
    CascadeState,
    DynamicMovingAverageState,
    ExpSmoothingState,
    GaussianState,
    KalmanState,
    MedianState,
    MovingAverageState,
    TriggerState,
    bft_trigger,
    cascade_step,
    dynamic_moving_average_step,
    exp_smoothing_step,
    gaussian_step,
    kalman_step,
    make_filter,
    median_step,
    moving_average_step,
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
        state = KalmanState(q=0.0, r=4.0, x=-40.0, p=1.0)
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
        state2 = KalmanState(q=0.01, r=4.0, x=-40.0, p=4.0)
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
        state = CascadeState(MedianState(window=3), KalmanState())
        worst = 0.0
        for i in range(40):
            v = -90.0 if i == 20 else -45.0
            out = cascade_step(state, v)
            if i >= 3:
                worst = max(worst, abs(out + 45.0))
        assert worst <= 1.0

    def test_constant_converges(self):
        state = CascadeState(MedianState(window=5), KalmanState())
        out = None
        for _ in range(50):
            out = cascade_step(state, -45.0)
        assert out == pytest.approx(-45.0)

    def test_step_change_tracked(self):
        state = CascadeState(MedianState(window=5), KalmanState())
        for _ in range(30):
            cascade_step(state, -45.0)
        out = None
        for _ in range(50):
            out = cascade_step(state, -60.0)
        assert abs(out - (-60.0)) <= 2.0


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

    def test_make_filter_state_survives_deepcopy(self):
        step = make_filter("median_kalman", {"window": 3})
        for v in (-40.0, -60.0, -41.0):
            step(v)
        clone = copy.deepcopy(step)
        assert [clone(v) for v in (-70.0, -42.0)] == [step(v) for v in (-70.0, -42.0)]


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
        cascade = CascadeState(MedianState(window=5), KalmanState())
        for t in range(250):
            raw = -45.0 if t < 50 else -58.0
            smoothed = cascade_step(cascade, raw)
            if t >= 10 and bft_trigger(state, smoothed, t):
                assert t > 50
                fires += 1
        assert 1 <= fires <= 2

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError, match="warmup"):
            TriggerState(warmup=-1)

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
            assert dataclasses.replace(warm, samples=0) == initial
        fresh = TriggerState(threshold=threshold, cooldown=cooldown, rebaseline_after=5)
        rest = list(enumerate(values))[k:]
        assert [bft_trigger(warm, v, t) for t, v in rest] == [bft_trigger(fresh, v, t) for t, v in rest]
        assert dataclasses.replace(warm, warmup=0, samples=0) == fresh


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
