"""Unit tests for the marking mechanisms (repro.core.marking)."""

import math
import random

import pytest

from repro.core.describing_function import (
    marking_waveform_double,
    marking_waveform_single,
)
from repro.core.marking import (
    DoubleThresholdMarker,
    Marker,
    NullMarker,
    REDMarker,
    SingleThresholdMarker,
)
from repro.core.parameters import DoubleThresholdParams, SingleThresholdParams


class TestNullMarker:
    def test_never_marks(self):
        m = NullMarker()
        assert not any(m.should_mark(q) for q in (0, 1, 1e6))

    def test_satisfies_protocol(self):
        assert isinstance(NullMarker(), Marker)


class TestSingleThresholdMarker:
    def test_marks_at_and_above_threshold(self):
        m = SingleThresholdMarker.from_threshold(40.0)
        assert not m.should_mark(39.999)
        assert m.should_mark(40.0)
        assert m.should_mark(41.0)

    def test_memoryless(self):
        m = SingleThresholdMarker.from_threshold(40.0)
        m.should_mark(100.0)
        assert not m.should_mark(10.0)
        m.reset()
        assert m.should_mark(45.0)

    def test_satisfies_protocol(self):
        assert isinstance(SingleThresholdMarker.from_threshold(1.0), Marker)


class TestDoubleThresholdMarker:
    def make(self, deadband=0.0):
        return DoubleThresholdMarker.from_thresholds(30.0, 50.0, deadband=deadband)

    def test_initially_unmarked(self):
        assert not self.make().should_mark(40.0)

    def test_always_marks_above_k2(self):
        m = self.make()
        assert m.should_mark(50.0)
        assert m.should_mark(51.0)

    def test_never_marks_below_k1(self):
        m = self.make()
        m.should_mark(60.0)  # force ON
        assert not m.should_mark(29.0)

    def test_starts_marking_on_rise_through_k1(self):
        m = self.make()
        assert not m.should_mark(25.0)
        assert m.should_mark(31.0)  # rising into the band -> ON
        assert m.should_mark(35.0)

    def test_stops_marking_on_fall_through_k2(self):
        m = self.make()
        m.should_mark(60.0)  # ON above K2
        assert not m.should_mark(49.0)  # falling into the band -> OFF

    def test_holds_state_on_flat_queue(self):
        m = self.make()
        m.should_mark(25.0)
        m.should_mark(35.0)  # rising -> ON
        assert m.should_mark(35.0)  # flat -> hold ON
        assert m.should_mark(35.0)

    def test_full_excursion_matches_paper_figure8(self):
        """Rising: first mark at K1. Falling: last mark at K2."""
        m = self.make()
        marks_up = [(q, m.should_mark(q)) for q in range(0, 71)]
        first_marked = next(q for q, marked in marks_up if marked)
        assert first_marked == 30
        marks_down = [(q, m.should_mark(q)) for q in range(70, -1, -1)]
        lowest_marked_falling = min(q for q, marked in marks_down if marked)
        assert lowest_marked_falling == 50

    def test_deadband_rejects_small_jitter(self):
        m = self.make(deadband=2.0)
        m.should_mark(25.0)
        m.should_mark(40.0)  # big rise -> ON
        assert m.should_mark(39.5)  # -0.5 within deadband -> hold ON
        assert m.should_mark(40.5)
        assert not m.should_mark(37.0)  # -3.5 beyond deadband -> OFF

    def test_deadband_zero_flips_on_any_move(self):
        m = self.make(deadband=0.0)
        m.should_mark(40.0)
        assert m.should_mark(40.5)
        assert not m.should_mark(40.4)

    def test_reset_restores_initial_state(self):
        m = self.make()
        m.should_mark(60.0)
        m.reset()
        assert not m.marking
        assert not m.should_mark(40.0)  # unknown direction -> OFF

    def test_negative_deadband_rejected(self):
        with pytest.raises(ValueError):
            DoubleThresholdMarker.from_thresholds(30.0, 50.0, deadband=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_deadband_rejected(self, bad):
        """Either would hold the band's state forever: a queue rising
        35 -> 40 -> 45 inside the band would never mark."""
        with pytest.raises(ValueError, match="deadband"):
            DoubleThresholdMarker.from_thresholds(30.0, 50.0, deadband=bad)

    def test_equal_thresholds_degenerate_to_relay(self):
        m = DoubleThresholdMarker.from_thresholds(40.0, 40.0)
        relay = SingleThresholdMarker.from_threshold(40.0)
        queue = [10, 20, 39, 40, 41, 60, 45, 40, 39.9, 20]
        assert [m.should_mark(q) for q in queue] == [
            relay.should_mark(q) for q in queue
        ]

    def test_satisfies_protocol(self):
        assert isinstance(self.make(), Marker)


class TestREDMarker:
    def test_probability_profile(self):
        m = REDMarker(min_th=20.0, max_th=60.0, max_p=0.1)
        assert m.marking_probability(10.0) == 0.0
        assert m.marking_probability(20.0) == 0.0
        assert m.marking_probability(40.0) == pytest.approx(0.05)
        assert m.marking_probability(60.0) == 1.0
        assert m.marking_probability(100.0) == 1.0

    def test_never_marks_below_min_threshold(self):
        m = REDMarker(min_th=20.0, max_th=60.0)
        assert not any(m.should_mark(5.0) for _ in range(100))

    def test_always_marks_when_average_beyond_max(self):
        m = REDMarker(min_th=2.0, max_th=4.0, weight=1.0)
        m.should_mark(100.0)  # average jumps to 100 with weight 1
        assert m.should_mark(100.0)

    def test_average_tracks_queue_with_ewma(self):
        m = REDMarker(min_th=20.0, max_th=60.0, weight=0.5)
        m.should_mark(10.0)
        m.should_mark(20.0)
        assert m.average_queue == pytest.approx(15.0)

    def test_marking_rate_approximates_probability(self):
        m = REDMarker(
            min_th=10.0, max_th=30.0, max_p=0.5, weight=1.0,
            rng=random.Random(42),
        )
        marks = sum(m.should_mark(20.0) for _ in range(4000))
        assert 0.2 < marks / 4000 < 0.3  # expected 0.25

    def test_reset_clears_average(self):
        m = REDMarker(min_th=20.0, max_th=60.0)
        m.should_mark(100.0)
        m.reset()
        assert m.average_queue == 0.0

    def test_reset_restores_rng_for_deterministic_replay(self):
        """Regression: reset() cleared the EWMA but left the RNG
        advanced, so a replayed queue saw a different mark sequence."""
        m = REDMarker(min_th=5.0, max_th=15.0, max_p=0.5, weight=1.0)
        first = [m.should_mark(10.0) for _ in range(100)]
        m.reset()
        replay = [m.should_mark(10.0) for _ in range(100)]
        assert first == replay
        assert any(first)  # the sequence actually exercised the dice
        assert not all(first)

    def test_reset_replay_with_explicit_rng(self):
        m = REDMarker(
            min_th=5.0, max_th=15.0, max_p=0.5, weight=1.0,
            rng=random.Random(1234),
        )
        first = [m.should_mark(12.0) for _ in range(50)]
        m.reset()
        assert [m.should_mark(12.0) for _ in range(50)] == first

    def test_rng_without_state_api_still_resets_average(self):
        class StreamOnly:
            def __init__(self):
                self.calls = 0

            def random(self):
                self.calls += 1
                return 0.99

        m = REDMarker(min_th=5.0, max_th=15.0, weight=1.0, rng=StreamOnly())
        m.should_mark(10.0)
        m.reset()
        assert m.average_queue == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_th": 0.0, "max_th": 10.0},
            {"min_th": 10.0, "max_th": 10.0},
            {"min_th": 10.0, "max_th": 20.0, "max_p": 0.0},
            {"min_th": 10.0, "max_th": 20.0, "max_p": 1.5},
            {"min_th": 10.0, "max_th": 20.0, "weight": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            REDMarker(**kwargs)


class TestWaveforms:
    def test_single_waveform_on_interval(self):
        # ON exactly for phase in [arcsin(K/X), pi - arcsin(K/X)].
        x, k = 80.0, 40.0
        phi1 = math.asin(k / x)
        assert marking_waveform_single(phi1 + 1e-6, x, k) == 1.0
        assert marking_waveform_single(phi1 - 1e-3, x, k) == 0.0
        assert marking_waveform_single(math.pi - phi1 - 1e-6, x, k) == 1.0
        assert marking_waveform_single(math.pi - phi1 + 1e-3, x, k) == 0.0

    def test_double_waveform_on_interval(self):
        x, k1, k2 = 80.0, 30.0, 50.0
        phi1 = math.asin(k1 / x)
        phi2 = math.pi - math.asin(k2 / x)
        assert marking_waveform_double(phi1 + 1e-6, x, k1, k2) == 1.0
        assert marking_waveform_double(phi1 - 1e-3, x, k1, k2) == 0.0
        assert marking_waveform_double(phi2 - 1e-6, x, k1, k2) == 1.0
        assert marking_waveform_double(phi2 + 1e-3, x, k1, k2) == 0.0

    def test_double_waveform_zero_when_amplitude_below_k2(self):
        assert marking_waveform_double(math.pi / 2, 40.0, 30.0, 50.0) == 0.0

    def test_waveforms_respect_offset(self):
        # Shifting the bias shifts the effective threshold.
        assert marking_waveform_single(math.pi / 2, 10.0, 45.0, offset=40.0) == 1.0
        assert marking_waveform_single(math.pi / 2, 10.0, 55.0, offset=40.0) == 0.0
