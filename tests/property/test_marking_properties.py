"""Property-based tests for the marking state machines (hypothesis)."""

import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import marking
from repro.core.marking import DoubleThresholdMarker, SingleThresholdMarker

queue_paths = st.lists(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    min_size=1,
    max_size=200,
)


@st.composite
def dt_configs(draw):
    k1 = draw(st.floats(min_value=1.0, max_value=80.0))
    gap = draw(st.floats(min_value=0.0, max_value=80.0))
    deadband = draw(st.floats(min_value=0.0, max_value=5.0))
    return k1, k1 + gap, deadband


class TestSingleThresholdProperties:
    @given(k=st.floats(min_value=0.1, max_value=100.0), path=queue_paths)
    def test_decision_depends_only_on_current_sample(self, k, path):
        marker = SingleThresholdMarker.from_threshold(k)
        fresh_each_time = [
            SingleThresholdMarker.from_threshold(k).should_mark(q) for q in path
        ]
        sequential = [marker.should_mark(q) for q in path]
        assert fresh_each_time == sequential

    @given(k=st.floats(min_value=0.1, max_value=100.0), path=queue_paths)
    def test_marks_iff_at_or_above_threshold(self, k, path):
        marker = SingleThresholdMarker.from_threshold(k)
        for q in path:
            assert marker.should_mark(q) == (q >= k)


#: One instance of every marker class in ``repro.core.marking`` that
#: declares ``fused_threshold``, found by looking, so a future memoryless
#: marker is held to the promise without being listed here.
FUSED_MARKERS = {
    "NullMarker": marking.NullMarker,
    "SingleThresholdMarker": lambda: SingleThresholdMarker.from_threshold(17.5),
}


def test_every_fusing_marker_class_is_covered():
    declaring = {
        name
        for name, cls in inspect.getmembers(marking, inspect.isclass)
        if cls.__module__ == marking.__name__ and hasattr(cls, "fused_threshold")
    }
    assert declaring == set(FUSED_MARKERS)
    for cls in (DoubleThresholdMarker, marking.REDMarker):
        assert not hasattr(cls, "fused_threshold")  # stateful: no promise


class TestFusedThresholdPromise:
    @pytest.mark.parametrize("name", sorted(FUSED_MARKERS))
    @given(
        path=st.lists(
            st.one_of(
                st.floats(min_value=0.0, allow_nan=False),  # includes inf
                st.sampled_from([0.0, 17.5, math.inf]),
            ),
            min_size=1,
            max_size=100,
        ).flatmap(lambda qs: st.permutations(qs + qs))  # with repeats
    )
    def test_should_mark_is_the_compare(self, name, path):
        """What the link's fused send relies on: the verdict is
        ``q >= fused_threshold`` whatever was asked before."""
        marker = FUSED_MARKERS[name]()
        threshold = marker.fused_threshold
        for q in path:
            assert marker.should_mark(q) == (q >= threshold)
        assert marker.fused_threshold == threshold


class TestDoubleThresholdInvariants:
    @given(config=dt_configs(), path=queue_paths)
    def test_never_marks_below_k1(self, config, path):
        k1, k2, deadband = config
        marker = DoubleThresholdMarker.from_thresholds(k1, k2, deadband=deadband)
        for q in path:
            marked = marker.should_mark(q)
            if q < k1:
                assert not marked

    @given(config=dt_configs(), path=queue_paths)
    def test_always_marks_at_or_above_k2(self, config, path):
        k1, k2, deadband = config
        marker = DoubleThresholdMarker.from_thresholds(k1, k2, deadband=deadband)
        for q in path:
            marked = marker.should_mark(q)
            if q >= k2:
                assert marked

    @given(config=dt_configs(), path=queue_paths)
    def test_determinism(self, config, path):
        k1, k2, deadband = config
        a = DoubleThresholdMarker.from_thresholds(k1, k2, deadband=deadband)
        b = DoubleThresholdMarker.from_thresholds(k1, k2, deadband=deadband)
        assert [a.should_mark(q) for q in path] == [
            b.should_mark(q) for q in path
        ]

    @given(config=dt_configs(), path=queue_paths)
    def test_reset_equals_fresh_instance(self, config, path):
        k1, k2, deadband = config
        used = DoubleThresholdMarker.from_thresholds(k1, k2, deadband=deadband)
        for q in path:
            used.should_mark(q)
        used.reset()
        fresh = DoubleThresholdMarker.from_thresholds(k1, k2, deadband=deadband)
        assert [used.should_mark(q) for q in path] == [
            fresh.should_mark(q) for q in path
        ]

    @given(config=dt_configs())
    @settings(max_examples=50)
    def test_monotone_rise_and_fall_bracket_thresholds(self, config):
        """On a slow monotone ramp the state flips exactly once each way,
        somewhere inside [K1, K2] (exact point depends on deadband)."""
        k1, k2, deadband = config
        marker = DoubleThresholdMarker.from_thresholds(k1, k2, deadband=deadband)
        step = max((k2 + 20.0) / 400.0, deadband / 2.0 + 1e-6)
        q = 0.0
        transitions_up = []
        prev = marker.should_mark(q)
        while q < k2 + 20.0:
            q += step
            now = marker.should_mark(q)
            if now != prev:
                transitions_up.append((q, now))
            prev = now
        assert len(transitions_up) == 1
        flip_q, flip_state = transitions_up[0]
        assert flip_state is True
        assert k1 <= flip_q <= max(k2, k1 + deadband + 2 * step)

        transitions_down = []
        while q > -step:
            q -= step
            now = marker.should_mark(max(q, 0.0))
            if now != prev:
                transitions_down.append((q, now))
            prev = now
        assert len(transitions_down) == 1
        assert transitions_down[0][1] is False
