"""Unit tests for the reference loop's history buffer.

:class:`tests.fluid.oracles.DelayBuffer` is the delayed-marking lookup
the golden and differential fluid tests are held to, so its zero-order
hold is checked on its own here.
"""

import pytest

from tests.fluid.oracles import DelayBuffer


class TestDelayBufferBasics:
    def test_initial_value_everywhere_before_history(self):
        buf = DelayBuffer(0.0, 5.0)
        assert buf.value_at(-1.0) == 5.0
        assert buf.value_at(0.0) == 5.0

    def test_append_and_latest(self):
        buf = DelayBuffer(0.0, 1.0)
        buf.append(1.0, 3.0)
        assert buf.latest_time == 1.0
        assert buf.latest_value == 3.0
        assert len(buf) == 2

    def test_rejects_time_travel(self):
        buf = DelayBuffer(0.0, 1.0)
        buf.append(2.0, 1.0)
        with pytest.raises(ValueError):
            buf.append(1.0, 1.0)

    def test_allows_repeated_time(self):
        buf = DelayBuffer(0.0, 1.0)
        buf.append(1.0, 2.0)
        buf.append(1.0, 3.0)
        assert buf.latest_value == 3.0


class TestZeroOrderHold:
    def test_holds_previous_value(self):
        buf = DelayBuffer(0.0, 0.0)
        buf.append(1.0, 1.0)
        buf.append(2.0, 0.0)
        assert buf.value_at(0.5) == 0.0
        assert buf.value_at(1.0) == 1.0
        assert buf.value_at(1.999) == 1.0
        assert buf.value_at(2.0) == 0.0

    def test_relay_signal_never_interpolated(self):
        """The marking signal is binary; lookups must return 0 or 1."""
        buf = DelayBuffer(0.0, 0.0)
        for t, v in [(1.0, 1.0), (2.0, 0.0), (3.0, 1.0)]:
            buf.append(t, v)
        values = {buf.value_at(t) for t in [0.1, 0.9, 1.5, 2.5, 3.5]}
        assert values <= {0.0, 1.0}


class TestTrim:
    def test_trim_preserves_lookup_at_boundary(self):
        buf = DelayBuffer(0.0, 0.0)
        for t in range(1, 11):
            buf.append(float(t), float(t))
        buf.trim_before(5.0)
        assert buf.value_at(5.0) == 5.0
        assert buf.value_at(5.5) == 5.0
        assert len(buf) < 11

    def test_trim_keeps_one_older_sample(self):
        buf = DelayBuffer(0.0, 0.0)
        buf.append(1.0, 1.0)
        buf.append(2.0, 2.0)
        buf.trim_before(1.5)
        # Lookup at 1.5 still resolves to the sample at 1.0.
        assert buf.value_at(1.5) == 1.0

    def test_trim_noop_when_all_recent(self):
        buf = DelayBuffer(0.0, 0.0)
        buf.append(1.0, 1.0)
        buf.trim_before(0.0)
        assert len(buf) == 2
