"""Property-based tests for the DES kernel and the delay buffer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from tests.fluid.oracles import DelayBuffer

delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=100,
)


class TestEventOrdering:
    @given(delays=delays)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(delays=delays)
    def test_equal_times_preserve_scheduling_order(self, delays):
        sim = Simulator()
        fired = []
        t = max(delays)
        for i, _ in enumerate(delays):
            sim.schedule(t, fired.append, i)
        sim.run()
        assert fired == list(range(len(delays)))

    @given(delays=delays, cancel_mask=st.data())
    def test_cancelled_subset_never_fires(self, delays, cancel_mask):
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(d, fired.append, i) for i, d in enumerate(delays)
        ]
        to_cancel = cancel_mask.draw(
            st.sets(st.integers(min_value=0, max_value=len(delays) - 1))
        )
        for i in to_cancel:
            handles[i].cancel()
        sim.run()
        assert set(fired) == set(range(len(delays))) - to_cancel


@st.composite
def sample_paths(draw):
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
                min_size=2,
                max_size=50,
                unique=True,
            )
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=len(times),
            max_size=len(times),
        )
    )
    return times, values


class TestDelayBufferProperties:
    @given(path=sample_paths(), query=st.floats(min_value=-10, max_value=1010))
    @settings(max_examples=200)
    def test_lookup_within_value_bounds(self, path, query):
        times, values = path
        buf = DelayBuffer(times[0], values[0])
        for t, v in zip(times[1:], values[1:]):
            buf.append(t, v)
        result = buf.value_at(query)
        assert min(values) - 1e-9 <= result <= max(values) + 1e-9

    @given(path=sample_paths())
    def test_exact_lookup_at_sample_times(self, path):
        times, values = path
        buf = DelayBuffer(times[0], values[0])
        for t, v in zip(times[1:], values[1:]):
            buf.append(t, v)
        for t, v in zip(times, values):
            assert buf.value_at(t) == v

    @given(path=sample_paths(), cut=st.floats(min_value=0.0, max_value=1000.0))
    def test_trim_preserves_recent_lookups(self, path, cut):
        times, values = path
        full = DelayBuffer(times[0], values[0])
        trimmed = DelayBuffer(times[0], values[0])
        for t, v in zip(times[1:], values[1:]):
            full.append(t, v)
            trimmed.append(t, v)
        trimmed.trim_before(cut)
        for q in [cut, cut + 1.0, times[-1], times[-1] + 5.0]:
            if q >= cut:
                assert trimmed.value_at(q) == full.value_at(q)
