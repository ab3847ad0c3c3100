"""Tests for the heterogeneous-RTT multi-class fluid model."""

import hashlib

import numpy as np
import pytest

from repro.core.marking import DoubleThresholdMarker, SingleThresholdMarker
from repro.core.parameters import paper_dctcp, paper_network
from repro.fluid.integrator import simulate
from repro.fluid.model import fluid_model
from repro.fluid.multiclass import (
    FlowClass,
    MultiClassModel,
    simulate_multiclass,
)

CAPACITY = 10e9 / (8 * 1500)


def dc_marker():
    return SingleThresholdMarker.from_threshold(40.0)


def dt_marker():
    return DoubleThresholdMarker.from_thresholds(30.0, 50.0)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiClassModel(0.0, [FlowClass(1, 1e-4)], dc_marker())
        with pytest.raises(ValueError):
            MultiClassModel(CAPACITY, [], dc_marker())
        with pytest.raises(ValueError):
            MultiClassModel(CAPACITY, [FlowClass(1, 1e-4)], dc_marker(), g=1.5)
        with pytest.raises(ValueError):
            FlowClass(0, 1e-4)
        with pytest.raises(ValueError):
            FlowClass(1, 0.0)

    def test_simulate_validation(self):
        model = MultiClassModel(CAPACITY, [FlowClass(5, 1e-4)], dc_marker())
        with pytest.raises(ValueError):
            simulate_multiclass(model, duration=0.0)
        with pytest.raises(ValueError):
            simulate_multiclass(model, duration=0.01, dt=1.0)


class TestSingleClassReduction:
    def test_matches_single_class_model(self):
        """With one class the multi-class system is Eq. 1-3 exactly."""
        net = paper_network(10)
        single = simulate(
            fluid_model(net, paper_dctcp()), duration=0.02
        ).after(0.01)
        multi = simulate_multiclass(
            MultiClassModel(
                net.capacity, [FlowClass(10, net.rtt)], dc_marker(), g=net.g
            ),
            duration=0.02,
        ).after(0.01)
        assert multi.mean_queue == pytest.approx(single.mean_queue, rel=0.1)
        assert multi.std_queue == pytest.approx(single.std_queue, rel=0.3)


class TestTrajectoryPinned:
    def test_three_class_trace_is_bit_identical_to_14c08b6(self):
        """``rtts``/``counts`` built once in ``__init__`` and ``rhs`` bound
        once outside the step loop are the same arrays in the same
        expressions: every sample equals what commit 14c08b6 (which
        rebuilt both arrays on each of the four ``derivatives`` calls a
        step) produced, recorded there by running this configuration."""
        classes = [FlowClass(4, 0.7e-4), FlowClass(3, 1e-4), FlowClass(3, 2e-4)]
        trace = simulate_multiclass(
            MultiClassModel(CAPACITY, classes, dt_marker()), duration=0.005
        )
        assert len(trace.time) == 2858
        assert trace.queue[-1] == 46.479067359152154
        sha = hashlib.sha256()
        for name in ("time", "windows", "alphas", "queue"):
            values = getattr(trace, name)
            sha.update(f"{name}{values.shape}".encode())
            for value in values.ravel().tolist():
                sha.update(value.hex().encode())
        assert sha.hexdigest() == (
            "5108a9aaf71d68de32027e7c1f72a678191ed1d90dce16fef418a96828e69e95"
        )


class TestInvariants:
    def make_trace(self, marker=None, classes=None, duration=0.02):
        classes = classes or [FlowClass(5, 1e-4), FlowClass(5, 3e-4)]
        model = MultiClassModel(
            CAPACITY, classes, marker or dc_marker()
        )
        return simulate_multiclass(model, duration=duration)

    def test_queue_nonnegative(self):
        trace = self.make_trace()
        assert np.all(trace.queue >= 0.0)

    def test_alphas_in_unit_interval(self):
        trace = self.make_trace()
        assert np.all(trace.alphas >= 0.0)
        assert np.all(trace.alphas <= 1.0)

    def test_windows_at_least_one(self):
        trace = self.make_trace()
        assert np.all(trace.windows >= 1.0)

    def test_throughput_conservation(self):
        """In steady state, aggregate rate matches capacity (full pipe)."""
        trace = self.make_trace(duration=0.04).after(0.02)
        total = trace.class_throughput().sum()
        assert total == pytest.approx(CAPACITY, rel=0.15)

    def test_shorter_rtt_class_gets_more_throughput_per_flow(self):
        """The familiar RTT unfairness of window-based control."""
        trace = self.make_trace(duration=0.04).after(0.02)
        per_flow = trace.class_throughput() / np.array([5.0, 5.0])
        assert per_flow[0] > per_flow[1]


class TestHeterogeneousStability:
    def test_dt_steadier_than_dc_under_rtt_spread(self):
        """DT-DCTCP's advantage survives heterogeneous RTTs."""
        classes = [FlowClass(5, 1e-4), FlowClass(5, 2e-4)]
        dc = simulate_multiclass(
            MultiClassModel(CAPACITY, classes, dc_marker()), duration=0.04
        ).after(0.02)
        dt = simulate_multiclass(
            MultiClassModel(CAPACITY, classes, dt_marker()), duration=0.04
        ).after(0.02)
        assert dt.std_queue < dc.std_queue

    def test_rtt_spread_desynchronises(self):
        """Two different-RTT classes beat against each other, producing a
        different (typically richer) oscillation than one merged class."""
        merged = simulate_multiclass(
            MultiClassModel(CAPACITY, [FlowClass(10, 1e-4)], dc_marker()),
            duration=0.03,
        ).after(0.015)
        spread = simulate_multiclass(
            MultiClassModel(
                CAPACITY,
                [FlowClass(5, 0.7e-4), FlowClass(5, 1.5e-4)],
                dc_marker(),
            ),
            duration=0.03,
        ).after(0.015)
        # Both regulate near the threshold; amplitudes differ.
        assert 20 < merged.mean_queue < 70
        assert 20 < spread.mean_queue < 70
