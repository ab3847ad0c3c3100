"""Tests for the traffic applications (bulk, incast, partition-aggregate)."""

import math

import pytest

from repro.core.marking import NullMarker, SingleThresholdMarker
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.apps.incast import FanInApp
from repro.sim.apps.partition_aggregate import (
    TOTAL_RESPONSE_BYTES,
    partition_aggregate_app,
)
from repro.sim.tcp.sender import DctcpSender
from repro.sim.topology import dumbbell, paper_testbed

KB = 1024


def droptail():
    return NullMarker()


def marking():
    return SingleThresholdMarker.from_threshold(32 * KB / 1500)


class TestBulkFlows:
    def test_one_flow_per_sender(self):
        nw = dumbbell(4, droptail)
        flows = launch_bulk_flows(nw)
        assert len(flows) == 4
        dests = {f.receiver.host for f in flows}
        assert dests == {nw.receiver}

    def test_flows_are_infinite(self):
        nw = dumbbell(2, droptail)
        flows = launch_bulk_flows(nw)
        nw.sim.run(until=0.005)
        assert all(not f.completed for f in flows)
        assert all(f.sender.packets_sent > 0 for f in flows)

    def test_jitter_staggers_starts(self):
        nw = dumbbell(8, droptail)
        flows = launch_bulk_flows(nw, start_jitter=1e-3, jitter_seed=3)
        nw.sim.run(until=2e-3)
        sent = [f.sender.packets_sent for f in flows]
        assert len(set(sent)) > 1  # staggered, not lockstep

    @pytest.mark.parametrize(
        "jitter", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"]
    )
    def test_bad_start_jitter_rejected(self, jitter):
        nw = dumbbell(2, droptail)
        with pytest.raises(ValueError, match="start_jitter"):
            launch_bulk_flows(nw, start_jitter=jitter)
        assert nw.sim.events_scheduled == 0  # nothing opened or started

    def test_sender_kwargs_forwarded(self):
        nw = dumbbell(1, droptail)
        flows = launch_bulk_flows(nw, initial_cwnd=7)
        assert flows[0].sender.cwnd == 7.0


class TestFanInApp:
    def make_app(self, n_flows=4, queries=2, bytes_per_flow=16 * KB,
                 marker=droptail, **kwargs):
        tb = paper_testbed(marker)
        app = FanInApp(
            tb.aggregator, tb.workers, n_flows=n_flows,
            bytes_per_flow=bytes_per_flow, n_queries=queries,
            sender_cls=DctcpSender, **kwargs,
        )
        return tb, app

    def test_runs_requested_queries(self):
        tb, app = self.make_app()
        app.start()
        tb.sim.run(until=10.0)
        assert app.done
        assert len(app.results) == 2

    def test_barrier_semantics(self):
        """Completion time covers the *last* flow, so it is at least the
        serial transfer time of all responses on the shared downlink."""
        tb, app = self.make_app(n_flows=6, queries=1, bytes_per_flow=32 * KB)
        app.start()
        tb.sim.run(until=10.0)
        serial = 6 * 32 * KB * 8 / 1e9
        assert app.results[0].completion_time >= serial * 0.9

    def test_goodput_at_most_line_rate(self):
        tb, app = self.make_app(n_flows=6, queries=2)
        app.start()
        tb.sim.run(until=10.0)
        assert app.overall_goodput_bps() <= 1e9

    def test_bytes_accounting(self):
        tb, app = self.make_app(n_flows=3, queries=1, bytes_per_flow=15000)
        app.start()
        tb.sim.run(until=10.0)
        # 15000 B = 10 packets per flow.
        assert app.results[0].bytes_transferred == 3 * 10 * 1500

    def test_flows_distributed_round_robin(self):
        tb, app = self.make_app(n_flows=20, queries=1)
        app.start()
        tb.sim.run(until=0.0)  # just the launch event
        tb.sim.run(until=1e-9)
        hosts = [f.sender.host for f in app._active_flows]
        per_host = {h.name: hosts.count(h) for h in set(hosts)}
        assert max(per_host.values()) - min(per_host.values()) <= 1

    def test_on_done_callback(self):
        tb, app = self.make_app(queries=1)
        fired = []
        app.on_done = lambda: fired.append(tb.sim.now)
        app.start()
        tb.sim.run(until=10.0)
        assert len(fired) == 1

    def test_endpoints_cleaned_between_queries(self):
        tb, app = self.make_app(n_flows=2, queries=3)
        app.start()
        tb.sim.run(until=10.0)
        # All flows closed: aggregator demux table is empty again.
        assert not tb.aggregator._endpoints

    def test_completion_times_list(self):
        tb, app = self.make_app(queries=2)
        app.start()
        tb.sim.run(until=10.0)
        times = app.completion_times()
        assert len(times) == 2
        assert all(t > 0 for t in times)

    @pytest.mark.parametrize("kwargs", [
        {"n_flows": 0},
        {"bytes_per_flow": 0},
        {"n_queries": 0},
    ])
    def test_invalid_parameters(self, kwargs):
        tb = paper_testbed(droptail)
        defaults = dict(n_flows=2, bytes_per_flow=1000, n_queries=1)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            FanInApp(tb.aggregator, tb.workers, **defaults)

    def test_no_workers_rejected(self):
        tb = paper_testbed(droptail)
        with pytest.raises(ValueError):
            FanInApp(tb.aggregator, [], n_flows=1, bytes_per_flow=1000)

    def test_double_start_rejected(self):
        tb, app = self.make_app()
        app.start()
        with pytest.raises(RuntimeError):
            app.start()


class TestPartitionAggregate:
    def test_per_flow_size_shrinks_with_fanout(self):
        tb = paper_testbed(droptail)
        app4 = partition_aggregate_app(tb.aggregator, tb.workers, n_flows=4,
                                       n_queries=1)
        assert app4.bytes_per_flow == TOTAL_RESPONSE_BYTES // 4
        tb2 = paper_testbed(droptail)
        app8 = partition_aggregate_app(tb2.aggregator, tb2.workers,
                                       n_flows=8, n_queries=1)
        assert app8.bytes_per_flow == TOTAL_RESPONSE_BYTES // 8

    def test_completion_time_near_ideal_without_congestion(self):
        tb = paper_testbed(marking)
        app = partition_aggregate_app(
            tb.aggregator, tb.workers, n_flows=8, n_queries=1,
            initial_cwnd=2, start_jitter=50e-6,
        )
        app.start()
        tb.sim.run(until=10.0)
        ideal = TOTAL_RESPONSE_BYTES * 8 / 1e9  # ~8.4 ms
        assert app.results[0].completion_time == pytest.approx(
            ideal, rel=0.3
        )

    def test_rejects_zero_flows(self):
        tb = paper_testbed(droptail)
        with pytest.raises(ValueError):
            partition_aggregate_app(tb.aggregator, tb.workers, n_flows=0)
