"""Integration: experiment figures are identical sequential vs parallel.

These drive the real simulator at a tiny scale, so they double as the
determinism guarantee the executor advertises: every sweep cell seeds
its own RNGs and owns its simulator, so the worker count and completion
order cannot change a single digit of the tables.
"""

import pytest

from repro.exec.cache import ResultCache
from repro.exec.executor import SweepExecutor
from repro.experiments import fig01_oscillation, queue_sweep
from repro.experiments.config import Scale


def tiny_scale() -> Scale:
    return Scale(
        sim_duration=0.006,
        warmup=0.002,
        sample_interval=20e-6,
        flow_counts=(4, 8),
        n_queries=2,
        incast_flows=(8,),
        completion_flows=(8,),
        fluid_duration=0.02,
    )


class TestParallelEqualsSequential:
    def test_fig10_sweep_identical(self, tmp_path):
        scale = tiny_scale()
        sequential = queue_sweep.run(scale)
        parallel = queue_sweep.run(
            scale, executor=SweepExecutor(jobs=2, cache=ResultCache(tmp_path))
        )
        assert sequential.points == parallel.points

    def test_fig01_traces_identical(self, tmp_path):
        scale = tiny_scale()
        sequential = fig01_oscillation.run(scale, n_small=4, n_large=8)
        parallel = fig01_oscillation.run(
            scale,
            n_small=4,
            n_large=8,
            executor=SweepExecutor(jobs=2, cache=ResultCache(tmp_path)),
        )
        assert sequential.amplitude_small == parallel.amplitude_small
        assert sequential.amplitude_large == parallel.amplitude_large
        assert (sequential.trace_small[1] == parallel.trace_small[1]).all()
        assert (sequential.trace_large[1] == parallel.trace_large[1]).all()


class TestWarmCache:
    def test_second_run_skips_simulation_and_matches(self, tmp_path):
        scale = tiny_scale()
        cache_dir = tmp_path / "cache"

        cold_ex = SweepExecutor(jobs=1, cache=ResultCache(cache_dir))
        cold = queue_sweep.run(scale, executor=cold_ex)
        assert cold_ex.report.stages[0].cache_hits == 0
        assert cold_ex.report.stages[0].executed == 4

        warm_ex = SweepExecutor(jobs=1, cache=ResultCache(cache_dir))
        warm = queue_sweep.run(scale, executor=warm_ex)
        assert warm_ex.report.stages[0].cache_hits == 4
        assert warm_ex.report.stages[0].executed == 0
        assert cold.points == warm.points

    def test_sweep_shared_across_figure_modules(self, tmp_path):
        """Figure 12 rides entirely on Figure 10's cached cells."""
        scale = tiny_scale()
        cache = ResultCache(tmp_path)
        queue_sweep.run(
            scale,
            executor=SweepExecutor(jobs=1, cache=cache),
            stage="Figure 10",
        )
        ex = SweepExecutor(jobs=1, cache=cache)
        sweep = queue_sweep.run(scale, executor=ex, stage="Figure 12")
        assert ex.report.stages[0].cache_hits == 4
        for points in sweep.points.values():
            for p in points:
                assert 0.0 <= p.mean_alpha <= 1.0

    def test_cached_float_round_trip_is_exact(self, tmp_path):
        """JSON float round-tripping must not perturb results."""
        scale = tiny_scale()
        cache = ResultCache(tmp_path)
        cold = queue_sweep.run(
            scale, executor=SweepExecutor(jobs=1, cache=cache)
        )
        warm = queue_sweep.run(
            scale, executor=SweepExecutor(jobs=1, cache=cache)
        )
        for protocol in cold.points:
            for a, b in zip(cold.points[protocol], warm.points[protocol]):
                assert a == b  # exact field-wise equality, not approx
