"""Unit tests for the process-pool sweep executor and its telemetry."""

import math

import pytest

from repro.exec.cache import ResultCache
from repro.exec.cases import Case
from repro.exec.executor import SweepExecutor, execute_cases
from repro.exec.report import RunReport, StageStats
from tests.executor.stub_experiment import EXPERIMENT


def make_cases(n, **extra):
    return [
        Case(experiment=EXPERIMENT, label=f"x={x}", params={"x": x, **extra})
        for x in range(n)
    ]


class TestSequential:
    def test_results_in_case_order(self):
        results = SweepExecutor(jobs=1).run(make_cases(5))
        assert [r["value"] for r in results] == [0, 2, 4, 6, 8]

    def test_execute_cases_without_executor_is_inline(self):
        results = execute_cases(make_cases(3))
        assert [r["value"] for r in results] == [0, 2, 4]

    def test_empty_case_list(self):
        ex = SweepExecutor(jobs=1)
        assert ex.run([], stage="empty") == []
        assert ex.report.stages[0].cases == 0

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("jobs", math.nan),
            ("jobs", 2.5),
            ("jobs", math.inf),
            ("retries", math.nan),
            ("retries", math.inf),
            ("retries", 1.5),
            ("retries", -1),
            ("chunk_size", math.nan),
        ],
    )
    def test_non_integer_counts_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SweepExecutor(**{field: value})


class TestParallel:
    def test_results_in_case_order(self):
        results = SweepExecutor(jobs=4).run(make_cases(12))
        assert [r["value"] for r in results] == [2 * x for x in range(12)]

    def test_matches_sequential(self):
        cases = make_cases(8)
        assert SweepExecutor(jobs=4).run(cases) == SweepExecutor(jobs=1).run(
            cases
        )

    def test_work_spreads_across_processes(self, tmp_path):
        log = tmp_path / "log"
        SweepExecutor(jobs=4).run(make_cases(8, log=str(log)))
        lines = log.read_text().splitlines()
        assert len(lines) == 8
        pids = {line.split("pid=")[1] for line in lines}
        assert len(pids) > 1

    def test_worker_exception_propagates(self):
        cases = make_cases(3) + [
            Case(experiment=EXPERIMENT, label="bad",
                 params={"x": 0, "explode": True})
        ]
        with pytest.raises(RuntimeError, match="boom"):
            SweepExecutor(jobs=2).run(cases)


class TestCaching:
    def test_second_run_hits_cache(self, tmp_path):
        log = tmp_path / "log"
        cache = ResultCache(tmp_path / "cache")
        cases = make_cases(4, log=str(log))

        first = SweepExecutor(jobs=1, cache=cache).run(cases, stage="cold")
        ex = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "cache"))
        second = ex.run(cases, stage="warm")

        assert first == second
        assert len(log.read_text().splitlines()) == 4  # nothing re-ran
        assert ex.report.stages[0].cache_hits == 4
        assert ex.report.stages[0].executed == 0

    def test_partial_warm_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(jobs=1, cache=cache).run(make_cases(2))
        ex = SweepExecutor(jobs=1, cache=cache)
        results = ex.run(make_cases(5), stage="partial")
        assert [r["value"] for r in results] == [0, 2, 4, 6, 8]
        assert ex.report.stages[0].cache_hits == 2
        assert ex.report.stages[0].executed == 3

    def test_parallel_run_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(jobs=3, cache=cache).run(make_cases(6))
        ex = SweepExecutor(jobs=3, cache=cache)
        ex.run(make_cases(6), stage="warm")
        assert ex.report.stages[0].cache_hits == 6


class TestReport:
    def test_accumulates_stages(self):
        report = RunReport(jobs=2)
        report.add(StageStats("a", 4, 1, 3, 1.0))
        report.add(StageStats("b", 2, 2, 0, 0.5))
        assert report.total_cases == 6
        assert report.total_cache_hits == 3
        assert report.total_executed == 3
        assert report.total_wall_seconds == pytest.approx(1.5)

    def test_render_mentions_stages_and_totals(self):
        report = RunReport(jobs=4)
        report.add(StageStats("Figure 10", 8, 3, 5, 2.0))
        text = report.render()
        assert "jobs=4" in text
        assert "Figure 10" in text
        assert "8 cases, 3 cache hits" in text

    def test_render_empty(self):
        assert "no executor-managed stages" in RunReport().render()
