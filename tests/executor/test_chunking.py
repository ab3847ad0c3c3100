"""Chunked dispatch: batching is invisible to results and semantics.

``chunk_size`` ships several cases per worker round trip; everything a
user can observe — results, cache contents, retries, failure records —
must be identical to the unchunked run.
"""

import pytest

from repro.exec.cache import ResultCache
from repro.exec.cases import Case, execute_case_chunk
from repro.exec.executor import ChunkMemberError, SweepExecutor
from repro.exec.faults import FaultPlan, FaultSpec
from tests.executor.stub_experiment import EXPERIMENT


def make_cases(n, **extra):
    return [
        Case(experiment=EXPERIMENT, label=f"x={x}", params={"x": x, **extra})
        for x in range(n)
    ]


class TestWorkerEntryPoint:
    def test_outcomes_positionally_aligned(self):
        cases = make_cases(3)
        outcomes = execute_case_chunk(cases)
        assert [o[0] for o in outcomes] == ["ok", "ok", "ok"]
        assert [o[1]["value"] for o in outcomes] == [0, 2, 4]

    def test_member_failure_does_not_poison_neighbours(self):
        cases = make_cases(2) + [
            Case(experiment=EXPERIMENT, label="bad",
                 params={"x": 9, "explode": True}),
            Case(experiment=EXPERIMENT, label="after",
                 params={"x": 5}),
        ]
        outcomes = execute_case_chunk(cases)
        assert outcomes[0][0] == outcomes[1][0] == outcomes[3][0] == "ok"
        assert outcomes[2] == ("error", "RuntimeError", "boom: bad")
        assert outcomes[3][1]["value"] == 10

    def test_empty_chunk(self):
        assert execute_case_chunk([]) == []


class TestResultEquality:
    def test_chunked_matches_unchunked(self):
        cases = make_cases(13)
        plain = SweepExecutor(jobs=2).run(cases)
        chunked = SweepExecutor(jobs=2, chunk_size=4).run(cases)
        assert chunked == plain

    def test_chunk_size_larger_than_grid(self):
        cases = make_cases(3)
        results = SweepExecutor(jobs=2, chunk_size=64).run(cases)
        assert [r["value"] for r in results] == [0, 2, 4]

    def test_chunk_size_one_is_solo_dispatch(self):
        cases = make_cases(5)
        results = SweepExecutor(jobs=2, chunk_size=1).run(cases)
        assert [r["value"] for r in results] == [2 * x for x in range(5)]

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            SweepExecutor(chunk_size=0)

    def test_supervised_chunked_matches_unchunked(self):
        cases = make_cases(9)
        plain = SweepExecutor(jobs=2, retries=1,
                              failure_policy="skip").run(cases)
        chunked = SweepExecutor(jobs=2, retries=1, failure_policy="skip",
                                chunk_size=3).run(cases)
        assert chunked == plain


class TestCacheAndManifest:
    def test_same_cache_keys_as_unchunked(self, tmp_path):
        cases = make_cases(8)
        cache_a = ResultCache(tmp_path / "a")
        cache_b = ResultCache(tmp_path / "b")
        SweepExecutor(jobs=2, cache=cache_a).run(cases, stage="plain")
        SweepExecutor(jobs=2, cache=cache_b,
                      chunk_size=4).run(cases, stage="chunked")
        for case in cases:
            assert cache_b.get(case) == cache_a.get(case)

    def test_chunked_run_warms_unchunked_and_back(self, tmp_path):
        log = tmp_path / "log"
        cache = ResultCache(tmp_path / "cache")
        cases = make_cases(6, log=str(log))
        SweepExecutor(jobs=2, cache=cache, chunk_size=3).run(cases)
        ex = SweepExecutor(jobs=2, cache=cache)
        ex.run(cases)
        assert len(log.read_text().splitlines()) == 6  # nothing re-ran
        assert ex.report.stages[0].cache_hits == 6

    def test_resume_mid_chunk(self, tmp_path):
        """A run killed between chunk members resumes at the hole.

        Simulated by pre-caching a strict prefix of the grid (exactly
        the on-disk state an interrupted chunked run leaves: every
        completed member committed individually) and re-running chunked.
        """
        log = tmp_path / "log"
        cache = ResultCache(tmp_path / "cache")
        cases = make_cases(8, log=str(log))
        SweepExecutor(jobs=1, cache=cache).run(cases[:3], stage="s")
        assert len(log.read_text().splitlines()) == 3

        ex = SweepExecutor(jobs=2, cache=cache, chunk_size=4)
        results = ex.run(cases, stage="s")
        assert [r["value"] for r in results] == [2 * x for x in range(8)]
        # Only the five holes executed, despite riding in chunks.
        assert len(log.read_text().splitlines()) == 8
        assert ex.report.stages[0].cache_hits == 3

    def test_cache_entries_are_per_case_and_no_manifest(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cases = make_cases(5)
        SweepExecutor(jobs=2, cache=cache,
                      chunk_size=5).run(cases, stage="m")
        # One chunk, five entries: what a resume reads is per case.
        assert cache.stats()["entries"] == 5
        assert all(cache.get(case) is not None for case in cases)
        assert not (cache.root / "manifests").exists()


class TestFailureAttribution:
    def test_member_failure_attributed_to_its_case(self):
        cases = make_cases(4)
        cases[2] = Case(experiment=EXPERIMENT, label="bad",
                        params={"x": 2, "explode": True})
        ex = SweepExecutor(jobs=1, failure_policy="skip", chunk_size=4)
        results = ex.run(cases, stage="attr")
        assert [r["value"] if r else None for r in results] == \
            [0, 2, None, 6]
        (record,) = ex.report.failures
        assert record.label == "bad"
        assert record.kind == "exception"
        assert "RuntimeError" in record.message
        assert "boom: bad" in record.message

    def test_member_failure_raises_under_raise_policy(self):
        cases = make_cases(3)
        cases[1] = Case(experiment=EXPERIMENT, label="bad",
                        params={"x": 1, "explode": True})
        with pytest.raises(ChunkMemberError, match="boom: bad"):
            SweepExecutor(jobs=2, chunk_size=3).run(cases)

    def test_member_failure_retries_solo_then_succeeds(self, tmp_path):
        # A die-fault on attempt 1 forces that case solo (fault-injected
        # cases never chunk), its neighbours ride chunks and finish.
        plan = FaultPlan.from_indices(
            {1: FaultSpec(kind="error", fail_attempts=1)}
        )
        ex = SweepExecutor(jobs=2, retries=1, fault_plan=plan, chunk_size=3)
        results = ex.run(make_cases(6), stage="retry")
        assert [r["value"] for r in results] == [2 * x for x in range(6)]
        assert ex.report.stages[0].retried == 1

    def test_die_fault_in_unchunked_neighbourhood(self):
        # A worker crash with chunks in flight: the probe machinery must
        # flatten member tuples and re-run every casualty solo.
        plan = FaultPlan.from_indices(
            {2: FaultSpec(kind="die", fail_attempts=1)}
        )
        ex = SweepExecutor(jobs=2, retries=1, fault_plan=plan, chunk_size=3)
        results = ex.run(make_cases(7), stage="die")
        assert [r["value"] for r in results] == [2 * x for x in range(7)]

    def test_chunk_member_error_message(self):
        err = ChunkMemberError("ValueError", "bad input")
        assert err.type_name == "ValueError"
        assert str(err) == "ValueError: bad input"


class TestTimeouts:
    def test_hung_member_attributed_and_neighbours_survive(self):
        cases = make_cases(4)
        cases[1] = Case(experiment=EXPERIMENT, label="hang",
                        params={"x": 1, "sleep": 30.0})
        ex = SweepExecutor(jobs=1, timeout=0.8, failure_policy="skip",
                           chunk_size=4)
        results = ex.run(cases, stage="hang")
        assert results[1] is None
        assert [r["value"] if r else None for r in results] == \
            [0, None, 4, 6]
        (record,) = ex.report.failures
        assert record.label == "hang"
        assert record.kind == "timeout"
