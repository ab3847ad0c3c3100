"""Executor failure paths: retry, timeout, broken pools, skip policies.

Every test drives the real supervised pool through the deterministic
fault harness (:mod:`repro.exec.faults`), so the failures are the real
thing — raised exceptions, hard worker deaths, hung workers — not
mocks.  Backoffs are kept tiny so the suite stays fast.
"""

import math

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.exec import executor as executor_mod
from repro.exec import faults
from repro.exec import (
    CaseTimeoutError,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    ResultCache,
    SweepExecutor,
)
from repro.exec.cases import Case
from tests.executor.stub_experiment import EXPERIMENT


def make_cases(n, **extra):
    return [
        Case(experiment=EXPERIMENT, label=f"x={x}", params={"x": x, **extra})
        for x in range(n)
    ]


@pytest.fixture(autouse=True)
def tiny_backoff(monkeypatch):
    monkeypatch.setattr(executor_mod, "BACKOFF_BASE", 0.01)


def supervisor(**kw):
    kw.setdefault("jobs", 2)
    return SweepExecutor(**kw)


PERMANENT = 10**6


class TestConstruction:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            SweepExecutor(failure_policy="explode")

    def test_rejects_bad_timeout_and_retries(self):
        with pytest.raises(ValueError):
            SweepExecutor(timeout=0)
        with pytest.raises(ValueError):
            SweepExecutor(retries=-1)

    @pytest.mark.parametrize("timeout", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_timeout(self, timeout):
        # A NaN deadline never expires; an infinite one overflowed
        # ``wait()`` once the pool had started.  Both are refused before
        # any worker exists.
        with pytest.raises(ValueError, match="timeout"):
            SweepExecutor(jobs=2, timeout=timeout)

    def test_default_executor_is_unsupervised(self):
        assert not SweepExecutor(jobs=4).supervised
        assert SweepExecutor(timeout=1.0).supervised
        assert SweepExecutor(retries=1).supervised
        assert SweepExecutor(failure_policy="skip").supervised


class TestRetry:
    def test_transient_fault_retries_until_success(self):
        plan = FaultPlan.from_indices(
            {1: FaultSpec(kind="error", fail_attempts=2)}
        )
        ex = supervisor(retries=3, fault_plan=plan)
        results = ex.run(make_cases(4), stage="retry")
        assert [r["value"] for r in results] == [0, 2, 4, 6]
        assert ex.report.stages[0].retried == 2
        assert ex.report.failures == []

    def test_exhausted_retries_raise_by_default(self):
        plan = FaultPlan.from_indices(
            {0: FaultSpec(kind="error", fail_attempts=PERMANENT)}
        )
        with pytest.raises(FaultInjected):
            supervisor(retries=1, fault_plan=plan).run(make_cases(3))

    def test_supervised_run_matches_inline_when_nothing_fails(self):
        cases = make_cases(6)
        baseline = SweepExecutor(jobs=1).run(cases)
        supervised = supervisor(
            jobs=3, retries=2, timeout=60.0, failure_policy="skip",
        ).run(cases)
        assert supervised == baseline


class TestSkipPolicies:
    def test_skip_leaves_hole_and_attributes_failure(self):
        cases = make_cases(5)
        plan = FaultPlan.from_indices(
            {2: FaultSpec(kind="error", fail_attempts=PERMANENT)}
        )
        ex = supervisor(failure_policy="skip", fault_plan=plan)
        results = ex.run(cases, stage="partial")
        assert results[2] is None
        assert [r["value"] for i, r in enumerate(results) if i != 2] == [
            0, 2, 6, 8
        ]
        [record] = ex.report.failures
        assert record.stage == "partial"
        assert record.label == "x=2"
        assert record.experiment == EXPERIMENT
        assert record.kind == "exception"
        assert record.attempts == 1
        assert ex.report.stages[0].failed == 1
        assert ex.report.stages[0].executed == 4

    def test_invalid_result_is_a_retryable_failure(self):
        plan = FaultPlan.from_indices(
            {1: FaultSpec(kind="corrupt", fail_attempts=1)}
        )
        ex = supervisor(retries=1, fault_plan=plan)
        results = ex.run(make_cases(3))
        assert [r["value"] for r in results] == [0, 2, 4]
        assert ex.report.stages[0].retried == 1

    def test_invalid_result_terminal_failure_kind(self):
        plan = FaultPlan.from_indices(
            {1: FaultSpec(kind="corrupt", fail_attempts=PERMANENT)}
        )
        ex = supervisor(failure_policy="skip", fault_plan=plan)
        results = ex.run(make_cases(3))
        assert results[1] is None
        assert ex.report.failures[0].kind == "invalid-result"


class TestDeadlineClock:
    def test_queue_wait_does_not_count_against_timeout(self):
        # 24 cases x 0.2s on 2 workers: the stage takes ~2.4s, well past
        # the 1.5s per-case deadline, but each case runs far inside it.
        # Only queue wait separates the two — it must not be charged
        # against the deadline (in-flight is capped at the worker
        # count, so submit time is start time).
        cases = make_cases(24, sleep=0.2)
        ex = supervisor(timeout=1.5)
        results = ex.run(cases, stage="queue-wait")
        assert all(r is not None for r in results)
        assert ex.report.failures == []
        assert ex.report.stages[0].wall_seconds > 1.5


class TestTimeout:
    def test_hung_case_times_out_and_neighbours_survive(self):
        cases = make_cases(5)
        plan = FaultPlan.from_indices(
            {1: FaultSpec(kind="hang", fail_attempts=PERMANENT,
                          hang_seconds=30.0)}
        )
        ex = supervisor(timeout=0.5, failure_policy="skip", fault_plan=plan)
        results = ex.run(cases, stage="hang")
        assert results[1] is None
        assert all(results[i] is not None for i in (0, 2, 3, 4))
        [record] = ex.report.failures
        assert record.kind == "timeout"
        assert record.label == "x=1"

    def test_transient_hang_retries_to_success(self):
        plan = FaultPlan.from_indices(
            {0: FaultSpec(kind="hang", fail_attempts=1, hang_seconds=30.0)}
        )
        ex = supervisor(timeout=0.5, retries=1, fault_plan=plan)
        results = ex.run(make_cases(3))
        assert [r["value"] for r in results] == [0, 2, 4]
        assert ex.report.stages[0].retried == 1

    def test_timeout_raises_under_raise_policy(self):
        plan = FaultPlan.from_indices(
            {0: FaultSpec(kind="hang", fail_attempts=PERMANENT,
                          hang_seconds=30.0)}
        )
        with pytest.raises(CaseTimeoutError):
            supervisor(timeout=0.4, fault_plan=plan).run(make_cases(2))


class TestBrokenPool:
    def test_worker_death_recovered_by_retry(self):
        plan = FaultPlan.from_indices(
            {2: FaultSpec(kind="die", fail_attempts=1)}
        )
        ex = supervisor(retries=2, fault_plan=plan)
        results = ex.run(make_cases(6), stage="die")
        assert [r["value"] for r in results] == [0, 2, 4, 6, 8, 10]
        assert ex.report.stages[0].retried >= 1
        assert ex.report.failures == []

    def test_worker_death_attributed_under_skip(self):
        cases = make_cases(6)
        plan = FaultPlan.from_indices(
            {3: FaultSpec(kind="die", fail_attempts=PERMANENT)}
        )
        ex = supervisor(failure_policy="skip", fault_plan=plan)
        results = ex.run(cases, stage="die")
        assert results[3] is None
        assert all(results[i] is not None for i in (0, 1, 2, 4, 5))
        [record] = ex.report.failures
        assert record.kind == "pool-broken"
        assert record.label == "x=3"

    def test_worker_death_raises_without_retry(self):
        plan = FaultPlan.from_indices(
            {0: FaultSpec(kind="die", fail_attempts=PERMANENT)}
        )
        with pytest.raises(BrokenProcessPool):
            supervisor(fault_plan=plan).run(make_cases(2))


class TestAcceptance:
    """The ISSUE 5 acceptance scenario, end to end."""

    def test_20pct_faults_partial_results_then_clean_resume(self, tmp_path):
        n = 20
        cases = make_cases(n)
        plan = FaultPlan.from_rate(
            n, 0.2, seed=3, kinds=("error",), fail_attempts=PERMANENT
        )
        faulted = set(plan.faulted_indices())
        assert 0 < len(faulted) < n  # the schedule actually bites

        baseline = SweepExecutor(jobs=1).run(cases)

        ex = supervisor(
            cache=ResultCache(tmp_path / "cache"),
            retries=1,
            failure_policy="skip",
            fault_plan=plan,
        )
        results = ex.run(cases, stage="accept")

        # Every non-faulted case's result is byte-identical to the
        # fault-free run; every faulted case is a recorded hole.
        for i in range(n):
            if i in faulted:
                assert results[i] is None
            else:
                assert results[i] == baseline[i]
        assert {f.label for f in ex.report.failures} == {
            cases[i].label for i in faulted
        }
        assert ex.report.stages[0].failed == len(faulted)

        # Second invocation: resumes from the cache alone, executing
        # exactly the casualties, and completes the sweep exactly.
        ex2 = supervisor(cache=ResultCache(tmp_path / "cache"))
        results2 = ex2.run(cases, stage="accept")
        assert results2 == baseline
        stats = ex2.report.stages[0]
        assert stats.executed == len(faulted)
        assert stats.cache_hits == n - len(faulted)
        # Resume rests on cache entries and nothing else: no journal of
        # completions is kept beside them.
        assert not (tmp_path / "cache" / "manifests").exists()

    def test_resume_executes_skips_and_torn_entries_only(self, tmp_path):
        """Both kinds of casualty: a hole (never cached) and a torn
        entry (cached, then damaged) — a miss and a quarantine."""
        cases = make_cases(8)
        plan = FaultPlan.from_indices({
            2: FaultSpec(kind="die", fail_attempts=PERMANENT),
            5: FaultSpec(kind="torn-write"),
        })
        root = tmp_path / "cache"
        supervisor(
            cache=ResultCache(root), failure_policy="skip", fault_plan=plan
        ).run(cases, stage="resume")

        cache = ResultCache(root)
        ex = SweepExecutor(jobs=1, cache=cache)
        assert ex.run(cases, stage="resume") == SweepExecutor().run(cases)
        assert ex.report.stages[0].executed == 2
        assert ex.report.stages[0].cache_hits == 6
        assert cache.corrupt == 1
        assert sorted(p.name for p in root.iterdir() if len(p.name) != 2) == [
            "quarantine"
        ]


    @pytest.mark.parametrize(
        "retries, fail_attempts",
        [(1, PERMANENT), (2, 1)],
        ids=["permanent-faults-are-skipped", "transient-faults-heal"],
    )
    def test_all_five_kinds_in_one_run(self, tmp_path, retries, fail_attempts):
        """The plan CI's ``fault-smoke`` job runs by node id: errors,
        worker deaths, hangs, corrupt payloads and torn cache writes
        mixed in one 24-case sweep across four workers under a 2 s
        deadline (no other test mixes all five kinds in one run)."""
        cases = faults.demo_cases(24)
        plan = FaultPlan.from_rate(
            len(cases), 0.25, seed=13, kinds=faults.FAULT_KINDS,
            fail_attempts=fail_attempts, hang_seconds=30.0,
        )
        assert all(plan.count(kind) for kind in faults.FAULT_KINDS)
        expected = [faults.run_case(case) for case in cases]
        faulted = set(plan.faulted_indices())
        # A torn write succeeds in-run and only hurts the *next* run;
        # the worker-side kinds become holes once they outlast the
        # retry budget, and heal inside the run when they do not.
        torn = {i for i in faulted if plan.spec_for(i).kind == "torn-write"}
        holes = faulted - torn if fail_attempts > retries else set()

        root = tmp_path / "cache"
        ex = SweepExecutor(
            jobs=4, cache=ResultCache(root), timeout=2.0, retries=retries,
            failure_policy="skip", fault_plan=plan,
        )
        results = ex.run(cases, stage="five-kinds")
        assert {i for i, r in enumerate(results) if r is None} == holes
        for i, result in enumerate(results):
            if i not in holes:
                assert result == expected[i]
        assert sorted(f.label for f in ex.report.failures) == sorted(
            cases[i].label for i in holes
        )

        # Resume: a fault-free pass over the same cache executes the
        # casualties - holes and quarantined torn entries - and no other.
        cache = ResultCache(root)
        ex2 = SweepExecutor(jobs=4, cache=cache)
        assert ex2.run(cases, stage="five-kinds") == expected
        assert ex2.report.stages[0].executed == len(holes) + len(torn)
        assert cache.corrupt == len(torn)


class TestBackoff:
    def test_backoff_grows_and_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "BACKOFF_BASE", 0.1)
        monkeypatch.setattr(executor_mod, "BACKOFF_MAX", 1.0)
        monkeypatch.setattr(executor_mod, "BACKOFF_JITTER", 0.5)
        ex = SweepExecutor(retries=3)
        first = [ex._backoff("k", attempt) for attempt in (1, 2, 3)]
        again = [ex._backoff("k", attempt) for attempt in (1, 2, 3)]
        assert first == again  # same case+attempt, same jitter
        assert first[0] < first[1] < first[2]
        assert all(0.1 <= d <= 1.5 for d in first)

    def test_backoff_caps_at_max(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "BACKOFF_BASE", 0.1)
        monkeypatch.setattr(executor_mod, "BACKOFF_MAX", 0.3)
        monkeypatch.setattr(executor_mod, "BACKOFF_JITTER", 0.0)
        ex = SweepExecutor(retries=8)
        assert ex._backoff("k", 8) == pytest.approx(0.3)
