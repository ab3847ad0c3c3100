"""Process-pool sweep executor with per-case fault supervision.

:class:`SweepExecutor` takes a list of independent :class:`Case` cells
and returns their results *in case order*:

1. every case is first looked up in the optional on-disk cache;
2. the misses run — inline when ``jobs == 1`` and no supervision is
   configured, else fanned across a ``ProcessPoolExecutor`` — and each
   result is written back to the cache *the moment it completes*, so an
   interrupted stage never loses finished work;
3. per-stage wall time, hit counts, retries, and failures accumulate in
   a :class:`~repro.exec.report.RunReport`.

Supervision (all off by default):

* ``timeout`` — a per-case deadline, measured from when the case is
  handed to a worker (at most ``jobs`` cases are ever in flight, so a
  submitted case starts immediately and queue wait never counts
  against its deadline); an overdue case's worker pool is torn down
  (the only way to stop a hung worker), innocent in-flight cases are
  resubmitted without penalty, and the overdue case is retried or
  failed;
* ``retries`` — bounded retries with exponential backoff and
  deterministic, case-keyed jitter;
* ``failure_policy`` — ``"raise"`` aborts the stage on the first
  terminal failure (the historical behaviour), ``"skip"`` records a
  :class:`~repro.exec.report.FailureRecord` and leaves a ``None`` hole
  in the results so the rest of the sweep still lands;
* a broken process pool (worker died hard) is recovered by rebuilding
  the pool and *probing* the in-flight cases one at a time, so the
  crash is attributed to the case that actually caused it and innocent
  cases are re-run without spending a retry.

Checkpoint-resume rests on the cache alone: every finished case is
written back the moment it completes, and a run executes exactly the
cases ``cache.get`` misses — so a re-run of an interrupted or
partially-failed sweep re-executes only the cases without a valid
cache entry.

Determinism: cases are self-contained simulations with locally seeded
RNGs, so the executor's only contract is *ordering* — results come back
positionally matched to the input cases, never in completion order.
Worker processes re-seed nothing and share nothing; with zero injected
faults a parallel, supervised, or resumed run is bit-identical to a
sequential one.
"""

from __future__ import annotations

import heapq
import math
import numbers
import random
import sys
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec import faults as _faults
from repro.exec.cache import ResultCache
from repro.exec.cases import (
    Case,
    InvalidResultError,
    ensure_result,
    execute_case,
    execute_case_chunk,
)
from repro.exec.report import FailureRecord, RunReport, StageStats

__all__ = [
    "FAILURE_POLICIES",
    "CaseTimeoutError",
    "ChunkMemberError",
    "SweepExecutor",
    "execute_cases",
]

FAILURE_POLICIES = ("raise", "skip")

#: Retry ``attempt`` waits ``min(BACKOFF_MAX, BACKOFF_BASE * 2**(attempt
#: - 1))`` seconds, stretched by up to ``BACKOFF_JITTER`` of itself.
BACKOFF_BASE = 0.05
BACKOFF_MAX = 2.0
BACKOFF_JITTER = 0.1

#: Deadline for re-running one suspect after a pool breakage when no
#: per-case ``timeout`` was configured.  A probe must never block
#: forever: the pool just broke, so a suspect that now hangs is part of
#: the same pathology and has to be failed, not waited out.
DEFAULT_PROBE_TIMEOUT = 300.0


class CaseTimeoutError(TimeoutError):
    """A case exceeded the executor's per-case deadline."""


class ChunkMemberError(RuntimeError):
    """One member of a chunked submission raised in the worker.

    The worker ships back ``(type name, message)`` instead of the live
    exception (arbitrary exceptions may not pickle); this carries that
    record to the normal per-case failure path, so retries, policies
    and FailureRecords treat a chunked member exactly like a solo one.
    """

    def __init__(self, type_name: str, message: str):
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name


def _init_worker(parent_sys_path: List[str]) -> None:
    """Mirror the parent's import path (pytest inserts paths at runtime)."""
    for entry in reversed(parent_sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _check_count(field: str, value: Any, minimum: int) -> None:
    """A count is an integer >= ``minimum`` (NaN passes ``x < 0``)."""
    if not (isinstance(value, numbers.Integral) and value >= minimum):
        raise ValueError(f"{field} must be an integer >= {minimum}, got {value!r}")


class SweepExecutor:
    """Fan independent cases across ``jobs`` workers, cache-first."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        *,
        timeout: Optional[float] = None,
        retries: int = 0,
        failure_policy: str = "raise",
        fault_plan: Optional["_faults.FaultPlan"] = None,
        chunk_size: Optional[int] = None,
    ):
        _check_count("jobs", jobs, 1)
        if chunk_size is not None:
            _check_count("chunk_size", chunk_size, 1)
        if failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {failure_policy!r}"
            )
        # ``not (x > 0)`` rather than ``x <= 0``: a NaN deadline would
        # never expire, and an infinite one overflows ``wait()`` after
        # the pool has started.
        if timeout is not None and not (timeout > 0 and math.isfinite(timeout)):
            raise ValueError(
                f"timeout must be positive and finite, got {timeout}"
            )
        _check_count("retries", retries, 0)
        self.jobs = jobs
        self.cache = cache
        self.report = RunReport(jobs=jobs)
        self.timeout = timeout
        self.retries = retries
        self.failure_policy = failure_policy
        self.fault_plan = fault_plan
        #: Cases shipped per worker round trip (see :meth:`run`); None
        #: or 1 preserves the historical one-case-per-future dispatch.
        self.chunk_size = chunk_size
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def supervised(self) -> bool:
        """Does any configured feature require process isolation?"""
        return (
            self.timeout is not None
            or self.retries > 0
            or self.failure_policy != "raise"
            or self.fault_plan is not None
        )

    # -- the stage loop ------------------------------------------------

    def run(
        self,
        cases: Sequence[Case],
        stage: str = "",
    ) -> List[Optional[Dict[str, Any]]]:
        """Execute ``cases``, returning results in input order.

        Under the ``skip`` ``failure_policy``, a case the executor gave
        up on leaves ``None`` at its position and a
        :class:`FailureRecord` in the report; re-running the same stage
        (same cache) executes only those holes.

        ``chunk_size`` (set at construction) ships up to that many
        cache-missing cases per worker round trip, amortising pickle/IPC
        for grids of sub-second cells.  Chunking is a dispatch detail
        only: results, cache keys and entries, retries and failure
        policies stay per case (a chunk
        member that fails is retried/skipped solo), so a chunked run is
        result-identical to an unchunked one.  Retries, fault-injected
        cases and post-breakage probes always run solo, where timeout
        and crash attribution are exact.
        """
        start = time.perf_counter()
        stage_name = stage or (cases[0].experiment if cases else "<empty>")

        results: List[Optional[Dict[str, Any]]] = [None] * len(cases)
        pending: List[int] = []
        for i, case in enumerate(cases):
            hit = self.cache.get(case) if self.cache is not None else None
            if hit is not None:
                results[i] = hit
            else:
                pending.append(i)

        counters = {"failed": 0, "retried": 0}
        chunk = max(1, self.chunk_size or 1)
        if pending:
            if self.supervised or (self.jobs > 1 and len(pending) > 1):
                self._run_supervised(
                    cases, pending, results, stage_name, counters, chunk
                )
            else:
                self._run_inline(cases, pending, results)

        self.report.add(
            StageStats(
                name=stage_name,
                cases=len(cases),
                cache_hits=len(cases) - len(pending),
                executed=len(pending) - counters["failed"],
                wall_seconds=time.perf_counter() - start,
                failed=counters["failed"],
                retried=counters["retried"],
            )
        )
        return results

    # -- inline (unsupervised, sequential) path ------------------------

    def _run_inline(
        self,
        cases: Sequence[Case],
        pending: Sequence[int],
        results: List[Optional[Dict[str, Any]]],
    ) -> None:
        for i in pending:
            case = cases[i]
            result = ensure_result(case, execute_case(case))
            results[i] = result
            self._commit(i, case, result, attempt=1)

    # -- supervised pool path ------------------------------------------

    def _run_supervised(
        self,
        cases: Sequence[Case],
        pending: Sequence[int],
        results: List[Optional[Dict[str, Any]]],
        stage: str,
        counters: Dict[str, int],
        chunk: int = 1,
    ) -> None:
        workers = max(1, min(self.jobs, len(pending)))
        self._pool = self._make_pool(workers)
        #: future -> its (case index, attempt) members: a 1-tuple for a
        #: solo submission, longer for a chunk.
        inflight: Dict[Future, Tuple[Tuple[int, int], ...]] = {}
        deadlines: Dict[Future, Optional[float]] = {}
        retry_q: List[Tuple[float, int, int]] = []
        #: Indices that must run solo from now on: members of a chunk
        #: whose *future* failed as a whole (unpicklable payload, worker
        #: torn down) are re-run individually, at no retry cost, so the
        #: failure is attributed to the member that owns it.
        solo: set = set()
        try:
            for i in pending:
                # Seed through the retry queue so first submissions and
                # retries share one code path (and its breakage check).
                heapq.heappush(retry_q, (0.0, i, 1))
            while inflight or retry_q:
                now = time.monotonic()
                broken_on_submit = False
                # Keep at most ``workers`` futures in flight: a
                # submitted future starts executing at once, so the
                # deadline stamped at submit time is a true execution
                # deadline — queue wait must never count against
                # ``timeout``.  (A chunk's deadline is ``timeout`` times
                # its member count: the members run back to back.)
                while (
                    retry_q
                    and retry_q[0][0] <= now
                    and len(inflight) < workers
                ):
                    _, i, attempt = heapq.heappop(retry_q)
                    members = [(i, attempt)]
                    if self._chunkable(i, attempt, chunk, solo):
                        # Batch further due, chunkable first attempts.
                        # Retries and fault-injected cases stay solo:
                        # their timeout/crash attribution is per case.
                        while (
                            len(members) < chunk
                            and retry_q
                            and retry_q[0][0] <= now
                            and self._chunkable(
                                retry_q[0][1], retry_q[0][2], chunk, solo
                            )
                        ):
                            members.append(heapq.heappop(retry_q)[1:])
                    try:
                        self._submit_members(
                            cases, tuple(members), inflight, deadlines
                        )
                    except BrokenProcessPool:
                        # A die-fault broke the pool between wait
                        # cycles; the submission never started, so it
                        # is re-queued as-is while everything in flight
                        # becomes a casualty to probe.
                        for j, att in members:
                            heapq.heappush(retry_q, (now, j, att))
                        suspects = sorted(
                            m for ms in inflight.values() for m in ms
                        )
                        inflight.clear()
                        deadlines.clear()
                        self._rebuild_pool(workers)
                        self._probe(
                            cases, results, stage, suspects,
                            retry_q, counters, workers,
                        )
                        broken_on_submit = True
                        break
                if broken_on_submit:
                    continue
                if not inflight:
                    # Everything alive is waiting out a backoff.
                    pause = max(0.0, retry_q[0][0] - time.monotonic())
                    time.sleep(min(0.5, pause))
                    continue
                done, _ = wait(
                    set(inflight),
                    timeout=self._wake_in(
                        deadlines,
                        retry_q,
                        slot_free=len(inflight) < workers,
                    ),
                    return_when=FIRST_COMPLETED,
                )
                suspects: List[Tuple[int, int]] = []
                for future in done:
                    members = inflight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        suspects.extend(members)
                        continue
                    except BaseException as exc:
                        if len(members) == 1:
                            (i, attempt), = members
                            self._on_failure(
                                cases, i, attempt, "exception", exc,
                                stage, retry_q, counters,
                            )
                        else:
                            # The chunk failed as a unit (e.g. its
                            # result payload would not unpickle); which
                            # member is at fault is unknowable here, so
                            # each re-runs solo on its current attempt.
                            resume_at = time.monotonic()
                            for i, attempt in members:
                                solo.add(i)
                                heapq.heappush(
                                    retry_q, (resume_at, i, attempt)
                                )
                        continue
                    if len(members) == 1:
                        (i, attempt), = members
                        self._on_success(
                            cases, i, attempt, result, results,
                            stage, retry_q, counters,
                        )
                    else:
                        self._on_chunk_result(
                            cases, members, result, results,
                            stage, retry_q, counters,
                        )
                if suspects:
                    # The pool is dead and every in-flight future with
                    # it; probe the casualties one at a time so the
                    # crash is attributed to its actual cause.
                    suspects.extend(
                        m for ms in inflight.values() for m in ms
                    )
                    inflight.clear()
                    deadlines.clear()
                    self._rebuild_pool(workers)
                    self._probe(
                        cases, results, stage, suspects, retry_q,
                        counters, workers,
                    )
                    continue
                self._expire_overdue(
                    cases, results, stage, inflight, deadlines,
                    retry_q, counters, workers,
                )
        except BaseException:
            self._shutdown_pool(kill=True)
            raise
        else:
            self._shutdown_pool()

    def _chunkable(
        self, i: int, attempt: int, chunk: int, solo: set
    ) -> bool:
        """May case ``i`` ride in a chunked submission?"""
        return (
            chunk > 1
            and attempt == 1
            and i not in solo
            and (
                self.fault_plan is None
                or self.fault_plan.spec_for(i) is None
            )
        )

    def _on_chunk_result(
        self,
        cases: Sequence[Case],
        members: Tuple[Tuple[int, int], ...],
        outcomes: Any,
        results: List[Optional[Dict[str, Any]]],
        stage: str,
        retry_q: List[Tuple[float, int, int]],
        counters: Dict[str, int],
    ) -> None:
        """Dispatch one chunk's per-member outcomes to the usual paths."""
        for (i, attempt), outcome in zip(members, outcomes):
            if outcome[0] == "ok":
                self._on_success(
                    cases, i, attempt, outcome[1], results,
                    stage, retry_q, counters,
                )
            else:
                self._on_failure(
                    cases, i, attempt, "exception",
                    ChunkMemberError(outcome[1], outcome[2]),
                    stage, retry_q, counters,
                )

    def _probe(
        self,
        cases: Sequence[Case],
        results: List[Optional[Dict[str, Any]]],
        stage: str,
        suspects: Sequence[Tuple[int, int]],
        retry_q: List[Tuple[float, int, int]],
        counters: Dict[str, int],
        workers: int,
    ) -> None:
        """Re-run the casualties of a pool breakage one at a time.

        ``BrokenProcessPool`` gives no clue which in-flight case killed
        the worker, so running each suspect alone in the fresh pool is
        the attribution mechanism: the case that breaks its solo pool
        is the culprit (and spends an attempt); the others complete
        normally at no retry cost.  In-flight is capped at ``workers``,
        so the suspect set — and with it the serialized probe time,
        bounded per suspect even when no ``timeout`` is configured — is
        at most ``workers`` cases deep.
        """
        probe_timeout = (
            self.timeout if self.timeout is not None
            else DEFAULT_PROBE_TIMEOUT
        )
        for i, attempt in sorted(suspects):
            future = self._submit_future(cases, i, attempt)
            done, _ = wait({future}, timeout=probe_timeout)
            if future not in done:
                self._rebuild_pool(workers)
                self._on_failure(
                    cases, i, attempt, "timeout",
                    CaseTimeoutError(
                        f"{cases[i]!r} exceeded {probe_timeout}s"
                    ),
                    stage, retry_q, counters,
                )
                continue
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                self._rebuild_pool(workers)
                self._on_failure(
                    cases, i, attempt, "pool-broken", exc,
                    stage, retry_q, counters,
                )
            except BaseException as exc:
                self._on_failure(
                    cases, i, attempt, "exception", exc,
                    stage, retry_q, counters,
                )
            else:
                self._on_success(
                    cases, i, attempt, result, results,
                    stage, retry_q, counters,
                )

    def _expire_overdue(
        self,
        cases: Sequence[Case],
        results: List[Optional[Dict[str, Any]]],
        stage: str,
        inflight: Dict[Future, Tuple[Tuple[int, int], ...]],
        deadlines: Dict[Future, Optional[float]],
        retry_q: List[Tuple[float, int, int]],
        counters: Dict[str, int],
        workers: int,
    ) -> None:
        """Kill the pool under any future past its deadline.

        A running future cannot be cancelled, so the pool (and with it
        the hung worker) is torn down and rebuilt; in-flight cases that
        were within deadline are resubmitted on their *current* attempt
        — a neighbour's hang must not cost them retry budget.

        An overdue *solo* future names its culprit directly.  An overdue
        chunk does not — any member may be the hung one — so its members
        are probed solo (the same mechanism a pool breakage uses) for
        exact per-case timeout attribution.  Innocent futures are
        resubmitted only after probing completes: a probe that times out
        rebuilds the pool again, which would kill them a second time.
        """
        now = time.monotonic()
        overdue = {
            future
            for future, deadline in deadlines.items()
            if deadline is not None and deadline <= now
        }
        if not overdue:
            return
        casualties = list(inflight.items())
        inflight.clear()
        deadlines.clear()
        self._rebuild_pool(workers)
        suspects: List[Tuple[int, int]] = []
        innocents: List[Tuple[Tuple[int, int], ...]] = []
        for future, members in casualties:
            if future not in overdue:
                innocents.append(members)
            elif len(members) == 1:
                (i, attempt), = members
                self._on_failure(
                    cases, i, attempt, "timeout",
                    CaseTimeoutError(
                        f"{cases[i]!r} exceeded {self.timeout}s"
                    ),
                    stage, retry_q, counters,
                )
            else:
                suspects.extend(members)
        if suspects:
            self._probe(
                cases, results, stage, suspects, retry_q,
                counters, workers,
            )
        for members in innocents:
            self._submit_members(cases, members, inflight, deadlines)

    # -- per-case outcomes ---------------------------------------------

    def _on_success(
        self,
        cases: Sequence[Case],
        i: int,
        attempt: int,
        result: Any,
        results: List[Optional[Dict[str, Any]]],
        stage: str,
        retry_q: List[Tuple[float, int, int]],
        counters: Dict[str, int],
    ) -> None:
        try:
            result = ensure_result(cases[i], result)
        except InvalidResultError as exc:
            self._on_failure(
                cases, i, attempt, "invalid-result", exc,
                stage, retry_q, counters,
            )
            return
        results[i] = result
        self._commit(i, cases[i], result, attempt=attempt)

    def _on_failure(
        self,
        cases: Sequence[Case],
        i: int,
        attempt: int,
        kind: str,
        exc: BaseException,
        stage: str,
        retry_q: List[Tuple[float, int, int]],
        counters: Dict[str, int],
    ) -> None:
        if attempt <= self.retries:
            counters["retried"] += 1
            ready = time.monotonic() + self._backoff(cases[i].key, attempt)
            heapq.heappush(retry_q, (ready, i, attempt + 1))
            return
        if self.failure_policy == "raise":
            raise exc
        self.report.add_failure(
            FailureRecord(
                stage=stage,
                experiment=cases[i].experiment,
                label=cases[i].label,
                case_key=cases[i].key,
                kind=kind,
                message=str(exc),
                attempts=attempt,
            )
        )
        counters["failed"] += 1

    def _commit(
        self,
        i: int,
        case: Case,
        result: Dict[str, Any],
        attempt: int,
    ) -> None:
        """Persist one finished case the moment it completes."""
        if self.cache is not None:
            self.cache.put(case, result)
            spec = (
                self.fault_plan.spec_for(i)
                if self.fault_plan is not None
                else None
            )
            if (
                spec is not None
                and spec.kind == "torn-write"
                and spec.active(attempt)
            ):
                _faults.tear_cache_entry(self.cache, case)

    def _backoff(self, key: str, attempt: int) -> float:
        base = min(BACKOFF_MAX, BACKOFF_BASE * (2.0 ** (attempt - 1)))
        # Deterministic jitter keyed on (case, attempt): reproducible
        # schedules, yet retry storms still de-synchronise.
        rng = random.Random(f"{key}:{attempt}")
        return base * (1.0 + BACKOFF_JITTER * rng.random())

    # -- pool plumbing -------------------------------------------------

    def _make_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(list(sys.path),),
        )

    def _rebuild_pool(self, workers: int) -> None:
        self._shutdown_pool(kill=True)
        self._pool = self._make_pool(workers)

    def _shutdown_pool(self, kill: bool = False) -> None:
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        if kill:
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                # repro-lint: disable=EXC001 -- best-effort teardown of a
                # worker that may already have exited; there is no case to
                # attribute the error to and nothing to recover.
                except Exception:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)

    def _submit_members(
        self,
        cases: Sequence[Case],
        members: Tuple[Tuple[int, int], ...],
        inflight: Dict[Future, Tuple[Tuple[int, int], ...]],
        deadlines: Dict[Future, Optional[float]],
    ) -> None:
        """Submit one future carrying ``members`` (solo or chunked).

        A chunk's members run back to back in the worker, so its
        deadline is ``timeout`` times the member count — each member
        still gets its individual budget, just measured in aggregate
        (an overdue chunk is then disambiguated by solo probes).
        """
        if len(members) == 1:
            (i, attempt), = members
            future = self._submit_future(cases, i, attempt)
        else:
            assert self._pool is not None
            future = self._pool.submit(
                execute_case_chunk, [cases[i] for i, _ in members]
            )
        inflight[future] = members
        deadlines[future] = (
            time.monotonic() + self.timeout * len(members)
            if self.timeout is not None
            else None
        )

    def _submit_future(
        self, cases: Sequence[Case], i: int, attempt: int
    ) -> Future:
        assert self._pool is not None
        spec = (
            self.fault_plan.spec_for(i) if self.fault_plan is not None
            else None
        )
        if spec is not None:
            return self._pool.submit(
                _faults.run_case_with_fault, cases[i], spec, attempt
            )
        return self._pool.submit(execute_case, cases[i])

    @staticmethod
    def _wake_in(
        deadlines: Dict[Future, Optional[float]],
        retry_q: List[Tuple[float, int, int]],
        slot_free: bool,
    ) -> Optional[float]:
        """How long ``wait`` may block before a deadline or retry is due.

        A due retry only matters when a worker slot is free to take it;
        with the pool saturated, the next wake signal is a completion
        (which frees a slot) or a deadline — ignoring the retry queue
        then avoids a busy spin at timeout zero.
        """
        now = time.monotonic()
        candidates = [
            deadline - now
            for deadline in deadlines.values()
            if deadline is not None
        ]
        if retry_q and slot_free:
            candidates.append(retry_q[0][0] - now)
        if not candidates:
            return None
        return max(0.0, min(candidates))


def execute_cases(
    cases: Sequence[Case],
    executor: Optional[SweepExecutor] = None,
    stage: str = "",
) -> List[Dict[str, Any]]:
    """Run ``cases`` through ``executor`` (default: inline, no cache)."""
    return (executor or SweepExecutor()).run(cases, stage=stage)
