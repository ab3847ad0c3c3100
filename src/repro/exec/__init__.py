"""Parallel sweep execution with caching and fault tolerance.

The paper's evaluation is a family of embarrassingly parallel sweeps —
every ``(protocol, N)`` or ``(protocol, fan-out)`` cell is one
independent, deterministic simulation.  This package turns that
structure into throughput, and makes it survive the failures parallel
execution at scale actually produces:

* :mod:`repro.exec.cases`    — the :class:`Case` unit of work and the
  worker-side dispatcher;
* :mod:`repro.exec.cache`    — a content-addressed on-disk cache with
  versioned entries and corrupt-entry quarantine, so a re-run with
  unchanged parameters skips simulation entirely and a torn write is
  detected rather than silently replayed;
* :mod:`repro.exec.executor` — the process-pool :class:`SweepExecutor`
  fanning cases across ``--jobs`` workers, with per-case timeouts,
  bounded retries with backoff, broken-pool recovery, and pluggable
  failure policies; a re-run resumes by executing only the cases
  without a valid cache entry;
* :mod:`repro.exec.faults`   — deterministic fault injection (crashes,
  hangs, corrupt returns, torn cache writes) for the tests and the
  performance ledger's ``sweep-replay`` workload;
* :mod:`repro.exec.report`   — per-stage timing, cache-hit, retry, and
  failure telemetry.

Every case is deterministic and self-contained (its own simulator and
locally seeded RNGs), so the executor guarantees results identical to a
sequential run regardless of worker count, completion order, retries,
or resumption — with zero injected faults, byte-identical.
"""

from repro.exec.cache import ResultCache, default_cache_dir
from repro.exec.cases import (
    Case,
    InvalidResultError,
    case_key,
    ensure_result,
    execute_case,
)
from repro.exec.executor import (
    FAILURE_POLICIES,
    CaseTimeoutError,
    SweepExecutor,
    execute_cases,
)
from repro.exec.faults import FaultInjected, FaultPlan, FaultSpec
from repro.exec.report import FailureRecord, RunReport, StageStats

__all__ = [
    "FAILURE_POLICIES",
    "Case",
    "CaseTimeoutError",
    "FailureRecord",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "InvalidResultError",
    "ResultCache",
    "RunReport",
    "StageStats",
    "SweepExecutor",
    "case_key",
    "default_cache_dir",
    "ensure_result",
    "execute_case",
    "execute_cases",
]
