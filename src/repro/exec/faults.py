"""Deterministic fault injection for the sweep executor.

A production sweep at scale sees workers raise, die, hang, and return
garbage, and cache writes get torn by crashes mid-rename.  This module
manufactures all of those failures *on a schedule* — seeded or by case
index — so the supervision machinery in :mod:`repro.exec.executor` can
be exercised reproducibly by
``tests/executor/test_supervision.py::TestAcceptance``.

Fault kinds (:data:`FAULT_KINDS`):

* ``"error"``      — the case raises :class:`FaultInjected`;
* ``"die"``        — the worker process exits hard (``os._exit``),
  breaking the process pool (the ``BrokenProcessPool`` path);
* ``"hang"``       — the case sleeps past any sane deadline (the
  per-case timeout path);
* ``"corrupt"``    — the case returns a non-dict payload (the
  invalid-result path);
* ``"torn-write"`` — the case succeeds, but its freshly written cache
  entry is truncated mid-file, as an interrupted atomic rename would
  leave it (the cache-quarantine path on the *next* run).

Each :class:`FaultSpec` fires on attempts ``1..fail_attempts`` and lets
later attempts through, so one schedule expresses both transient faults
(retry-until-success) and permanent ones (retry, then skip).

The module doubles as a tiny experiment module (it exposes
:func:`run_case`), giving the CLI smoke test a deterministic,
sub-millisecond sweep cell that needs no simulator.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exec.cases import Case, case_key, execute_case

__all__ = [
    "DEMO_EXPERIMENT",
    "FAULT_KINDS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "demo_cases",
    "run_case",
    "run_case_with_fault",
    "tear_cache_entry",
]

FAULT_KINDS: Tuple[str, ...] = (
    "error", "die", "hang", "corrupt", "torn-write"
)

#: Fault kinds injected inside the worker process (vs. executor-side).
WORKER_KINDS = frozenset({"error", "die", "hang", "corrupt"})


class FaultInjected(RuntimeError):
    """The error an ``"error"``-kind fault raises inside the worker."""


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One case's fault: what goes wrong and for how many attempts."""

    kind: str
    fail_attempts: int = 1
    hang_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.fail_attempts < 1:
            raise ValueError("fail_attempts must be >= 1")

    def active(self, attempt: int) -> bool:
        """Does this fault fire on the given 1-based attempt?"""
        return attempt <= self.fail_attempts


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A deterministic map from case index to its :class:`FaultSpec`.

    Built either explicitly (:meth:`from_indices`) or by seeded
    sampling (:meth:`from_rate`); the same ``(n_cases, rate, seed,
    kinds)`` always yields the same plan, which is what lets a test
    compare a faulted sweep against its fault-free twin case by case.
    """

    specs: Mapping[int, FaultSpec]

    @classmethod
    def from_indices(cls, specs: Mapping[int, FaultSpec]) -> "FaultPlan":
        return cls(specs=dict(specs))

    @classmethod
    def from_rate(
        cls,
        n_cases: int,
        rate: float,
        seed: int = 0,
        kinds: Iterable[str] = ("error",),
        fail_attempts: int = 1,
        hang_seconds: float = 60.0,
    ) -> "FaultPlan":
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        kinds = tuple(kinds)
        if not kinds:
            raise ValueError("kinds must be non-empty")
        rng = random.Random(seed)
        specs: Dict[int, FaultSpec] = {}
        for index in range(n_cases):
            # Exactly one rng draw per index, and the kind comes from
            # the index, so the faulted *set* is stable when the kind
            # list changes — a faulted/fault-free A-B comparison stays
            # aligned while the failure mode mix is varied.
            if rng.random() < rate:
                specs[index] = FaultSpec(
                    kind=kinds[index % len(kinds)],
                    fail_attempts=fail_attempts,
                    hang_seconds=hang_seconds,
                )
        return cls(specs=specs)

    def spec_for(self, index: int) -> Optional[FaultSpec]:
        return self.specs.get(index)

    def faulted_indices(self) -> List[int]:
        return sorted(self.specs)

    def count(self, *kinds: str) -> int:
        """How many scheduled faults are of the given kinds (all if none)."""
        if not kinds:
            return len(self.specs)
        return sum(1 for s in self.specs.values() if s.kind in kinds)

    def __len__(self) -> int:
        return len(self.specs)


def run_case_with_fault(
    case: Case, spec: Optional[FaultSpec], attempt: int
) -> Dict[str, Any]:
    """Worker entry point under fault injection.

    Picklable and stateless: the executor ships ``(case, spec,
    attempt)`` per submission, so a fresh worker process needs no
    installed global plan and the schedule survives pool rebuilds.
    """
    if spec is not None and spec.kind in WORKER_KINDS and spec.active(attempt):
        if spec.kind == "error":
            raise FaultInjected(
                f"injected fault: {case.label} (attempt {attempt})"
            )
        if spec.kind == "die":
            os._exit(3)
        if spec.kind == "hang":
            time.sleep(spec.hang_seconds)
        elif spec.kind == "corrupt":
            return ["corrupt", case.label, attempt]  # type: ignore[return-value]
    return execute_case(case)


def tear_cache_entry(cache: Any, case: Case) -> bool:
    """Simulate a torn write: truncate the case's cache entry mid-file.

    Returns True if an entry existed and was damaged.  The next read
    through :meth:`ResultCache.get` must detect the damage, quarantine
    the file, and report a clean miss — which is exactly what the
    torn-write smoke test asserts.
    """
    path = cache._path(case_key(case))
    try:
        data = path.read_bytes()
    except OSError:
        return False
    path.write_bytes(data[: max(1, len(data) // 2)])
    return True


# ---------------------------------------------------------------------
# A self-contained demo experiment, so fault smoke runs need no
# simulator: repro.exec.faults is itself a valid Case.experiment.
# ---------------------------------------------------------------------

DEMO_EXPERIMENT = "repro.exec.faults"


def demo_cases(n: int) -> List[Case]:
    """``n`` deterministic arithmetic cells for smoke runs."""
    return [
        Case(experiment=DEMO_EXPERIMENT, label=f"cell-{i}", params={"i": i})
        for i in range(n)
    ]


def run_case(case: Case) -> Dict[str, Any]:
    """A cheap, deterministic stand-in for a simulation cell."""
    i = int(case.params["i"])
    # Knuth multiplicative hashing: stable across platforms/processes.
    value = (i * 2654435761) % 1000003
    return {"i": i, "value": value, "parity": value % 2}
