"""The unit of parallel work: one sweep cell as pure data.

A :class:`Case` names an experiment module and carries a flat,
JSON-serialisable parameter mapping.  The module must expose
``run_case(case) -> dict`` (pure: builds its own simulator, returns
JSON-serialisable results), so a case can be shipped to a worker
process by name + parameters alone and its result stored verbatim in
the on-disk cache.

The cache key is the SHA-256 of the canonical JSON encoding of
``(schema version, experiment, params)`` — two cases agree on their key
iff they describe the same computation, which is what makes the cache
content-addressed: Figures 10, 11 and 12 all read the same
``queue_sweep`` cells, so one figure's run warms the other two.  A case
computes its key once, when it is built: that encoding is also the
check that its params serialise, and the cache lookup, the cache write
and the retry jitter all read ``case.key``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from typing import Any, Dict, List, Sequence, Tuple

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "Case",
    "InvalidResultError",
    "case_key",
    "ensure_result",
    "execute_case",
    "execute_case_chunk",
]

#: Bump when the meaning of cached results changes (simulator semantics,
#: result layout) so stale cache entries are never replayed.
#: v2: campaign cells report ``events_processed`` (ISSUE 7).
CACHE_SCHEMA_VERSION = 2


@dataclasses.dataclass(frozen=True)
class Case:
    """One independent sweep cell.

    ``experiment`` is the dotted module exposing ``run_case``;
    ``label`` is for progress display and telemetry only (it does not
    enter the cache key); ``params`` must be JSON-serialisable and
    fully determine the computation.  ``key`` is derived from the other
    fields at construction (``dataclasses.replace`` derives it afresh)
    and takes no part in equality or hashing.
    """

    experiment: str
    label: str
    params: Dict[str, Any]
    key: str = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ValueError("Case.experiment must name a module")
        # The one encoding of the case: it fails fast on un-serialisable
        # params (a case that cannot be encoded cannot be cached or
        # shipped to a worker) and its digest is the cache key.
        try:
            payload = json.dumps(
                {
                    "version": CACHE_SCHEMA_VERSION,
                    "experiment": self.experiment,
                    "params": self.params,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"Case params must be JSON-serialisable: {exc}"
            ) from exc
        key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        object.__setattr__(self, "key", key)

    def __repr__(self) -> str:
        return f"Case({self.experiment}:{self.label})"


def case_key(case: Case) -> str:
    """Stable content hash of the computation the case describes.

    The SHA-256 of the canonical JSON of ``{version, experiment,
    params}``, computed once when the case was built (``case.key``).
    """
    return case.key


class InvalidResultError(TypeError):
    """A case returned something that is not a result dict.

    Raised by :func:`ensure_result` so the executor can treat a corrupt
    return value like any other retryable case failure instead of
    caching garbage or handing it to a figure module.
    """


def ensure_result(case: Case, result: Any) -> Dict[str, Any]:
    """Validate a ``run_case`` return value (must be a dict)."""
    if not isinstance(result, dict):
        raise InvalidResultError(
            f"{case!r} returned {type(result).__name__}, expected dict"
        )
    return result


def execute_case(case: Case) -> Dict[str, Any]:
    """Run one case in the current process (the worker entry point)."""
    module = importlib.import_module(case.experiment)
    run_case = getattr(module, "run_case", None)
    if run_case is None:
        raise TypeError(
            f"experiment module {case.experiment!r} exposes no run_case()"
        )
    return run_case(case)


def _chunk_failure(exc: BaseException) -> Tuple[str, str, str]:
    """A picklable failure record for one chunk member.

    The original exception object never crosses the process boundary
    (arbitrary exceptions may not pickle); the executor rebuilds a
    :class:`~repro.exec.executor.ChunkMemberError` from the type name
    and message and attributes it to the member case.
    """
    return ("error", type(exc).__name__, str(exc))


def execute_case_chunk(
    cases: Sequence[Case],
) -> List[Tuple[str, Any] | Tuple[str, str, str]]:
    """Run several cases in one worker call (the chunked entry point).

    Chunking amortises the pickle/IPC round trip over ``len(cases)``
    cells — the dominant per-case overhead for cartography-scale grids
    of sub-second cells — while keeping the executor's per-case
    semantics: one outcome per case, positionally aligned with the
    input, each either ``("ok", result)`` or the failure record of
    :func:`_chunk_failure`.  A member's failure never poisons its
    neighbours.
    """
    outcomes: List[Tuple[str, Any] | Tuple[str, str, str]] = []
    for case in cases:
        try:
            outcomes.append(("ok", execute_case(case)))
        except Exception as exc:
            # Recorded, not swallowed: the parent re-raises this as a
            # ChunkMemberError attributed to exactly this case.
            outcomes.append(_chunk_failure(exc))
    return outcomes
