"""Retired: the per-stage completion journal.  Nothing writes or reads it.

Resume rests on the result cache alone (:meth:`SweepExecutor.run`
executes exactly the cases ``cache.get`` misses); the journal was one
fsync per case feeding a counter nobody printed (``docs/SIMULATOR.md``,
"Rulings outside the kernel").  This stub stays because the frozen
performance ledger resolves both names through ``cls.__dict__``
(``benchmarks/ledger/trace.py``, the two ``exec.manifest.*`` rows of
``_METHODS``); ROADMAP item 1(d) deletes it with that table's rows.
"""

from __future__ import annotations

__all__ = ["StageManifest"]


class StageManifest:
    """No-op placeholder for the ledger's tracer; see the module docstring."""

    def record(self, *args: object, **kwargs: object) -> None:
        """Nothing is recorded."""

    def load(self) -> dict:
        """Nothing was recorded."""
        return {}
