"""Profiling helpers: :mod:`repro.perf.profiling` wraps any experiment
in cProfile for ``--profile`` runs.  Speed is measured by the
performance ledger, ``benchmarks/ledger/run.py``.
"""

from repro.perf.profiling import profiled

__all__ = ["profiled"]
