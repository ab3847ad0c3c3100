"""Retired: the ``REPRO_*`` switch registry.  No kernel switch exists.

Kept for one caller: the frozen performance ledger stamps each result
from ``kernel_switches()`` (``benchmarks/ledger/harness.py``, ``stamp``);
ROADMAP item 1(d) deletes this file with that line.  ``REPRO_CACHE_DIR``
is read, and unknown ``REPRO_*`` names warned about, in
:mod:`repro.exec.cache`.
"""


def kernel_switches() -> tuple:
    """The switches that select between kernel implementations: none."""
    return ()
