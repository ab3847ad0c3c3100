"""Event-record core selection: flat tuples vs ``EventHandle`` objects.

Fire-and-forget events posted through
:meth:`repro.sim.engine.Simulator.post` / ``post_at`` — link
deliveries, probe samples and application ticks, the overwhelming
majority of all events — never cancel.  Under the *flat* core the
scheduler stores them as bare ``(time, seq, callback, args)`` tuples;
under the *object* core every event gets an ``EventHandle``, the
behaviour the flat records replaced, retained as the differential
oracle.  That is the whole switch: it measures 1.16-1.20x end to end on
the performance ledger (``docs/SIMULATOR.md``, "Kernel rulings").

Selected the same way as ``REPRO_LINK_MODEL``/``REPRO_TIMER_MODEL``:

* globally via the ``REPRO_PACKET_CORE`` environment variable
  (``flat`` | ``object``, default ``flat``),
* per process with :func:`set_default_packet_core`,
* temporarily with the :func:`packet_core` context manager
  (differential tests).

Both cores are proven byte-identical — same event order, same
``events_scheduled``/``events_processed`` counters, same delivery
traces — by the kernel-matrix differential suite.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.sim.kernels import env_default

__all__ = [
    "PACKET_CORES",
    "default_packet_core",
    "set_default_packet_core",
    "packet_core",
]

#: The flat event-record core and the boxed-object reference oracle.
PACKET_CORES = ("flat", "object")

_default_core = env_default("REPRO_PACKET_CORE")


def default_packet_core() -> str:
    """The core new simulators use when none is passed."""
    return _default_core


def set_default_packet_core(core: str) -> None:
    """Set the process-wide default packet core."""
    if core not in PACKET_CORES:
        raise ValueError(
            f"unknown packet core {core!r}; choose from {PACKET_CORES}"
        )
    global _default_core
    _default_core = core


@contextmanager
def packet_core(core: str) -> Iterator[None]:
    """Temporarily switch the default core (differential tests)."""
    previous = _default_core
    set_default_packet_core(core)
    try:
        yield
    finally:
        set_default_packet_core(previous)
