"""Central registry of ``REPRO_*`` environment switches.

One switch exists, and it cannot change a result: ``REPRO_CACHE_DIR``
(where the result cache lives).  There is no kernel switch: the
simulator has one code path per input, chosen from what the code
observes (see ``docs/SIMULATOR.md``, "Kernel rulings"), so results are a
function of ``Case.params`` alone.

This registry is the *only* sanctioned place to read a ``REPRO_*``
variable (rule ``KRN001`` in :mod:`repro.lint` flags any other call
site).  Importing it warns once about every ``REPRO_*`` variable in the
environment that is not registered — a misspelt name, or a switch a
later commit deleted, would otherwise be ignored without a word.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "KernelSwitch",
    "REGISTRY",
    "kernel_switches",
    "registered",
    "env_value",
]


@dataclass(frozen=True)
class KernelSwitch:
    """One registered ``REPRO_*`` environment switch."""

    env: str
    description: str


#: Every ``REPRO_*`` switch the codebase reads.
REGISTRY: Dict[str, KernelSwitch] = {
    switch.env: switch
    for switch in (
        KernelSwitch(
            env="REPRO_CACHE_DIR",
            description="result-cache directory (a path)",
        ),
    )
}


def kernel_switches() -> Tuple[KernelSwitch, ...]:
    """The switches that select between kernel implementations: none.

    Kept because the performance ledger iterates it to stamp every
    result with the kernel settings it ran under.
    """
    return ()


def registered(env: str) -> KernelSwitch:
    """The registry entry for ``env``; KeyError names the fix."""
    try:
        return REGISTRY[env]
    except KeyError:
        raise KeyError(
            f"{env} is not a registered REPRO_* switch; add it to "
            "repro.sim.kernels.REGISTRY before reading it"
        ) from None


def env_value(env: str) -> Optional[str]:
    """The raw environment value of a *registered* switch, or ``None``.

    The single sanctioned ``os.environ`` read for ``REPRO_*`` names:
    every other call site is a ``KRN001`` lint finding.
    """
    registered(env)
    return os.environ.get(env)


def _warn_unregistered() -> None:
    """One RuntimeWarning naming every unregistered ``REPRO_*`` variable.

    A warning, not an error: ledger children and executor workers
    inherit whatever environment their parent had.
    """
    unknown = sorted(
        name
        for name in os.environ
        if name.startswith("REPRO_") and name not in REGISTRY
    )
    if unknown:
        warnings.warn(
            "ignoring unregistered environment variable(s) "
            f"{', '.join(unknown)}: no such REPRO_* switch; the "
            f"registered ones are {', '.join(REGISTRY)}",
            RuntimeWarning,
            stacklevel=2,
        )


_warn_unregistered()
