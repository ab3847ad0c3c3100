"""Experiment harness: the paper's figures and the extension studies.

:data:`STAGES` is the experiment index — every stage's ``figure <id>``,
title, module and table printer, in run order.  ``python -m repro.cli
figure <id>`` runs one stage and ``figure all`` runs them all;
``python -m repro.experiments.runner`` is ``figure all`` under its old
name and ``python -m repro.experiments.report`` is the same run captured
into a markdown file.  Each stage module exposes ``run(...)`` returning
structured results and a printer (``main`` unless the index says
otherwise) printing its table.  DESIGN.md's experiment index maps the
stages to the paper.

The index names modules by dotted string and imports them on use:
importing this package must not pay for 19 stage modules.
"""

import importlib
from typing import Any, NamedTuple, Optional, Tuple

from repro.experiments.config import Scale, full_scale, quick_scale

__all__ = [
    "STAGES",
    "Scale",
    "Stage",
    "full_scale",
    "quick_scale",
    "stage_by_id",
]


class Stage(NamedTuple):
    """One entry of the experiment index."""

    #: What ``repro.cli figure`` calls it.
    id: str
    #: Banner in ``figure all`` and section heading in the report.
    title: str
    #: Module under :mod:`repro.experiments` holding the printer.
    module: str
    #: Which of ``scale`` / ``executor`` the printer takes, as keywords.
    takes: Tuple[str, ...] = ()
    printer: str = "main"

    def run(self, scale: Scale, executor: Optional[Any] = None) -> Any:
        """Import the stage's module and print its table."""
        module = importlib.import_module(f"repro.experiments.{self.module}")
        given = {"scale": scale, "executor": executor}
        return getattr(module, self.printer)(
            **{name: given[name] for name in self.takes}
        )


#: Sweep-shaped stages: their cells go through the executor.
_SWEEP = ("scale", "executor")

STAGES: Tuple[Stage, ...] = (
    Stage("1", "Figure 1", "fig01_oscillation", _SWEEP),
    Stage("2", "Figure 2", "fig02_marking"),
    Stage("4", "Figure 4", "fig04_criterion"),
    Stage("6", "Figures 6/8", "fig06_08_df"),
    Stage("7", "Figure 7", "fig07_nyquist_loci"),
    Stage("9", "Figure 9", "fig09_critical_n"),
    Stage("10", "Figure 10", "queue_sweep", _SWEEP, "main_fig10"),
    Stage("11", "Figure 11", "queue_sweep", _SWEEP, "main_fig11"),
    Stage("12", "Figure 12", "queue_sweep", _SWEEP, "main_fig12"),
    Stage("13", "Figure 13", "fig13_topology"),
    Stage("14", "Figure 14", "fig14_incast", _SWEEP),
    Stage("15", "Figure 15", "fig15_completion_time", _SWEEP),
    Stage("fluid", "Fluid validation", "fluid_validation", _SWEEP),
    Stage("convergence", "Convergence & fairness", "convergence"),
    Stage("buildup", "Queue buildup", "queue_buildup"),
    Stage("buffer", "Buffer pressure", "buffer_pressure"),
    Stage("sensitivity", "Design sensitivity", "sensitivity"),
    Stage("deadlines", "Deadline awareness (D2TCP)", "deadlines"),
    Stage("df-bias", "Bias-corrected DF", "df_bias", ("scale",)),
)


def stage_by_id(stage_id: str) -> Optional[Stage]:
    """The stage ``figure <stage_id>`` names (``8`` shares Figure 6's)."""
    stage_id = {"8": "6"}.get(stage_id, stage_id)
    return next((s for s in STAGES if s.id == stage_id), None)
