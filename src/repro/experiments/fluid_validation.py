"""Fluid-model validation: DF theory versus nonlinear DDE simulation.

Beyond the paper's figures, this experiment closes the loop between the
two halves of the reproduction: the describing-function machinery
*predicts* a limit cycle (amplitude, frequency) from Eq. (13)-(18) and
the marking DF, and the nonlinear fluid model (Eq. 1-3) *exhibits* one
when integrated.  The table compares, per flow count:

* fluid-simulated queue oscillation amplitude and dominant frequency,
  for DCTCP and DT-DCTCP;
* DT-DCTCP's standard-deviation advantage (the paper's core claim) at
  the fluid level;
* the DF-predicted oscillation frequency, which should land in the same
  band as the fluid simulation's dominant frequency.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.core.nyquist import principal_phase_crossover
from repro.core.parameters import paper_dctcp, paper_dt_dctcp, paper_network
from repro.core.stability import calibrate_gain_scale, predicted_limit_cycle
from repro.exec.cases import Case
from repro.exec.executor import SweepExecutor, execute_cases
from repro.experiments.config import Scale, full_scale
from repro.experiments.tables import print_table
from repro.fluid.integrator import simulate
from repro.fluid.model import fluid_model

__all__ = ["EXPERIMENT", "FluidPoint", "cases", "run_case", "run", "main"]

EXPERIMENT = "repro.experiments.fluid_validation"


@dataclasses.dataclass(frozen=True)
class FluidPoint:
    """Fluid-model statistics at one flow count."""

    n_flows: int
    dc_mean: float
    dc_std: float
    dc_amplitude: float
    dc_frequency: float
    dt_mean: float
    dt_std: float
    dt_amplitude: float
    #: DF-side oscillation frequency: the predicted limit cycle's if one
    #: exists at this N, otherwise the plant's phase-crossover frequency
    #: (where the loop would ring).
    predicted_frequency: Optional[float]


def cases(
    scale: Scale = None,
    flow_counts: Sequence[int] = (10, 20, 30, 40),
) -> List[Case]:
    """One :class:`Case` per flow count of the validation table."""
    if scale is None:
        scale = full_scale()
    return [
        Case(
            experiment=EXPERIMENT,
            label=f"fluid/N={n}",
            params={"n_flows": n, "fluid_duration": scale.fluid_duration},
        )
        for n in flow_counts
    ]


def run_case(case: Case) -> dict:
    """One flow count's fluid-vs-DF comparison; pure in ``case.params``.

    The gain calibration is a deterministic function of the paper's
    N = 10 plant, so recomputing it per case (instead of hoisting it
    out of the loop) changes nothing but lets every cell stand alone.
    """
    n = case.params["n_flows"]
    fluid_duration = case.params["fluid_duration"]
    gain = calibrate_gain_scale(paper_network(10), paper_dctcp(), onset_flows=60)
    net = paper_network(n)
    dc_trace = simulate(
        fluid_model(net, paper_dctcp()), duration=fluid_duration
    ).after(fluid_duration / 2)
    dt_trace = simulate(
        fluid_model(net, paper_dt_dctcp()), duration=fluid_duration
    ).after(fluid_duration / 2)
    # The DF method locates any oscillation at the plant's phase
    # crossover; below onset no limit cycle is *predicted*, but the
    # crossover frequency is still where the loop "wants" to ring -
    # and the fluid model's dominant line should sit near it.
    cycle = predicted_limit_cycle(
        net, paper_dctcp(), loop_gain_scale=gain, margin_tol=0.05
    )
    crossover = principal_phase_crossover(net, paper_dctcp())
    return dataclasses.asdict(
        FluidPoint(
            n_flows=n,
            dc_mean=dc_trace.mean_queue,
            dc_std=dc_trace.std_queue,
            dc_amplitude=dc_trace.queue_amplitude,
            dc_frequency=dc_trace.dominant_frequency(),
            dt_mean=dt_trace.mean_queue,
            dt_std=dt_trace.std_queue,
            dt_amplitude=dt_trace.queue_amplitude,
            predicted_frequency=(
                cycle.frequency
                if cycle is not None
                else (crossover.frequency if crossover else None)
            ),
        )
    )


def run(
    scale: Scale = None,
    flow_counts: Sequence[int] = (10, 20, 30, 40),
    executor: Optional[SweepExecutor] = None,
) -> List[FluidPoint]:
    raw = execute_cases(
        cases(scale, flow_counts), executor, stage="Fluid validation"
    )
    return [FluidPoint(**r) for r in raw]


def main(
    scale: Scale = None, executor: Optional[SweepExecutor] = None
) -> List[FluidPoint]:
    points = run(scale, executor=executor)
    rows = [
        (
            p.n_flows,
            p.dc_std,
            p.dt_std,
            p.dc_frequency,
            p.predicted_frequency if p.predicted_frequency is not None else "-",
        )
        for p in points
    ]
    print_table(
        [
            "N",
            "DCTCP fluid std",
            "DT-DCTCP fluid std",
            "fluid freq (rad/s)",
            "DF-predicted freq",
        ],
        rows,
        title="Fluid model vs describing-function theory",
    )
    return points
