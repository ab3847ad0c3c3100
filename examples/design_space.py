#!/usr/bin/env python
"""Design-space tour: how far can the double threshold be pushed?

The paper picks K1 = 30 / K2 = 50 and g = 1/16 and stops.  This example
uses the analysis machinery to interrogate the design:

1. the (g, threshold-gap) sensitivity grid — the stability margin grows
   monotonically with the gap, and aggressive alpha gains need wider
   hysteresis;
2. classical gain / phase / delay margins at the paper's design point —
   Theorem 2 in the units control engineers actually budget;
3. what the gap does to the queue excursion at the fluid level — a gap
   too narrow for the natural limit cycle leaves the oscillation
   DCTCP-sized, while beyond a modest width the excursion saturates:
   most of the stability benefit comes essentially free.

Run:  python examples/design_space.py
"""

from repro.core.marking import DoubleThresholdParams
from repro.core.margins import classical_margins
from repro.core.parameters import paper_dctcp, paper_dt_dctcp, paper_network
from repro.core.stability import calibrate_gain_scale
from repro.experiments import sensitivity
from repro.experiments.tables import print_table
from repro.fluid.integrator import simulate
from repro.fluid.model import fluid_model


def step1_grid() -> None:
    print("== 1. Stability margin over (g, gap) ==\n")
    sensitivity.main()
    print()


def step2_margins() -> None:
    print("== 2. Classical margins at the paper's design point ==\n")
    scale = calibrate_gain_scale(paper_network(10), paper_dctcp(), 60)
    rows = []
    for n in (10, 40, 55, 100):
        net = paper_network(n)
        dc = classical_margins(net, paper_dctcp(), loop_gain_scale=scale)
        dt = classical_margins(net, paper_dt_dctcp(), loop_gain_scale=scale)
        rows.append(
            (
                n,
                dc.gain_margin,
                dt.gain_margin,
                dc.delay_margin * 1e6 if dc.delay_margin else 0.0,
                dt.delay_margin * 1e6 if dt.delay_margin else 0.0,
            )
        )
    print_table(
        ["N", "DCTCP GM", "DT-DCTCP GM", "DCTCP DM (us)", "DT-DCTCP DM (us)"],
        rows,
        title="Gain margin and delay margin (calibrated loop)",
    )
    print(
        "DT-DCTCP tolerates ~20-40 us of extra feedback delay where "
        "DCTCP tolerates almost none - on a 100 us RTT fabric that is "
        "the difference between surviving a detour and ringing.\n"
    )


def step3_tradeoff() -> None:
    print("== 3. What the gap costs: queue excursion vs gap ==\n")
    net = paper_network(10)
    rows = []
    for gap in (4.0, 10.0, 20.0, 40.0):
        params = DoubleThresholdParams(k1=40 - gap / 2, k2=40 + gap / 2)
        trace = simulate(fluid_model(net, params), duration=0.04).after(0.02)
        rows.append((gap, trace.mean_queue, trace.std_queue,
                     trace.queue_amplitude))
    print_table(
        ["gap (pkts)", "mean queue", "std", "amplitude"],
        rows,
        title="Fluid-level steady state vs threshold gap (N = 10)",
    )
    print(
        "A gap narrower than the natural limit cycle (~4 packets here) "
        "buys nothing - the queue rings straight through it.  Beyond "
        "~10 packets the excursion saturates: the margin the gap buys "
        "is essentially free at this flow count, which is why the "
        "paper's 20-packet choice is comfortable."
    )


def main() -> None:
    step1_grid()
    step2_margins()
    step3_tradeoff()


if __name__ == "__main__":
    main()
