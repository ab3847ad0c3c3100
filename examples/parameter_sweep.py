#!/usr/bin/env python
"""Scriptable studies from plain data.

Everything the other examples do by wiring objects together can be
driven by a table.  This script runs a two-axis study — marking
mechanism x threshold placement — from a list of (protocol, thresholds)
rows, through the same rig Figures 10-12 use
(``repro.experiments.queue_sweep.run_point``).  For a cached, parallel,
resumable grid over the same axes see ``python -m repro.cli campaign``.

Run:  python examples/parameter_sweep.py
"""

import dataclasses

from repro.core.marking import scheme_for
from repro.experiments.config import quick_scale
from repro.experiments.protocols import ProtocolConfig
from repro.experiments.queue_sweep import run_point
from repro.experiments.tables import print_table
from repro.sim.protocols import PROTOCOLS

STUDY = [
    ("dctcp", (20,)),
    ("dctcp", (40,)),
    ("dctcp", (80,)),
    ("dt-dctcp", (15, 25)),
    ("dt-dctcp", (30, 50)),
    ("dt-dctcp", (60, 100)),
    ("ecn-reno", (40,)),
]

N_FLOWS = 10
SCALE = dataclasses.replace(quick_scale(), sim_duration=0.03, warmup=0.012)


def main() -> None:
    rows = []
    for name, thresholds in STUDY:
        protocol = ProtocolConfig(
            name=name,
            marker_factory=scheme_for(thresholds).marker,
            sender_cls=PROTOCOLS[name].sender_cls,
        )
        point = run_point(protocol, N_FLOWS, SCALE)
        rows.append(
            (
                name,
                "/".join(str(t) for t in thresholds),
                point.mean_queue,
                point.std_queue,
                point.goodput_bps / 1e9,
            )
        )
    print_table(
        ["protocol", "thresholds", "mean queue", "std", "goodput (Gbps)"],
        rows,
        title="Threshold-placement study, 10 flows on 10 Gbps",
    )
    print(
        "Low thresholds trade throughput headroom for latency; the "
        "double threshold keeps the std low wherever the band sits."
    )


if __name__ == "__main__":
    main()
