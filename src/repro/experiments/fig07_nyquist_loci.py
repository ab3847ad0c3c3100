"""Figure 7: Nyquist loci of DCTCP and DT-DCTCP.

Samples the plant locus ``K0 G(jw)`` and the DF locus ``-1/N0(X)`` for
both mechanisms at the paper's parameters and summarises their geometry:

* DCTCP's ``-1/N0dc`` lies entirely on the negative real axis with its
  rightmost point at exactly ``-pi`` (Figure 7a);
* DT-DCTCP's ``-1/N0dt`` leaves the axis with strictly positive
  imaginary part (Figure 7b) — the phase lead that keeps it away from
  the plant locus.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

import numpy as np

from repro.core.nyquist import df_locus, plant_locus
from repro.core.parameters import (
    paper_dctcp,
    paper_dt_dctcp,
    paper_network,
)
from repro.experiments.tables import print_table

__all__ = ["LociSummary", "run", "main"]


@dataclasses.dataclass(frozen=True)
class LociSummary:
    """Geometric summary of one mechanism's pair of loci."""

    mechanism: str
    df_rightmost: complex
    df_max_imag: float
    df_min_imag: float
    plant_real_axis_reach: float  # most negative real-axis crossing value
    plant_samples: Tuple[np.ndarray, np.ndarray]
    df_samples: Tuple[np.ndarray, np.ndarray]


def summarize(mechanism: str, net, params) -> LociSummary:
    w, plant_vals = plant_locus(net, params)
    x, df_vals = df_locus(params)
    rightmost = df_vals[int(np.argmax(df_vals.real))]
    # Plant locus's real-axis reach: value where |Im| is smallest among
    # left-half-plane samples.
    left = plant_vals[plant_vals.real < 0]
    reach = float(left.real[int(np.argmin(np.abs(left.imag)))]) if len(left) else 0.0
    return LociSummary(
        mechanism=mechanism,
        df_rightmost=complex(rightmost),
        df_max_imag=float(df_vals.imag.max()),
        df_min_imag=float(df_vals.imag.min()),
        plant_real_axis_reach=reach,
        plant_samples=(w, plant_vals),
        df_samples=(x, df_vals),
    )


def run(n_flows: int = 60) -> Tuple[LociSummary, LociSummary]:
    net = paper_network(n_flows)
    return (
        summarize("DCTCP", net, paper_dctcp()),
        summarize("DT-DCTCP", net, paper_dt_dctcp()),
    )


def main() -> Tuple[LociSummary, LociSummary]:
    dc, dt = run()
    print_table(
        [
            "mechanism",
            "rightmost -1/N0 (real)",
            "rightmost -1/N0 (imag)",
            "DF locus max Im",
            "plant real-axis reach",
        ],
        [
            (
                dc.mechanism,
                dc.df_rightmost.real,
                dc.df_rightmost.imag,
                dc.df_max_imag,
                dc.plant_real_axis_reach,
            ),
            (
                dt.mechanism,
                dt.df_rightmost.real,
                dt.df_rightmost.imag,
                dt.df_max_imag,
                dt.plant_real_axis_reach,
            ),
        ],
        title="Figure 7 - Nyquist loci geometry at the paper parameters (N=60)",
    )
    print(
        "DCTCP's DF locus hugs the real axis (max(-1/N0dc) = -pi = "
        f"{-math.pi:.4f}); DT-DCTCP's leaves it with positive imaginary part."
    )
    return dc, dt
