"""Figure 4: the DF stability criterion's three cases, made executable.

The paper's Figure 4 sketches a plant locus and three DF loci: one not
surrounded (stable), one surrounded (unstable), one intersecting (limit
cycles).  This experiment reproduces the trichotomy with the actual
DCTCP plant: sweeping the loop gain moves the plant locus across the
(fixed) DCTCP DF locus, and the classifier reports, for each gain,
whether the loci intersect and whether the DF locus's rightmost point is
enclosed by the plant curve (winding number).
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.core.nyquist import plant_locus, winding_number
from repro.core.parameters import paper_network
from repro.core.stability import stability_margin
from repro.experiments.tables import print_table
from repro.core.parameters import SingleThresholdParams

__all__ = ["CriterionCase", "run", "main"]


@dataclasses.dataclass(frozen=True)
class CriterionCase:
    """Classification of one loop gain."""

    loop_gain_scale: float
    margin: float
    intersects: bool
    rightmost_df_point_enclosed: bool

    @property
    def classification(self) -> str:
        if self.intersects:
            return "limit cycle"
        if self.rightmost_df_point_enclosed:
            return "unstable"
        return "stable"


def run(
    gains=(1.0, 5.5, 30.0), n_flows: int = 60, margin_tol: float = 5e-2
) -> List[CriterionCase]:
    """Classify the loop at several gain scales (low / critical / high)."""
    net = paper_network(n_flows)
    params = SingleThresholdParams(k=40.0)
    landmark = params.rightmost()
    cases = []
    for gain in gains:
        margin = stability_margin(net, params, loop_gain_scale=gain)
        # Close the plant locus through its mirror image (negative
        # frequencies) for a meaningful winding number.
        w = np.geomspace(1e2, 1e7, 6000)
        _, upper = plant_locus(net, params, w=w, loop_gain_scale=gain)
        curve = np.concatenate([np.conj(upper[::-1]), upper])
        enclosed = winding_number(curve, landmark) != 0
        cases.append(
            CriterionCase(
                loop_gain_scale=gain,
                margin=margin,
                intersects=margin <= margin_tol,
                rightmost_df_point_enclosed=enclosed and margin > margin_tol,
            )
        )
    return cases


def main() -> List[CriterionCase]:
    cases = run()
    print_table(
        ["loop gain", "locus distance", "classification"],
        [(c.loop_gain_scale, c.margin, c.classification) for c in cases],
        title="Figure 4 - stability criterion trichotomy on the DCTCP plant "
        "(N=60)",
    )
    return cases
