"""The paper's primary contribution: marking mechanisms and DF stability theory.

Public surface:

* parameters   — :class:`NetworkParams` and the paper defaults;
* marking      — the two schemes, :class:`SingleThresholdParams` (DCTCP)
  and :class:`DoubleThresholdParams` (DT-DCTCP): thresholds, label,
  switch marker and closed-form DF of each; RED/DropTail baselines;
* describing_function — Eq. 22/27, the relative DF of any scheme
  (Eq. 23/28) and the numeric DF that validates them;
* transfer_function   — the linearised fluid plant (Eq. 13-18);
* nyquist / stability — loci, intersections, Theorems 1 and 2.
"""

from repro.core.describing_function import (
    df_double_threshold,
    df_single_threshold,
    neg_inv_relative_df,
    numeric_df_double,
    numeric_df_from_marker,
    numeric_df_single,
    relative_df,
)
from repro.core.marking import (
    DoubleThresholdMarker,
    DoubleThresholdParams,
    Marker,
    NullMarker,
    REDMarker,
    SingleThresholdMarker,
    SingleThresholdParams,
    scheme_for,
)
from repro.core.margins import LoopMargins, classical_margins
from repro.core.nyquist import (
    LocusIntersection,
    PhaseCrossover,
    df_locus,
    find_intersections,
    phase_crossovers,
    plant_locus,
    winding_number,
)
from repro.core.parameters import (
    NetworkParams,
    OperatingPoint,
    paper_dctcp,
    paper_dt_dctcp,
    paper_network,
)
from repro.core.sawtooth import SawtoothPrediction
from repro.core.sawtooth import predict as sawtooth_predict
from repro.core.stability import (
    StabilityReport,
    analyze,
    calibrate_gain_scale,
    critical_flow_count,
    predicted_limit_cycle,
    stability_margin,
    sufficient_condition_holds,
)
from repro.core.transfer_function import (
    dc_gain,
    open_loop,
    p_alpha,
    p_dctcp,
    p_queue,
    plant,
    plant_poles,
    plant_zero,
)

__all__ = [
    # parameters
    "NetworkParams",
    "OperatingPoint",
    "paper_network",
    "paper_dctcp",
    "paper_dt_dctcp",
    # marking
    "SingleThresholdParams",
    "DoubleThresholdParams",
    "scheme_for",
    "Marker",
    "NullMarker",
    "SingleThresholdMarker",
    "DoubleThresholdMarker",
    "REDMarker",
    # describing functions
    "df_single_threshold",
    "df_double_threshold",
    "relative_df",
    "neg_inv_relative_df",
    "numeric_df_single",
    "numeric_df_double",
    "numeric_df_from_marker",
    # plant
    "p_alpha",
    "p_dctcp",
    "p_queue",
    "plant",
    "open_loop",
    "plant_poles",
    "plant_zero",
    "dc_gain",
    # margins + sawtooth
    "LoopMargins",
    "classical_margins",
    "SawtoothPrediction",
    "sawtooth_predict",
    # nyquist + stability
    "PhaseCrossover",
    "LocusIntersection",
    "plant_locus",
    "df_locus",
    "phase_crossovers",
    "find_intersections",
    "winding_number",
    "StabilityReport",
    "analyze",
    "stability_margin",
    "sufficient_condition_holds",
    "predicted_limit_cycle",
    "critical_flow_count",
    "calibrate_gain_scale",
]
