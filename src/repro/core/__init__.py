"""The paper's primary contribution: marking mechanisms and DF stability theory.

Public surface:

* parameters   — :class:`NetworkParams`, :class:`SingleThresholdParams`,
  :class:`DoubleThresholdParams`, paper defaults;
* marking      — :class:`SingleThresholdMarker` (DCTCP),
  :class:`DoubleThresholdMarker` (DT-DCTCP), RED/DropTail baselines;
* describing_function — closed-form and numeric DFs (Eq. 22/23/27/28);
* transfer_function   — the linearised fluid plant (Eq. 13-18);
* nyquist / stability — loci, intersections, Theorems 1 and 2.
"""

from repro.core.describing_function import (
    df_double_threshold,
    df_single_threshold,
    neg_inv_relative_df_double,
    neg_inv_relative_df_single,
    numeric_df_double,
    numeric_df_from_marker,
    numeric_df_single,
    relative_df_double,
    relative_df_single,
)
from repro.core.marking import (
    DoubleThresholdMarker,
    Marker,
    NullMarker,
    REDMarker,
    SingleThresholdMarker,
)
from repro.core.margins import (
    LoopMargins,
    classical_margins,
    worst_case_amplitude,
)
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
    DoubleThresholdParams,
    NetworkParams,
    OperatingPoint,
    SingleThresholdParams,
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
    "SingleThresholdParams",
    "DoubleThresholdParams",
    "paper_network",
    "paper_dctcp",
    "paper_dt_dctcp",
    # marking
    "Marker",
    "NullMarker",
    "SingleThresholdMarker",
    "DoubleThresholdMarker",
    "REDMarker",
    # describing functions
    "df_single_threshold",
    "df_double_threshold",
    "relative_df_single",
    "relative_df_double",
    "neg_inv_relative_df_single",
    "neg_inv_relative_df_double",
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
    "worst_case_amplitude",
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
