"""Reproduction of "Ease the Queue Oscillation: Analysis and Enhancement
of DCTCP" (Chen, Cheng, Ren, Shu, Lin - ICDCS 2013).

Subpackages:

* :mod:`repro.core`        — marking mechanisms (DCTCP relay, DT-DCTCP
  hysteresis), describing functions, the linearised fluid plant, and the
  Nyquist/DF stability analysis (the paper's contribution);
* :mod:`repro.fluid`       — the nonlinear delay-differential fluid model;
* :mod:`repro.sim`         — a packet-level discrete-event network
  simulator with DCTCP endpoints (the ns-2 substitute);
* :mod:`repro.stats`       — statistics for the evaluation;
* :mod:`repro.experiments` — the experiment index and one harness
  module per paper figure or sweep.

Quick start::

    from repro.experiments import quick_scale, stage_by_id
    stage_by_id("11").run(quick_scale())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
