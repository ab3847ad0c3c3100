"""The paper's primary contribution: marking mechanisms and DF stability theory.

A namespace, not a facade: import each name from the module that
defines it (``from repro.core.marking import SingleThresholdParams``).
The simulator needs ``marking`` and ``parameters`` only; importing them
must not pay for ``nyquist`` / ``stability`` and the solvers they load.


* parameters   — :class:`NetworkParams` and the paper defaults;
* marking      — the two schemes, :class:`SingleThresholdParams` (DCTCP)
  and :class:`DoubleThresholdParams` (DT-DCTCP): thresholds, label,
  switch marker and closed-form DF of each; RED/DropTail baselines;
* describing_function — Eq. 22/27, the relative DF of any scheme
  (Eq. 23/28) and the numeric DF that validates them;
* transfer_function   — the linearised fluid plant (Eq. 13-18);
* nyquist / stability — loci, intersections, Theorems 1 and 2.
"""
