"""Round-trip estimation and retransmission timeout (Jacobson/Karels).

Implements the standard SRTT/RTTVAR estimator of RFC 6298 with a
configurable minimum RTO.  The minimum matters enormously in the incast
experiments: the paper's ~20x completion-time jump (Figure 15, ~10 ms to
~200 ms) is exactly one stock Linux ``RTO_min`` of 200 ms, so that is
the default here.

Karn's rule is applied by the caller (retransmitted segments carry no
timestamp and produce no samples).
"""

from __future__ import annotations

import math

__all__ = ["RttEstimator", "DEFAULT_MIN_RTO", "INITIAL_RTO"]

#: Stock Linux minimum RTO; the quantum of incast collapse.
DEFAULT_MIN_RTO = 0.2
#: RFC 6298's RTO before the first RTT sample.
INITIAL_RTO = 1.0


class RttEstimator:
    """SRTT/RTTVAR tracker producing the current RTO."""

    __slots__ = ("srtt", "rttvar", "min_rto", "max_rto", "rto", "samples")

    #: RFC 6298 gains.
    ALPHA = 0.125
    BETA = 0.25
    K = 4.0

    def __init__(self, min_rto: float = DEFAULT_MIN_RTO, max_rto: float = 60.0):
        # ``not (x > 0)`` rather than ``x <= 0``: NaN fails both
        # comparisons and would otherwise make every RTO NaN.
        if not (min_rto > 0 and math.isfinite(min_rto)):
            raise ValueError(
                f"min_rto must be positive and finite, got {min_rto}"
            )
        if not (min_rto <= max_rto and math.isfinite(max_rto)):
            raise ValueError(
                f"max_rto must be finite and >= min_rto {min_rto}, got {max_rto}"
            )
        self.srtt: float = 0.0
        self.rttvar: float = 0.0
        self.min_rto = min_rto
        self.max_rto = max_rto
        #: Current RTO in seconds (a plain slot: read on every ACK).
        self.rto: float = max(min_rto, min(INITIAL_RTO, max_rto))
        self.samples = 0

    def on_sample(self, rtt: float) -> None:
        """Fold a fresh (non-retransmitted) RTT measurement in; the new
        RTO also undoes any backoff."""
        # One chained comparison, no call: a NaN or infinite sample
        # would poison ``srtt`` (and the RTO) for the rest of the run.
        if not (0.0 < rtt < math.inf):
            raise ValueError(
                f"rtt sample must be positive and finite, got {rtt}"
            )
        if self.samples == 0:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            err = rtt - self.srtt
            self.rttvar = (1.0 - self.BETA) * self.rttvar + self.BETA * abs(err)
            self.srtt += self.ALPHA * err
        self.samples += 1
        raw = self.srtt + self.K * self.rttvar
        self.rto = min(self.max_rto, max(self.min_rto, raw))

    def backoff(self) -> float:
        """Double the RTO after a timeout (exponential backoff); returns it."""
        self.rto = min(self.max_rto, self.rto * 2.0)
        return self.rto
