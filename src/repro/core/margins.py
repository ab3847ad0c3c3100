"""Classical loop margins for the DF-linearised DCTCP loop.

The DF method's binary verdict (intersection or not) has classical
refinements: fix the nonlinearity at its most dangerous amplitude — the
one maximising the DF gain — and read the resulting *linear* loop's

* **gain margin**: how much extra loop gain until instability
  (``1/|L(j w180)|`` at the phase crossover);
* **phase margin**: how much extra phase lag at the gain crossover
  (``180 deg + arg L(j wgc)``);
* **delay margin**: how much extra feedback delay the loop tolerates
  (``PM / wgc`` in seconds — directly comparable to the RTT).

For DCTCP's relay the maximising amplitude is ``X = K sqrt(2)`` (where
``N0dc = 1/pi``); for DT-DCTCP it is located numerically.  DT-DCTCP's
phase-leading DF buys phase margin at the same gain — the margin-level
restatement of Theorem 2.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Optional

import numpy as np

from repro.core.marking import MarkingParams
from repro.core.nyquist import _scaled_gain
from repro.core.parameters import NetworkParams
from repro.core.transfer_function import open_loop

__all__ = ["LoopMargins", "classical_margins"]


@dataclasses.dataclass(frozen=True)
class LoopMargins:
    """Gain/phase/delay margins of the linearised loop."""

    #: Amplitude at which the DF was evaluated (packets).
    amplitude: float
    #: Complex DF value there.
    df_value: complex
    #: Linear gain factor until the loop reaches the -1 point (>1 = stable).
    gain_margin: float
    #: Phase-crossover angular frequency (rad/s); None if no crossover.
    phase_crossover: Optional[float]
    #: Degrees of extra lag tolerated at the gain crossover.
    phase_margin_deg: Optional[float]
    #: Gain-crossover angular frequency (rad/s); None if |L| < 1 always.
    gain_crossover: Optional[float]
    #: Extra feedback delay tolerated (seconds); None without crossover.
    delay_margin: Optional[float]

    @property
    def gain_margin_db(self) -> float:
        return 20.0 * math.log10(self.gain_margin)

    @property
    def stable(self) -> bool:
        """Stable by both classical criteria (margins positive)."""
        gm_ok = self.gain_margin > 1.0
        pm_ok = self.phase_margin_deg is None or self.phase_margin_deg > 0.0
        return gm_ok and pm_ok


def classical_margins(
    net: NetworkParams,
    params: MarkingParams,
    amplitude: Optional[float] = None,
    loop_gain_scale: float = 1.0,
    n_grid: int = 60000,
) -> LoopMargins:
    """Margins of ``L(jw) = N(X) * scale * G(jw)`` at fixed amplitude.

    ``loop_gain_scale`` must be positive and finite, as for the loci
    (:func:`repro.core.nyquist._scaled_gain` refuses it otherwise): a
    NaN, infinite or zero scale would read as an infinite gain margin,
    and a negative one as the margin of a sign-flipped loop.
    """
    _scaled_gain(params, loop_gain_scale)
    if amplitude is None:
        amplitude = params.worst_case_amplitude()
    df_value = params.df(amplitude)

    w = np.geomspace(10.0 / net.rtt / 1e4, 1e3 / net.rtt, n_grid)
    loop = df_value * loop_gain_scale * open_loop(w, net)
    mag = np.abs(loop)
    phase = np.unwrap(np.angle(loop))

    # Phase crossover: first descent through -pi.
    phase_crossover = None
    gain_margin = math.inf
    below = np.where(phase <= -math.pi)[0]
    if len(below) and below[0] > 0:
        i = below[0]
        w180 = float(
            np.interp(-math.pi, [phase[i], phase[i - 1]], [w[i], w[i - 1]])
        )
        phase_crossover = w180
        mag_at = float(np.interp(w180, w, mag))
        if mag_at > 0:
            gain_margin = 1.0 / mag_at

    # Gain crossover: last descent of |L| through 1.
    gain_crossover = None
    phase_margin_deg = None
    delay_margin = None
    above = np.where(mag >= 1.0)[0]
    if len(above) and above[-1] < len(w) - 1:
        i = int(above[-1])
        wgc = float(
            np.interp(1.0, [mag[i + 1], mag[i]], [w[i + 1], w[i]])
        )
        gain_crossover = wgc
        loop_at = (
            df_value * loop_gain_scale * complex(open_loop(wgc, net))
        )
        phase_margin = math.pi + cmath.phase(loop_at)
        # Normalise into (-pi, pi]: at an exact tangency cmath.phase can
        # report +pi instead of -pi, which would read as 360 degrees.
        phase_margin = (phase_margin + math.pi) % (2 * math.pi) - math.pi
        phase_margin_deg = math.degrees(phase_margin)
        if phase_margin > 0:
            delay_margin = phase_margin / wgc

    return LoopMargins(
        amplitude=amplitude,
        df_value=df_value,
        gain_margin=gain_margin,
        phase_crossover=phase_crossover,
        phase_margin_deg=phase_margin_deg,
        gain_crossover=gain_crossover,
        delay_margin=delay_margin,
    )
