"""Describing functions (DF) of the paper's marking nonlinearities.

The DF method (Section IV) replaces a static nonlinearity by its
amplitude-dependent complex gain: for input ``x = X sin(wt)`` the output
is expanded in a Fourier series and only the fundamental is kept, giving

    N(X) = B1/X + j * A1/X                      (paper Eq. 5)

This module provides

* the paper's two closed forms, DCTCP's relay (Eq. 22) and DT-DCTCP's
  hysteresis loop (Eq. 27) — a scheme class's ``df`` is one of them;
* what every scheme's DF is turned into on the Nyquist diagrams: the
  *relative* DF (Eq. 23 / 28) and its negative reciprocal;
* a numeric DF that Fourier-integrates an arbitrary waveform or a
  stateful :class:`~repro.core.marking.Marker`, used to cross-validate
  the closed forms (and in tests), with the Figure 6/8 test waveforms.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

__all__ = [
    "df_single_threshold",
    "df_double_threshold",
    "relative_df",
    "neg_inv_relative_df",
    "marking_waveform_single",
    "marking_waveform_double",
    "numeric_df_from_waveform",
    "numeric_df_single",
    "numeric_df_double",
    "numeric_df_from_marker",
]


def df_single_threshold(amplitude: float, k: float, bias: float = 0.0) -> complex:
    """DCTCP's DF, paper Eq. (22), optionally bias-corrected.

    ``N_dc(X) = 2/(pi X) sqrt(1-(K'/X)^2)`` with ``K' = K - bias``,
    valid for ``|K'| <= X``.  Real-valued: the relay contributes no
    phase shift because the marking interval is symmetric about the
    sine's peak (A1 = 0, Eq. 20).

    ``bias = 0`` is the paper's Eq. 22 exactly: it centres the test sine
    at zero, so the queue must swing all the way up past ``K`` from far
    below — but the closed loop regulates the queue *around* ``K``, so
    the physical oscillation rides at ``bias ~ K``.  For input
    ``bias + X sin(wt)`` the relay fires where ``sin(wt) > (K - bias)/X``.
    At the natural operating bias ``bias = K`` the DF is ``2/(pi X)`` —
    an ideal relay whose ``-1/N0 = -pi X/(2K)`` sweeps the *entire*
    negative real axis, so a limit cycle exists at every flow count,
    with amplitude

        X* = 2 K |K0 G(j w180)| / pi

    proportional to the plant's crossover magnitude.  That is exactly
    the shape the packet simulator exhibits (oscillation at every N,
    amplitude tracking the crossover's rise and fall) — no calibrated
    gain needed.  See ``repro.experiments.df_bias``.
    """
    effective = k - bias
    if abs(effective) > amplitude:
        raise ValueError(
            f"DF of single threshold K={k} needs |K - bias| <= X: "
            f"|{k} - {bias}| > {amplitude}"
        )
    ratio = effective / amplitude
    b1 = (2.0 / math.pi) * math.sqrt(max(0.0, 1.0 - ratio * ratio))
    return complex(b1 / amplitude, 0.0)


def df_double_threshold(
    amplitude: float, k1: float, k2: float, bias: float = 0.0
) -> complex:
    """DT-DCTCP's DF, paper Eq. (27), optionally bias-corrected.

    ``N_dt(X) = 1/(pi X) (sqrt(1-(K1'/X)^2) + sqrt(1-(K2'/X)^2))
                + j (K2-K1)/(pi X^2)``

    with ``Ki' = Ki - bias``.  ``bias = 0`` is the paper's Eq. 27
    exactly; ``bias`` at the threshold midpoint models the physical
    oscillation, which rides around the band (see
    :func:`df_single_threshold` for the relay analogue).  The imaginary
    part depends only on the gap, so the hysteresis phase lead is
    bias-invariant.

    The *positive* imaginary part (phase lead) is the analytic signature
    of DT-DCTCP's early-start/early-stop hysteresis and the reason the
    ``-1/N0dt`` locus sits further from the plant locus (Section V-D).
    """
    if not 0.0 < k1 <= k2:
        raise ValueError(
            f"double-threshold DF needs 0 < K1 <= K2, got K1={k1}, K2={k2}"
        )
    e1 = k1 - bias
    e2 = k2 - bias
    if abs(e1) > amplitude or e2 > amplitude:
        raise ValueError(
            f"biased double-threshold DF needs |K1-bias| <= X and "
            f"K2-bias <= X; got X={amplitude}, K1'={e1}, K2'={e2}"
        )
    r1 = e1 / amplitude
    r2 = e2 / amplitude
    b1 = (
        math.sqrt(max(0.0, 1.0 - r1 * r1)) + math.sqrt(max(0.0, 1.0 - r2 * r2))
    ) / math.pi
    a1 = (k2 - k1) / (math.pi * amplitude)
    return complex(b1 / amplitude, a1 / amplitude)


def relative_df(scheme, amplitude: float) -> complex:
    """Relative DF ``N0 = K N_dc`` (Eq. 23) / ``N0 = K2 N_dt`` (Eq. 28).

    The multiplier is the scheme's ``amplitude_floor`` — the product is
    written that way round, never as a division by
    ``characteristic_gain``, because the tables hold its last bit.
    """
    return scheme.amplitude_floor * scheme.df(amplitude)


def neg_inv_relative_df(scheme, amplitude: float) -> complex:
    """``-1/N0(X)``, the DF locus of the Nyquist diagrams (Figure 7).

    DCTCP's lies on the negative real axis; DT-DCTCP's has a negative
    real part and a positive imaginary part.
    """
    n0 = relative_df(scheme, amplitude)
    if n0 == 0:
        raise ValueError(f"-1/N0 undefined at X={amplitude}: relative DF is zero")
    return -1.0 / n0


def marking_waveform_single(
    phase: float, amplitude: float, k: float, offset: float = 0.0
) -> float:
    """Marking output of DCTCP for the DF test signal ``q = offset + X sin(wt)``.

    Returns 1.0 where the paper's Figure 6 waveform is ON.  Used by the
    numeric describing-function validation.
    """
    q = offset + amplitude * math.sin(phase)
    return 1.0 if q >= k else 0.0


def marking_waveform_double(
    phase: float, amplitude: float, k1: float, k2: float, offset: float = 0.0
) -> float:
    """Marking output of DT-DCTCP for ``q = offset + X sin(wt)``.

    ON exactly for phase in ``[arcsin((k1-offset)/X), pi - arcsin((k2-offset)/X)]``
    (mod 2*pi), the paper's Figure 8 waveform.  Requires ``X >= k2 - offset``.
    """
    x1 = (k1 - offset) / amplitude
    x2 = (k2 - offset) / amplitude
    if x2 > 1.0:
        # Queue never reaches the stop threshold: hysteresis never engages.
        return 0.0
    phi1 = math.asin(min(1.0, max(-1.0, x1)))
    phi2 = math.pi - math.asin(x2)
    p = phase % (2.0 * math.pi)
    return 1.0 if phi1 <= p <= phi2 else 0.0


def numeric_df_from_waveform(
    waveform: Callable[[float], float], amplitude: float, n_samples: int = 8192
) -> complex:
    """Numeric DF via trapezoidal Fourier integration over one period.

    ``waveform(phase)`` must return the nonlinearity output for input
    ``X sin(phase)``; the fundamental coefficients are

        A1 = (1/pi) int_0^{2pi} y cos(phase) dphase
        B1 = (1/pi) int_0^{2pi} y sin(phase) dphase

    and ``N = B1/X + j A1/X`` (paper Eq. 4-5).
    """
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if n_samples < 16:
        raise ValueError(f"n_samples too small for Fourier integration: {n_samples}")
    phases = np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)
    y = np.array([waveform(float(p)) for p in phases])
    dphi = 2.0 * math.pi / n_samples
    a1 = float(np.sum(y * np.cos(phases)) * dphi / math.pi)
    b1 = float(np.sum(y * np.sin(phases)) * dphi / math.pi)
    return complex(b1 / amplitude, a1 / amplitude)


def numeric_df_single(
    amplitude: float, k: float, offset: float = 0.0, n_samples: int = 8192
) -> complex:
    """Numeric DF of DCTCP's relay (validates Eq. 22 when offset = 0)."""
    return numeric_df_from_waveform(
        lambda phase: marking_waveform_single(phase, amplitude, k, offset),
        amplitude,
        n_samples,
    )


def numeric_df_double(
    amplitude: float,
    k1: float,
    k2: float,
    offset: float = 0.0,
    n_samples: int = 8192,
) -> complex:
    """Numeric DF of DT-DCTCP's hysteresis (validates Eq. 27 when offset = 0)."""
    return numeric_df_from_waveform(
        lambda phase: marking_waveform_double(phase, amplitude, k1, k2, offset),
        amplitude,
        n_samples,
    )


def numeric_df_from_marker(
    marker,
    amplitude: float,
    offset: float = 0.0,
    n_samples: int = 8192,
    settle_cycles: int = 2,
) -> complex:
    """Numeric DF of a live, possibly stateful :class:`Marker` instance.

    Drives the marker with ``offset + X sin(phase)`` for ``settle_cycles``
    warm-up periods (so hysteresis state machines lock onto the steady
    waveform), then Fourier-integrates one further period.  This is the
    strongest validation that the causal marking state machines implement
    exactly the waveforms the paper's Theorems integrate.
    """
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    marker.reset()
    dphi = 2.0 * math.pi / n_samples
    for cycle in range(settle_cycles):
        for i in range(n_samples):
            phase = cycle * 2.0 * math.pi + i * dphi
            marker.should_mark(offset + amplitude * math.sin(phase))
    a1 = 0.0
    b1 = 0.0
    for i in range(n_samples):
        phase = i * dphi
        y = 1.0 if marker.should_mark(offset + amplitude * math.sin(phase)) else 0.0
        a1 += y * math.cos(phase) * dphi / math.pi
        b1 += y * math.sin(phase) * dphi / math.pi
    return complex(b1 / amplitude, a1 / amplitude)


def df_phase_degrees(value: complex) -> float:
    """Phase of a DF in degrees; positive = phase lead (stabilising)."""
    return math.degrees(cmath.phase(value))
