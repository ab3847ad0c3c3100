"""Reference implementations the analysis is held to with ``==``.

**The dense plant x DF distance field.**  Until PR 17
``repro.core.nyquist`` compared two sampled loci by materialising the
distance between every pair of samples - 4000 x 2000 complex differences
per call.  ``dense_*`` are those bodies verbatim: the blockwise
``min_curve_distance`` and the candidate list ``find_intersections``
seeded its root search from (distance matrix -> ``min_dist`` ->
``threshold`` -> ``argwhere`` -> thinned seeds, as index pairs instead
of grid values).  ``test_nyquist_differential.py`` holds the pruned
enumeration to them.

**The per-scheme twins.**  Until PR 19 every quantity derived from a
marking scheme existed once per scheme (``relative_df_single`` /
``relative_df_double`` ...), the relay had a second closed form for a
biased input, and thresholds were turned into markers and labels by
counting them.  Those functions are below verbatim, as they stood at
493987e (``df_single_threshold`` is the unbiased body the bias fold
replaced, ``df_double_threshold`` the body as it validated then);
``test_scheme_differential.py`` holds the scheme classes' members to
them.

Nothing here is selectable in ``src/``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.marking import (
    DEFAULT_DIRECTION_DEADBAND,
    DoubleThresholdMarker,
    DoubleThresholdParams,
    Marker,
    MarkingParams,
    NullMarker,
    SingleThresholdMarker,
    SingleThresholdParams,
)


def dense_min_curve_distance(a, b):
    if len(a) == 0 or len(b) == 0:
        raise ValueError("min_curve_distance requires non-empty curves")
    best = math.inf
    best_i = best_j = 0
    block = 512
    for start in range(0, len(a), block):
        chunk = a[start : start + block]
        d = np.abs(chunk[:, None] - b[None, :])
        idx = np.unravel_index(np.argmin(d), d.shape)
        if d[idx] < best:
            best = float(d[idx])
            best_i = start + int(idx[0])
            best_j = int(idx[1])
    return best, best_i, best_j


def dense_contact_seeds(plant_vals, df_vals):
    # Seed from the distance field.  When the curves never come close,
    # there is nothing to polish - the loop is comfortably stable.
    dist = np.abs(plant_vals[:, None] - df_vals[None, :])
    min_dist = float(dist.min())
    if min_dist > 0.2:
        return []
    threshold = min(0.2, max(0.02, min_dist * 3.0))
    candidate_idx = np.argwhere(dist <= threshold)
    # Thin the candidates so fsolve is not run thousands of times.
    seeds = []
    seen = set()
    for i, j in candidate_idx:
        key = (int(i) // 50, int(j) // 25)
        if key in seen:
            continue
        seen.add(key)
        seeds.append((int(i), int(j)))
    return seeds


def _check_amplitude(amplitude: float, minimum: float, label: str) -> None:
    if amplitude < minimum:
        raise ValueError(
            f"DF of {label} is defined for X >= {minimum}, got X={amplitude}"
        )


def df_single_threshold(amplitude: float, k: float) -> complex:
    """DCTCP's DF, paper Eq. (22): ``N_dc(X) = 2/(pi X) sqrt(1-(K/X)^2)``.

    Real-valued: the relay contributes no phase shift because the marking
    interval is symmetric about the sine's peak (A1 = 0, Eq. 20).
    """
    _check_amplitude(amplitude, k, f"single threshold K={k}")
    ratio = k / amplitude
    b1 = (2.0 / math.pi) * math.sqrt(max(0.0, 1.0 - ratio * ratio))
    return complex(b1 / amplitude, 0.0)


def df_relay_with_bias(amplitude: float, k: float, bias: float) -> complex:
    """DF of DCTCP's relay for an oscillation centred at ``bias``.

    The paper's Eq. 22 implicitly centres the test sine at zero, so the
    queue must swing all the way up past ``K`` from far below — but the
    closed loop regulates the queue *around* ``K``, so the physical
    oscillation rides at ``bias ~ K``.  For input ``bias + X sin(wt)``
    the relay fires where ``sin(wt) > (K - bias)/X``:

        N(X) = 2/(pi X) * sqrt(1 - ((K - bias)/X)^2)

    valid for ``|K - bias| <= X``.  At the natural operating bias
    ``bias = K`` this is ``2/(pi X)`` — an ideal relay whose
    ``-1/N0 = -pi X/(2K)`` sweeps the *entire* negative real axis, so a
    limit cycle exists at every flow count, with amplitude

        X* = 2 K |K0 G(j w180)| / pi

    proportional to the plant's crossover magnitude.  That is exactly
    the shape the packet simulator exhibits (oscillation at every N,
    amplitude tracking the crossover's rise and fall) — no calibrated
    gain needed.  See ``repro.experiments.df_bias``.
    """
    effective = k - bias
    if abs(effective) > amplitude:
        raise ValueError(
            f"biased DF needs |K - bias| <= X: |{k} - {bias}| > {amplitude}"
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
    :func:`df_relay_with_bias` for the relay analogue).  The imaginary
    part depends only on the gap, so the hysteresis phase lead is
    bias-invariant.

    The *positive* imaginary part (phase lead) is the analytic signature
    of DT-DCTCP's early-start/early-stop hysteresis and the reason the
    ``-1/N0dt`` locus sits further from the plant locus (Section V-D).
    """
    params = DoubleThresholdParams(k1=k1, k2=k2)
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


def relative_df_single(amplitude: float, k: float) -> complex:
    """Relative DF of DCTCP, Eq. (23): ``N0 = K * N_dc``."""
    return k * df_single_threshold(amplitude, k)


def relative_df_double(amplitude: float, k1: float, k2: float) -> complex:
    """Relative DF of DT-DCTCP, Eq. (28): ``N0 = K2 * N_dt``."""
    return k2 * df_double_threshold(amplitude, k1, k2)


def neg_inv_relative_df_single(amplitude: float, k: float) -> complex:
    """``-1/N0dc(X)``; lies on the negative real axis (Figure 7a)."""
    n0 = relative_df_single(amplitude, k)
    if n0 == 0:
        raise ValueError(
            f"-1/N0 undefined at X={amplitude}: relative DF is zero (X == K)"
        )
    return -1.0 / n0


def neg_inv_relative_df_double(amplitude: float, k1: float, k2: float) -> complex:
    """``-1/N0dt(X)``; negative real part, positive imaginary part (Fig 7b)."""
    n0 = relative_df_double(amplitude, k1, k2)
    if n0 == 0:
        raise ValueError(f"-1/N0 undefined at X={amplitude}: relative DF is zero")
    return -1.0 / n0


def max_neg_inv_relative_df_single(k: float) -> float:
    """Analytic maximum of ``-1/N0dc(X)`` over X (attained at X = K*sqrt(2)).

    ``-1/N0dc = -pi X / (2 K sqrt(1-(K/X)^2))`` is maximised (least
    negative) at ``X = K sqrt(2)`` with value exactly ``-pi`` —
    independent of K, which is why Theorem 1's sufficient condition
    compares the plant locus against a fixed landmark.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return -math.pi


def max_real_neg_inv_relative_df_double(
    k1: float, k2: float, n_grid: int = 4096
) -> complex:
    """Point of the ``-1/N0dt`` locus with the largest real part.

    Unlike DCTCP's, DT-DCTCP's locus leaves the real axis so the
    "maximum" used in Theorem 2 is the locus point whose real part is
    largest; returned as a complex number.  Computed on a geometric
    amplitude grid (closed form is unwieldy).
    """
    params = DoubleThresholdParams(k1=k1, k2=k2)
    amplitudes = params.k2 * np.geomspace(1.0 + 1e-9, 50.0, n_grid)
    best = None
    for x in amplitudes:
        val = neg_inv_relative_df_double(float(x), k1, k2)
        if best is None or val.real > best.real:
            best = val
    assert best is not None
    return best


def worst_case_amplitude(params: MarkingParams, n_grid: int = 4096) -> float:
    """Oscillation amplitude maximising the DF magnitude.

    For the relay the closed form is ``K sqrt(2)``; the hysteresis
    maximum is found on a geometric grid.
    """
    if isinstance(params, SingleThresholdParams):
        return params.k * math.sqrt(2.0)
    amplitudes = params.k2 * np.geomspace(1.0 + 1e-9, 20.0, n_grid)
    values = [
        abs(df_double_threshold(float(x), params.k1, params.k2))
        for x in amplitudes
    ]
    return float(amplitudes[int(np.argmax(values))])


def marker_factory(
    thresholds: Sequence[float], deadband: Optional[float] = None
) -> Callable[[], Marker]:
    """A fresh-marker factory for ``()``, ``(K,)`` or ``(K1, K2)``.

    ``deadband`` is DT-DCTCP's direction deadband in packets; left unset
    it is the default capped at an eighth of the gap, so narrow
    hysteresis bands do not degenerate into a single threshold.
    """
    if not thresholds:
        return NullMarker
    if len(thresholds) == 1:
        (k,) = thresholds
        return lambda: SingleThresholdMarker.from_threshold(k)
    k1, k2 = thresholds
    if deadband is None:
        deadband = min(DEFAULT_DIRECTION_DEADBAND, (k2 - k1) / 8.0)
    return lambda: DoubleThresholdMarker.from_thresholds(
        k1, k2, deadband=deadband
    )


def threshold_label(thresholds: Sequence[float]) -> str:
    """Display name for one marking configuration."""
    if len(thresholds) == 1:
        return f"K={thresholds[0]:g}"
    return f"K1={thresholds[0]:g},K2={thresholds[1]:g}"
