"""Nyquist-plane machinery for the describing-function criterion.

The stability story of Section IV-B plays out on the complex plane: the
plant locus ``K0 G(jw)`` (frequency-parametrised) and the DF locus
``-1/N0(X)`` (amplitude-parametrised) are two curves; an intersection is
a candidate limit cycle and its ``(X, w)`` solve the characteristic
equation ``K0 G(jw) = -1/N0(X)`` (Eq. 9/19/24).

This module computes the loci, the real-axis (phase-crossover) points,
the minimum distance between the two curves (a continuous *stability
margin*: zero means a predicted self-oscillation), exact intersections by
root finding, and winding numbers for the textbook encirclement test of
Figure 4.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.describing_function import neg_inv_relative_df
from repro.core.marking import MarkingParams
from repro.core.parameters import NetworkParams
from repro.core.transfer_function import open_loop

__all__ = [
    "PhaseCrossover",
    "default_frequency_grid",
    "default_amplitude_grid",
    "plant_locus",
    "df_locus",
    "phase_crossovers",
    "principal_phase_crossover",
    "min_curve_distance",
    "locus_gap",
    "LocusIntersection",
    "find_intersections",
    "winding_number",
]


@dataclasses.dataclass(frozen=True)
class PhaseCrossover:
    """A point where the plant locus crosses the negative real axis."""

    frequency: float  #: angular frequency w (rad/s)
    value: complex  #: locus value there (imaginary part ~ 0, real part < 0)

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def default_frequency_grid(
    net: NetworkParams, n_points: int = 4000, decades_below: float = 1.5,
    decades_above: float = 2.0,
) -> np.ndarray:
    """Log-spaced angular frequencies bracketing the plant's dynamics.

    Centred on ``1/R0`` — the fastest plant pole and the scale of the
    feedback delay — which is where the phase crossover lives.
    """
    center = 1.0 / net.rtt
    return np.geomspace(
        center / 10**decades_below, center * 10**decades_above, n_points
    )


def default_amplitude_grid(
    params: MarkingParams, n_points: int = 2000, max_ratio: float = 50.0
) -> np.ndarray:
    """Log-spaced oscillation amplitudes for the DF locus.

    Starts just above the DF's domain edge (``K`` or ``K2``) where
    ``-1/N0`` diverges, and extends to ``max_ratio`` times it.
    """
    return params.amplitude_floor * np.geomspace(1.0 + 1e-6, max_ratio, n_points)


def _scaled_gain(params: MarkingParams, loop_gain_scale: float) -> float:
    """``K0 * scale``: the one place the loop-gain knob enters the loci.

    A scale that is not positive and finite is refused: NaN or infinity
    leaves no finite locus sample, which the margin reads as "no
    oscillation", and a zero or negative scale collapses or flips the
    locus into a verdict about a different loop.
    """
    if not (loop_gain_scale > 0 and math.isfinite(loop_gain_scale)):
        raise ValueError(
            f"loop_gain_scale must be positive and finite, got {loop_gain_scale}"
        )
    return params.characteristic_gain * loop_gain_scale


def plant_locus(
    net: NetworkParams,
    params: MarkingParams,
    w: Optional[np.ndarray] = None,
    loop_gain_scale: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(w, K0 * scale * G(jw))`` samples of the plant locus."""
    gain = _scaled_gain(params, loop_gain_scale)
    if w is None:
        w = default_frequency_grid(net)
    return w, np.asarray(gain * open_loop(w, net))


def df_locus(
    params: MarkingParams, amplitudes: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``(X, -1/N0(X))`` samples of the describing-function locus.

    On the default amplitude grid the samples depend on ``params`` alone,
    and a Figure 9 sweep asks for the same two loci at every flow count;
    they come from a small per-``params`` table as read-only arrays that
    every caller shares (copy before writing).
    """
    if amplitudes is None:
        return _default_df_locus(params)
    return amplitudes, np.array(
        [neg_inv_relative_df(params, float(x)) for x in amplitudes]
    )


@functools.lru_cache(maxsize=32)
def _default_df_locus(params: MarkingParams) -> Tuple[np.ndarray, np.ndarray]:
    """The table behind :func:`df_locus`: ~48 KB per entry, frozen so no
    caller can change what the next one reads."""
    locus = df_locus(params, default_amplitude_grid(params))
    for samples in locus:
        samples.setflags(write=False)
    return locus


def locus_gap(
    net: NetworkParams, params: MarkingParams, loop_gain_scale: float = 1.0
) -> Callable[[float, float], complex]:
    """``(w, X) -> K0 * scale * G(jw) + 1/N0(X)``: the two loci's separation.

    The left side of the characteristic equation; its roots are the
    intersections and the minimum of its modulus is the stability margin.
    """
    gain = _scaled_gain(params, loop_gain_scale)
    return lambda w, x: (
        gain * complex(open_loop(w, net)) - neg_inv_relative_df(params, x)
    )


def phase_crossovers(
    net: NetworkParams,
    params: MarkingParams,
    w: Optional[np.ndarray] = None,
    loop_gain_scale: float = 1.0,
) -> List[PhaseCrossover]:
    """All negative-real-axis crossings of the scaled plant locus.

    Found by bracketing sign changes of the imaginary part on the grid
    and refining each with Brent's method.  The feedback delay makes the
    phase wind indefinitely, so there are infinitely many crossings at
    ever-smaller magnitude; only those within the grid are returned,
    sorted by frequency.
    """
    from scipy import optimize

    gain = _scaled_gain(params, loop_gain_scale)
    if w is None:
        w = default_frequency_grid(net, n_points=20000)

    def locus_at(freq: float) -> complex:
        return gain * complex(open_loop(freq, net))

    values = gain * open_loop(w, net)
    imag = values.imag
    crossings: List[PhaseCrossover] = []
    sign_change = np.where(np.diff(np.signbit(imag)))[0]
    for i in sign_change:
        try:
            w_star = optimize.brentq(
                lambda freq: locus_at(freq).imag, w[i], w[i + 1], xtol=1e-6
            )
        except ValueError:
            continue
        val = locus_at(w_star)
        if val.real < 0.0:
            crossings.append(PhaseCrossover(frequency=float(w_star), value=val))
    return crossings


def principal_phase_crossover(
    net: NetworkParams,
    params: MarkingParams,
    loop_gain_scale: float = 1.0,
) -> Optional[PhaseCrossover]:
    """The largest-magnitude negative-real-axis crossing.

    This is the point that first reaches the DF locus as the loop gain
    grows, so Theorem 1's sufficient condition reduces to comparing its
    real part against ``max(-1/N0)``.
    """
    crossings = phase_crossovers(net, params, loop_gain_scale=loop_gain_scale)
    if not crossings:
        return None
    return max(crossings, key=lambda c: c.magnitude)


#: Consecutive samples per bounding box when two curves are compared.
#: Anything from 32 to 128 costs the same on the 4000 x 2000 default
#: grids; smaller boxes prune more pairs but add Python-level blocks.
_CHUNK = 64

#: A box gap bounds the distances it stands for in exact arithmetic; in
#: floats the two sides can disagree by a few ulps of ``hypot``.  Boxes
#: are discarded only beyond ``radius * _GAP_SLACK``, far outside that.
_GAP_SLACK = 1.0 + 1e-9


def _chunk_boxes(z: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``(starts, re_min, re_max, im_min, im_max)`` per ``_CHUNK`` samples."""
    starts = np.arange(0, len(z), _CHUNK)
    re, im = z.real, z.imag
    return (
        starts,
        np.minimum.reduceat(re, starts),
        np.maximum.reduceat(re, starts),
        np.minimum.reduceat(im, starts),
        np.maximum.reduceat(im, starts),
    )


def _near_blocks(
    a: np.ndarray, b: np.ndarray, radius: float
) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Exact pair distances wherever two sampled curves may be within ``radius``.

    Both curves are cut into chunks of ``_CHUNK`` consecutive samples and
    each chunk is bounded by an axis-aligned box.  No point of one box is
    nearer to a point of another than the gap between the boxes, so a
    chunk pair whose gap exceeds ``radius`` holds no pair within
    ``radius`` and is never evaluated.  For the smooth loci compared here
    that leaves ~1e-3 of the ``len(a) * len(b)`` pairs; for two clouds
    whose boxes all overlap it leaves all of them, in ``_CHUNK``-row
    blocks.

    Yields ``(row_start, cols, dist)`` per surviving chunk of ``a``, in
    ascending order: ``dist[r, c] == np.abs(a[row_start + r] - b[cols[c]])``
    with ``cols`` ascending.  Walking the blocks in order and each block
    row-major therefore visits pairs in the row-major order of the full
    ``len(a) x len(b)`` distance matrix, and every distance is the
    complex128 expression that matrix would hold - both are part of the
    result: :func:`min_curve_distance` and :func:`find_intersections`
    break ties by that order, and a distance recomputed any other way
    (``sqrt(dx**2 + dy**2)``, a KD-tree) differs in the last ulp.

    Every pair within ``radius`` is in some block; pairs beyond it may
    be too.
    """
    a_starts, a_re0, a_re1, a_im0, a_im1 = _chunk_boxes(a)
    b_starts, b_re0, b_re1, b_im0, b_im1 = _chunk_boxes(b)
    d_re = np.maximum(a_re0[:, None] - b_re1[None, :], b_re0[None, :] - a_re1[:, None])
    d_im = np.maximum(a_im0[:, None] - b_im1[None, :], b_im0[None, :] - a_im1[:, None])
    gap = np.hypot(np.maximum(d_re, 0.0), np.maximum(d_im, 0.0))
    keep = ~(gap > radius * _GAP_SLACK)
    b_lengths = np.diff(np.append(b_starts, len(b)))
    for chunk in np.flatnonzero(keep.any(axis=1)):
        start = int(a_starts[chunk])
        cols = np.flatnonzero(np.repeat(keep[chunk], b_lengths))
        yield start, cols, np.abs(a[start : start + _CHUNK, None] - b[None, cols])


def min_curve_distance(
    a: np.ndarray, b: np.ndarray
) -> Tuple[float, int, int]:
    """Minimum pointwise distance between two sampled complex curves.

    Returns ``(distance, index_a, index_b)``.  When several pairs attain
    the minimum, the first in row-major order wins (smallest
    ``index_a``, then smallest ``index_b``): that pair is where
    :func:`repro.core.stability.stability_margin` starts its polish.

    One sample per chunk of each curve gives an upper bound of the
    minimum; only chunk pairs whose boxes are at most that far apart can
    hold it (see :func:`_near_blocks`).
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("min_curve_distance requires non-empty curves")
    bound = float(np.abs(a[::_CHUNK, None] - b[None, ::_CHUNK]).min())
    best = math.inf
    best_i = best_j = 0
    for start, cols, d in _near_blocks(a, b, bound):
        row, col = np.unravel_index(np.argmin(d), d.shape)
        if d[row, col] < best:
            best = float(d[row, col])
            best_i = start + int(row)
            best_j = int(cols[col])
    return best, best_i, best_j


#: A plant/DF sample pair farther apart than this never seeds a root
#: search, and curves nowhere closer have no intersection to polish.
_SEED_RADIUS = 0.2


def _contact_seeds(
    plant_vals: np.ndarray, df_vals: np.ndarray
) -> List[Tuple[int, int]]:
    """Index pairs ``(i, j)`` of near-contact samples to polish roots from.

    Candidates are the pairs within ``min(0.2, max(0.02, 3 * min_dist))``,
    thinned to the first (row-major) per 50 x 25 cell of the index plane
    so fsolve is not run thousands of times, in order of first
    appearance.  The order matters: the first seed to converge on a root
    is the one whose digits are kept.  Empty when the curves never come
    within ``_SEED_RADIUS`` - the loop is comfortably stable.
    """
    none = np.empty(0, dtype=int)
    near = [(none, none, np.empty(0))]
    for start, cols, d in _near_blocks(plant_vals, df_vals, _SEED_RADIUS):
        rows, hits = np.nonzero(d <= _SEED_RADIUS)
        near.append((start + rows, cols[hits], d[rows, hits]))
    i, j, dist = (np.concatenate(part) for part in zip(*near))
    if dist.size == 0:
        return []
    close = dist <= min(_SEED_RADIUS, max(0.02, float(dist.min()) * 3.0))
    i, j = i[close], j[close]
    cell = (i // 50) * (len(df_vals) // 25 + 1) + j // 25
    _, first = np.unique(cell, return_index=True)
    return [(int(i[k]), int(j[k])) for k in np.sort(first)]


@dataclasses.dataclass(frozen=True)
class LocusIntersection:
    """A solution of the characteristic equation ``K0 G(jw) = -1/N0(X)``."""

    amplitude: float  #: predicted queue-oscillation amplitude X (packets)
    frequency: float  #: predicted oscillation angular frequency w (rad/s)
    residual: float  #: |K0 G(jw) + 1/N0(X)| at the solution
    stable_limit_cycle: Optional[bool] = None  #: per Figure 4's perturbation test

    @property
    def period(self) -> float:
        """Oscillation period in seconds."""
        return 2.0 * math.pi / self.frequency


def find_intersections(
    net: NetworkParams,
    params: MarkingParams,
    loop_gain_scale: float = 1.0,
    residual_tol: float = 1e-6,
) -> List[LocusIntersection]:
    """Solve the characteristic equation by 2-D root finding.

    Seeds come from near-contact points of the sampled curves; each seed
    is polished with a hybrid Powell solve of the two real equations
    Re/Im of ``K0 * scale * G(jw) + 1/N0(X) = 0`` in (log w, log X).
    Duplicate roots are merged.  An empty list means the DF method
    predicts no limit cycle.
    """
    from scipy import optimize

    w_grid, plant_vals = plant_locus(net, params, loop_gain_scale=loop_gain_scale)
    x_grid, df_vals = df_locus(params)
    gap = locus_gap(net, params, loop_gain_scale)
    x_min = params.amplitude_floor * (1.0 + 1e-9)

    def equations(vars_: np.ndarray) -> np.ndarray:
        # Clamp the log-space variables: fsolve may probe wild values
        # while it searches, and exp() must not overflow.
        log_w = min(max(vars_[0], -40.0), 40.0)
        log_x = min(max(vars_[1], -40.0), 40.0)
        w = math.exp(log_w)
        x = max(math.exp(log_x), x_min)
        val = gap(w, x)
        return np.array([val.real, val.imag])

    seeds = [
        (float(w_grid[i]), float(x_grid[j]))
        for i, j in _contact_seeds(plant_vals, df_vals)
    ]

    roots: List[LocusIntersection] = []
    for w0, x0 in seeds:
        sol, info, ier, _ = optimize.fsolve(
            equations,
            np.array([math.log(w0), math.log(x0)]),
            full_output=True,
            xtol=1e-12,
        )
        if ier != 1:
            continue
        w_star = math.exp(sol[0])
        x_star = math.exp(sol[1])
        residual = float(np.hypot(*equations(sol)))
        if residual > residual_tol or x_star < x_min or w_star <= 0:
            continue
        duplicate = any(
            abs(r.frequency - w_star) < 1e-3 * w_star
            and abs(r.amplitude - x_star) < 1e-3 * x_star
            for r in roots
        )
        if not duplicate:
            roots.append(
                LocusIntersection(
                    amplitude=x_star, frequency=w_star, residual=residual
                )
            )
    roots.sort(key=lambda r: r.amplitude)
    if len(roots) == 2:
        # Figure 4's perturbation argument for a convex real-axis DF locus:
        # the smaller-amplitude intersection (entering the plant locus) is
        # the unstable limit cycle, the larger-amplitude one is stable.
        roots = [
            dataclasses.replace(roots[0], stable_limit_cycle=False),
            dataclasses.replace(roots[1], stable_limit_cycle=True),
        ]
    return roots


def winding_number(curve: Sequence[complex], point: complex) -> int:
    """Winding number of a sampled closed curve around ``point``.

    Implements the encirclement count of the Nyquist criterion
    (Figure 4): the curve is treated as a closed polygon (last sample
    joined back to the first) and the total signed angle swept around
    ``point`` is accumulated.
    """
    pts = np.asarray(curve, dtype=complex) - point
    if np.any(np.abs(pts) == 0.0):
        raise ValueError("winding number undefined: curve passes through point")
    angles = np.angle(pts)
    closed = np.append(angles, angles[0])
    steps = np.diff(closed)
    steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
    total = float(np.sum(steps))
    return int(round(total / (2.0 * math.pi)))
