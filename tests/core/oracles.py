"""The dense plant x DF distance field, kept as the reference.

Until PR 17 ``repro.core.nyquist`` compared two sampled loci by
materialising the distance between every pair of samples - 4000 x 2000
complex differences per call.  These are those bodies verbatim: the
blockwise ``min_curve_distance`` and the candidate list
``find_intersections`` seeded its root search from (distance matrix ->
``min_dist`` -> ``threshold`` -> ``argwhere`` -> thinned seeds, as index
pairs instead of grid values).  Neither is selectable in ``src/``;
``test_nyquist_differential.py`` holds the pruned enumeration to them
with ``==``.
"""

import math

import numpy as np


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
