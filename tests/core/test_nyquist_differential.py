"""The pruned locus comparison against the dense distance field.

``repro.core.nyquist`` no longer evaluates all ``len(a) * len(b)``
sample pairs; it bounds both curves by per-chunk boxes and evaluates
only the chunk pairs that can matter.  The answers must be the dense
field's exactly - ``==`` on floats and indices, never ``approx`` -
because the minimising pair is where Nelder-Mead starts and the seed
order decides which root's digits survive.  ``tests/core/oracles.py``
holds the dense bodies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import nyquist
from repro.core.nyquist import (
    _CHUNK,
    _contact_seeds,
    df_locus,
    find_intersections,
    min_curve_distance,
    plant_locus,
)
from repro.core.parameters import (
    DoubleThresholdParams,
    paper_dctcp,
    paper_dt_dctcp,
    paper_network,
)
from repro.core.stability import calibrate_gain_scale
from tests.core.oracles import dense_contact_seeds, dense_min_curve_distance

BASE = paper_network(10)
CALIBRATED = calibrate_gain_scale(BASE, paper_dctcp(), onset_flows=60)


def assert_same_as_dense(a: np.ndarray, b: np.ndarray) -> None:
    assert min_curve_distance(a, b) == dense_min_curve_distance(a, b)
    assert _contact_seeds(a, b) == dense_contact_seeds(a, b)


def assert_same_roots(monkeypatch, net, params, scale) -> None:
    """``find_intersections`` returns what it would seeded densely."""
    got = find_intersections(net, params, loop_gain_scale=scale)
    with monkeypatch.context() as patch:
        patch.setattr(nyquist, "_contact_seeds", dense_contact_seeds)
        want = find_intersections(net, params, loop_gain_scale=scale)
    assert got == want


# ----------------------------------------------------------------------
# The loci the experiments actually compare.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scale", [1.0, CALIBRATED], ids=["literal", "calibrated"])
@pytest.mark.parametrize("n_flows", [10, 45, 55, 60, 100])
@pytest.mark.parametrize("params", [paper_dctcp(), paper_dt_dctcp()], ids=["dc", "dt"])
def test_paper_loci(monkeypatch, params, n_flows, scale):
    net = BASE.with_flows(n_flows)
    _, plant_vals = plant_locus(net, params, loop_gain_scale=scale)
    _, df_vals = df_locus(params)
    assert_same_as_dense(plant_vals, df_vals)
    assert_same_roots(monkeypatch, net, params, scale)


@pytest.mark.parametrize("gap", [10.0, 20.0, 30.0])
@pytest.mark.parametrize("g", [1 / 32, 1 / 4])
def test_sensitivity_gaps(monkeypatch, g, gap):
    net = paper_network(55, g=g)
    params = DoubleThresholdParams(k1=40.0 - gap / 2, k2=40.0 + gap / 2)
    _, plant_vals = plant_locus(net, params, loop_gain_scale=CALIBRATED)
    _, df_vals = df_locus(params)
    assert_same_as_dense(plant_vals, df_vals)
    assert_same_roots(monkeypatch, net, params, CALIBRATED)


def test_calibrated_dctcp_has_seeds_and_roots():
    """The comparisons above are not vacuous: below the onset the dense
    field yields several seeds and two roots."""
    net = BASE.with_flows(55)
    _, plant_vals = plant_locus(net, paper_dctcp(), loop_gain_scale=CALIBRATED)
    _, df_vals = df_locus(paper_dctcp())
    assert len(dense_contact_seeds(plant_vals, df_vals)) > 2
    assert len(find_intersections(net, paper_dctcp(), CALIBRATED)) == 2


# ----------------------------------------------------------------------
# Curves drawn to break the pruning: ties, ragged chunks, overlap.
# ----------------------------------------------------------------------

#: Coordinates on a 0.05 lattice: exact ties and duplicated points are
#: common, and neighbouring lattice points are within the 0.2 seed
#: radius of each other (4 steps exactly on it, up to rounding).
STEP = 0.05
lattice = st.tuples(st.integers(-12, 12), st.integers(-12, 12))


def _points(pairs) -> np.ndarray:
    return np.array([complex(x * STEP, y * STEP) for x, y in pairs])


@st.composite
def clouds(draw, max_size=150):
    """Unordered points: every chunk box overlaps every other."""
    return _points(draw(st.lists(lattice, min_size=1, max_size=max_size)))


@st.composite
def walks(draw, max_size=3 * _CHUNK + 7):
    """A connected lattice walk: compact chunk boxes the pruning can
    separate, with a length that is rarely a multiple of ``_CHUNK``."""
    x, y = draw(st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
    steps = draw(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            min_size=0, max_size=max_size - 1,
        )
    )
    pairs = [(x, y)]
    for dx, dy in steps:
        x, y = x + dx, y + dy
        pairs.append((x, y))
    return _points(pairs)


@settings(max_examples=150, deadline=None)
@given(a=st.one_of(clouds(), walks()), b=st.one_of(clouds(), walks()))
def test_drawn_curves(a, b):
    assert_same_as_dense(a, b)


@settings(max_examples=50, deadline=None)
@given(a=walks(), shift=st.tuples(st.integers(0, 6), st.integers(0, 6)))
def test_a_walk_against_its_shifted_copy(a, shift):
    """Long runs of equal distances: the first row-major pair wins."""
    assert_same_as_dense(a, a + complex(shift[0] * STEP, shift[1] * STEP))


def test_large_overlapping_clouds():
    """The pruning's worst case at size: no chunk pair can be dropped,
    and thousands of pairs sit inside the seed radius."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=2000) + 1j * rng.normal(size=2000)
    b = rng.normal(size=777) + 1j * rng.normal(size=777)
    assert_same_as_dense(a, b)


def test_single_point_curves():
    a = np.array([0.3 + 0.1j])
    b = np.array([0.3 + 0.2j])
    assert min_curve_distance(a, b) == (abs(a[0] - b[0]), 0, 0)
    assert _contact_seeds(a, b) == [(0, 0)]
    assert_same_as_dense(a, b)
    long = np.linspace(-3.0, 3.0, 2 * _CHUNK + 1) + 0j
    assert_same_as_dense(a, long)
    assert_same_as_dense(long, b)


def test_duplicated_points_first_row_major_index_wins():
    a = np.array([1 + 1j, 0j, 0j, 2 + 0j] * (_CHUNK // 2 + 1))
    b = np.array([5 + 0j, 0j, 0j])
    assert min_curve_distance(a, b) == (0.0, 1, 1)
    assert_same_as_dense(a, b)
    assert_same_as_dense(b, a)


def test_pair_exactly_on_the_seed_radius_is_a_seed():
    """The box gap equals the radius here: pruning must keep ``<=``."""
    a = np.array([0j])
    b = np.array([0.2 + 0j])
    assert min_curve_distance(a, b) == (0.2, 0, 0)
    assert _contact_seeds(a, b) == dense_contact_seeds(a, b) == [(0, 0)]


def test_curves_everywhere_farther_apart_than_the_seed_radius():
    t = np.linspace(0.0, 1.0, 3 * _CHUNK + 5)
    a = t + 0j
    b = t + 0.2000001j
    assert _contact_seeds(a, b) == dense_contact_seeds(a, b) == []
    assert min_curve_distance(a, b) == dense_min_curve_distance(a, b)
    net = paper_network(10)  # margin 2.5 at the literal gain
    assert find_intersections(net, paper_dctcp()) == []
