"""Unit tests for the Nyquist-plane machinery."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.core.nyquist import (
    default_amplitude_grid,
    default_frequency_grid,
    df_locus,
    find_intersections,
    locus_gap,
    min_curve_distance,
    phase_crossovers,
    plant_locus,
    principal_phase_crossover,
    winding_number,
)
from repro.core.parameters import (
    DoubleThresholdParams,
    SingleThresholdParams,
    paper_network,
)
from repro.core.stability import calibrate_gain_scale, stability_margin


@pytest.fixture
def net():
    return paper_network(60)


@pytest.fixture
def dc():
    return SingleThresholdParams(k=40.0)


@pytest.fixture
def dt():
    return DoubleThresholdParams(k1=30.0, k2=50.0)


class TestGrids:
    def test_frequency_grid_brackets_one_over_rtt(self, net):
        w = default_frequency_grid(net)
        assert w[0] < 1.0 / net.rtt < w[-1]
        assert np.all(np.diff(w) > 0)

    def test_amplitude_grid_starts_at_domain_edge(self, dc, dt):
        x_dc = default_amplitude_grid(dc)
        assert x_dc[0] > dc.k
        x_dt = default_amplitude_grid(dt)
        assert x_dt[0] > dt.k2


class TestLoci:
    def test_plant_locus_scales_with_gain(self, net, dc):
        _, base = plant_locus(net, dc)
        _, scaled = plant_locus(net, dc, loop_gain_scale=2.0)
        assert np.allclose(scaled, 2.0 * base)

    def test_plant_locus_uses_characteristic_gain(self, net, dc, dt):
        w = np.array([5000.0])
        _, v_dc = plant_locus(net, dc, w=w)
        _, v_dt = plant_locus(net, dt, w=w)
        # Same G(jw); only K0 differs: 1/40 vs 1/50.
        assert v_dc[0] / v_dt[0] == pytest.approx(50.0 / 40.0)

    def test_df_locus_single_on_real_axis(self, dc):
        _, values = df_locus(dc)
        assert np.all(values.real < 0.0)
        assert np.allclose(values.imag, 0.0)
        assert values.real.max() <= -math.pi + 1e-6

    def test_df_locus_double_above_real_axis(self, dt):
        _, values = df_locus(dt)
        assert np.all(values.real < 0.0)
        assert np.all(values.imag > 0.0)


class TestPhaseCrossovers:
    def test_finds_at_least_one_crossing(self, net, dc):
        crossings = phase_crossovers(net, dc)
        assert crossings
        for c in crossings:
            assert c.value.real < 0.0
            assert abs(c.value.imag) < 1e-6

    def test_principal_is_largest_magnitude(self, net, dc):
        crossings = phase_crossovers(net, dc)
        principal = principal_phase_crossover(net, dc)
        assert principal.magnitude == pytest.approx(
            max(c.magnitude for c in crossings)
        )

    def test_paper_parameters_crossover_magnitude(self, net, dc):
        """Literal Eq. 13-18 at N=60: |K0 G| ~ 0.58 at the crossover -
        the number that motivates the documented gain calibration."""
        principal = principal_phase_crossover(net, dc)
        assert principal.magnitude == pytest.approx(0.58, abs=0.02)

    def test_scaling_scales_crossover(self, net, dc):
        base = principal_phase_crossover(net, dc)
        scaled = principal_phase_crossover(net, dc, loop_gain_scale=3.0)
        assert scaled.magnitude == pytest.approx(3.0 * base.magnitude, rel=1e-6)
        assert scaled.frequency == pytest.approx(base.frequency, rel=1e-6)


#: Gain scales with no loop behind them: NaN and infinity turned every
#: locus sample into NaN (margin inf, "stable"), -1 flipped the locus
#: onto the DF locus (margin 1.8e-15) and 0 collapsed it (margin pi).
BAD_SCALES = [math.nan, math.inf, 0.0, -1.0]


class TestLoopGainScaleRefused:
    @pytest.mark.parametrize("bad", BAD_SCALES)
    def test_plant_locus(self, net, dc, bad):
        with pytest.raises(ValueError, match="^loop_gain_scale must be"):
            plant_locus(net, dc, loop_gain_scale=bad)

    @pytest.mark.parametrize("bad", BAD_SCALES)
    def test_locus_gap(self, net, dc, bad):
        with pytest.raises(ValueError, match="^loop_gain_scale must be"):
            locus_gap(net, dc, loop_gain_scale=bad)

    @pytest.mark.parametrize("bad", BAD_SCALES)
    def test_phase_crossovers(self, net, dc, bad):
        with pytest.raises(ValueError, match="^loop_gain_scale must be"):
            phase_crossovers(net, dc, loop_gain_scale=bad)

    @pytest.mark.parametrize("bad", BAD_SCALES)
    def test_find_intersections(self, net, dc, bad):
        with pytest.raises(ValueError, match="^loop_gain_scale must be"):
            find_intersections(net, dc, loop_gain_scale=bad)


class TestMinCurveDistance:
    def test_exact_for_known_points(self):
        a = np.array([0 + 0j, 1 + 1j])
        b = np.array([5 + 5j, 1 + 2j])
        dist, i, j = min_curve_distance(a, b)
        assert dist == pytest.approx(1.0)
        assert (i, j) == (1, 1)

    def test_zero_for_shared_point(self):
        a = np.array([1 + 1j, 2 + 2j])
        b = np.array([3 + 3j, 2 + 2j])
        assert min_curve_distance(a, b)[0] == 0.0

    def test_rejects_empty_curves(self):
        with pytest.raises(ValueError):
            min_curve_distance(np.array([]), np.array([1 + 1j]))

    def test_blockwise_matches_bruteforce(self):
        """Two clouds whose chunk boxes all overlap - nothing can be
        pruned - agree with the full matrix exactly, indices included."""
        rng = np.random.default_rng(7)
        a = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        b = rng.normal(size=777) + 1j * rng.normal(size=777)
        full = np.abs(a[:, None] - b[None, :])
        i, j = np.unravel_index(np.argmin(full), full.shape)
        assert min_curve_distance(a, b) == (full[i, j], i, j)

    def test_first_row_major_pair_wins_a_tie(self):
        a = np.array([4 + 0j, 1 + 0j, 1 + 0j])
        b = np.array([0j, 2 + 0j, 0j])
        assert min_curve_distance(a, b) == (1.0, 1, 0)


def _peak_bytes(call) -> int:
    call()  # fill the DF-locus table and scipy's lazy imports first
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """The deterministic guard that keeps the dense plant x DF distance
    field from coming back: it cost 31.4 MiB per margin (512-row blocks)
    and 183.2 MiB per intersection solve (all 4000 x 2000 pairs)."""

    LIMIT = 4 * 1024 * 1024

    def test_margin_and_intersections_stay_under_4_mib(self, dc):
        net = paper_network(55)
        scale = calibrate_gain_scale(paper_network(10), dc, onset_flows=60)
        margin = _peak_bytes(lambda: stability_margin(net, dc, scale))
        solve = _peak_bytes(
            lambda: find_intersections(net, dc, loop_gain_scale=scale)
        )
        assert margin <= self.LIMIT
        assert solve <= self.LIMIT


class TestIntersections:
    def test_none_at_literal_paper_gain(self, net, dc):
        assert find_intersections(net, dc) == []

    def test_two_limit_cycles_when_gain_sufficient(self, net, dc):
        roots = find_intersections(net, dc, loop_gain_scale=7.0)
        assert len(roots) == 2
        unstable, stable = roots
        assert unstable.amplitude < stable.amplitude
        assert unstable.stable_limit_cycle is False
        assert stable.stable_limit_cycle is True
        # Both above the DF domain edge.
        assert unstable.amplitude > dc.k
        # Residuals are genuine solutions of the characteristic equation.
        assert unstable.residual < 1e-6
        assert stable.residual < 1e-6

    def test_intersection_frequency_near_phase_crossover(self, net, dc):
        """For the real-axis DF locus, the oscillation frequency is the
        plant's phase-crossover frequency."""
        roots = find_intersections(net, dc, loop_gain_scale=7.0)
        crossover = principal_phase_crossover(net, dc, loop_gain_scale=7.0)
        for root in roots:
            assert root.frequency == pytest.approx(
                crossover.frequency, rel=1e-3
            )

    def test_dt_requires_larger_gain_than_dc(self, net, dc, dt):
        """DT-DCTCP's locus is harder to reach - the paper's Theorem 2
        conclusion expressed as intersection gain."""
        gain = 5.5
        assert find_intersections(net, dc, loop_gain_scale=gain)
        assert not find_intersections(net, dt, loop_gain_scale=gain)

    def test_period_property(self, net, dc):
        roots = find_intersections(net, dc, loop_gain_scale=7.0)
        root = roots[0]
        assert root.period == pytest.approx(2 * math.pi / root.frequency)


class TestWindingNumber:
    def test_unit_circle_around_origin(self):
        theta = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        circle = np.exp(1j * theta)
        assert winding_number(circle, 0 + 0j) == 1

    def test_clockwise_circle(self):
        theta = np.linspace(0, -2 * np.pi, 100, endpoint=False)
        assert winding_number(np.exp(1j * theta), 0 + 0j) == -1

    def test_point_outside(self):
        theta = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        assert winding_number(np.exp(1j * theta), 3 + 0j) == 0

    def test_double_wind(self):
        theta = np.linspace(0, 4 * np.pi, 200, endpoint=False)
        assert winding_number(np.exp(1j * theta), 0 + 0j) == 2

    def test_rejects_point_on_curve(self):
        with pytest.raises(ValueError):
            winding_number([1 + 0j, 2 + 0j], 1 + 0j)
