"""Unit tests for Theorems 1 and 2 (repro.core.stability)."""

import math

import pytest

from repro.core.parameters import (
    DoubleThresholdParams,
    SingleThresholdParams,
    paper_network,
)
from repro.core.stability import (
    analyze,
    calibrate_gain_scale,
    critical_flow_count,
    predicted_limit_cycle,
    stability_margin,
    sufficient_condition_holds,
)

DC = SingleThresholdParams(k=40.0)
DT = DoubleThresholdParams(k1=30.0, k2=50.0)


@pytest.fixture(scope="module")
def calibrated_scale():
    """Figure 9's convention: DCTCP locus touches its DF locus at N=60."""
    return calibrate_gain_scale(paper_network(10), DC, onset_flows=60)


class TestSufficientCondition:
    def test_holds_at_literal_paper_gain(self):
        # Uncalibrated Eq. 13-18 never reach -pi: always stable.
        for n in (10, 60, 100):
            assert sufficient_condition_holds(paper_network(n), DC)
            assert sufficient_condition_holds(paper_network(n), DT)

    def test_fails_at_large_gain(self):
        assert not sufficient_condition_holds(
            paper_network(60), DC, loop_gain_scale=10.0
        )

    def test_condition_is_conservative_for_dt(self):
        """The binary condition compares real-axis landmarks only, so at
        gain 6 it fails for *both* mechanisms - yet only DCTCP actually
        intersects.  The margin (and intersections) are the sharp test;
        this documents why.
        """
        from repro.core.nyquist import find_intersections

        net = paper_network(60)
        gain = 6.0
        assert not sufficient_condition_holds(net, DC, loop_gain_scale=gain)
        assert not sufficient_condition_holds(net, DT, loop_gain_scale=gain)
        assert find_intersections(net, DC, loop_gain_scale=gain)
        assert not find_intersections(net, DT, loop_gain_scale=gain)


class TestStabilityMargin:
    def test_positive_at_literal_gain(self):
        assert stability_margin(paper_network(60), DC) > 0.5

    def test_decreases_with_gain(self):
        net = paper_network(60)
        margins = [
            stability_margin(net, DC, loop_gain_scale=s) for s in (1.0, 3.0, 5.0)
        ]
        assert margins[0] > margins[1] > margins[2]

    def test_zero_at_calibration_point(self, calibrated_scale):
        margin = stability_margin(
            paper_network(60), DC, loop_gain_scale=calibrated_scale
        )
        assert margin == pytest.approx(0.0, abs=1e-4)

    def test_dt_margin_exceeds_dc_margin_at_every_n(self, calibrated_scale):
        """The reproduction's core analytic claim (Figure 9)."""
        for n in range(10, 101, 10):
            net = paper_network(n)
            dc_m = stability_margin(net, DC, loop_gain_scale=calibrated_scale)
            dt_m = stability_margin(net, DT, loop_gain_scale=calibrated_scale)
            assert dt_m > dc_m

    def test_least_stable_near_n55(self, calibrated_scale):
        """The margin-vs-N curve dips around N ~ 55 - the uncalibrated
        shape that lines up with the paper's onset claim."""
        margins = {
            n: stability_margin(
                paper_network(n), DC, loop_gain_scale=calibrated_scale
            )
            for n in (10, 55, 100)
        }
        assert margins[55] < margins[10]
        assert margins[55] < margins[100]


class TestLoopGainScaleRefused:
    """Every verdict goes through the loci, which refuse the scale."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_stability_margin(self, bad):
        with pytest.raises(ValueError, match="^loop_gain_scale must be"):
            stability_margin(paper_network(60), DC, loop_gain_scale=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_analyze(self, bad):
        with pytest.raises(ValueError, match="^loop_gain_scale must be"):
            analyze(paper_network(60), DC, loop_gain_scale=bad)


class TestLimitCycle:
    def test_none_when_stable(self):
        assert predicted_limit_cycle(paper_network(60), DC) is None

    def test_predicted_when_gain_large(self):
        cycle = predicted_limit_cycle(
            paper_network(60), DC, loop_gain_scale=7.0
        )
        assert cycle is not None
        assert cycle.stable_limit_cycle is True
        assert cycle.amplitude > DC.k
        # Period of a few RTTs - the timescale of DCTCP queue oscillation.
        assert 2 < cycle.period / 100e-6 < 20

    def test_amplitude_grows_with_gain(self):
        net = paper_network(60)
        small = predicted_limit_cycle(net, DC, loop_gain_scale=6.0)
        large = predicted_limit_cycle(net, DC, loop_gain_scale=9.0)
        assert small is not None and large is not None
        assert large.amplitude > small.amplitude


class TestCriticalFlowCount:
    def test_none_when_never_unstable(self):
        assert (
            critical_flow_count(paper_network(10), DC, range(10, 101, 10))
            is None
        )

    def test_dc_has_onset_dt_does_not(self, calibrated_scale):
        flows = range(10, 101, 5)
        dc_onset = critical_flow_count(
            paper_network(10), DC, flows, calibrated_scale
        )
        dt_onset = critical_flow_count(
            paper_network(10), DT, flows, calibrated_scale
        )
        assert dc_onset is not None
        assert 40 <= dc_onset <= 60
        assert dt_onset is None

    def test_returns_smallest_unstable_n(self, calibrated_scale):
        flows = [100, 50, 10]  # deliberately unsorted
        onset = critical_flow_count(
            paper_network(10), DC, flows, calibrated_scale
        )
        assert onset == 50


class TestCalibration:
    def test_non_finite_onset_names_the_field(self):
        """Regression: a NaN onset used to surface as "plant locus has
        no negative-real-axis crossing"."""
        with pytest.raises(ValueError, match="^n_flows must be positive"):
            calibrate_gain_scale(paper_network(10), DC, onset_flows=math.nan)

    def test_scale_reproduces_figure9_convention(self, calibrated_scale):
        # Crossover magnitude 0.58 -> scale ~ pi / 0.58 ~ 5.4.
        assert calibrated_scale == pytest.approx(math.pi / 0.58, rel=0.02)

    def test_analyze_bundles_everything(self, calibrated_scale):
        report = analyze(paper_network(50), DC, loop_gain_scale=calibrated_scale)
        assert report.margin == pytest.approx(0.0, abs=5e-3)
        assert not report.sufficient_condition
        assert report.crossover is not None
        if report.oscillation_predicted:
            assert report.predicted_amplitude > DC.k
            assert report.predicted_frequency > 0

    @pytest.mark.parametrize(
        "n_flows, predicted, has_root",
        [(45, True, True), (55, True, True), (59, True, True),
         (60, True, False), (61, False, False)],
    )
    def test_analyze_agrees_with_the_onset_at_the_tangency(
        self, calibrated_scale, n_flows, predicted, has_root
    ):
        """N = 60 is the calibration point: the loci are tangent, the
        margin is ~1e-14, fsolve finds no transversal root - and
        ``critical_flow_count`` calls it an oscillation.  So must
        ``analyze``; N = 61 (margin 2.3e-3) stays stable."""
        report = analyze(paper_network(n_flows), DC, calibrated_scale)
        assert report.oscillation_predicted is predicted
        assert bool(report.intersections) is has_root
        assert (report.predicted_amplitude is not None) is has_root
        onset = critical_flow_count(
            paper_network(10), DC, [n_flows], calibrated_scale
        )
        assert (onset is not None) is predicted

    def test_analyze_stable_case(self):
        report = analyze(paper_network(10), DC)
        assert report.sufficient_condition
        assert report.margin > 0.0
        assert not report.oscillation_predicted
        assert report.predicted_amplitude is None
        assert report.predicted_frequency is None
