"""Tests for the classical gain/phase/delay margins."""

import math

import pytest

from repro.core.margins import classical_margins
from repro.core.parameters import (
    DoubleThresholdParams,
    SingleThresholdParams,
    paper_dctcp,
    paper_network,
)
from repro.core.stability import calibrate_gain_scale

DC = SingleThresholdParams(k=40.0)
DT = DoubleThresholdParams(k1=30.0, k2=50.0)


@pytest.fixture(scope="module")
def scale():
    return calibrate_gain_scale(paper_network(10), DC, onset_flows=60)


class TestWorstCaseAmplitude:
    def test_relay_closed_form(self):
        assert DC.worst_case_amplitude() == pytest.approx(40.0 * math.sqrt(2))

    def test_hysteresis_numeric(self):
        x = DT.worst_case_amplitude()
        assert DT.k2 < x < 3 * DT.k2

    def test_degenerate_hysteresis_matches_relay(self):
        x = DoubleThresholdParams(k1=40.0, k2=40.0).worst_case_amplitude()
        assert x == pytest.approx(40.0 * math.sqrt(2), rel=0.01)


class TestMargins:
    def test_stable_at_small_n(self, scale):
        margins = classical_margins(
            paper_network(10), DC, loop_gain_scale=scale
        )
        assert margins.stable
        assert margins.gain_margin > 1.2
        assert margins.phase_margin_deg > 10.0
        assert margins.delay_margin > 0.0

    def test_gain_margin_near_one_at_calibration(self, scale):
        """The calibration makes N=60 the tangency: GM ~ 1."""
        margins = classical_margins(
            paper_network(60), DC, loop_gain_scale=scale
        )
        assert margins.gain_margin == pytest.approx(1.0, abs=0.02)

    def test_dt_margins_dominate_dc(self, scale):
        """Theorem 2, margin edition: DT wins on every margin."""
        for n in (10, 40, 60, 100):
            net = paper_network(n)
            dc = classical_margins(net, DC, loop_gain_scale=scale)
            dt = classical_margins(net, DT, loop_gain_scale=scale)
            assert dt.gain_margin > dc.gain_margin
            if dc.phase_margin_deg is not None and dt.phase_margin_deg is not None:
                assert dt.phase_margin_deg >= dc.phase_margin_deg - 1e-6

    def test_gain_margin_scales_inversely_with_loop_gain(self):
        net = paper_network(40)
        small = classical_margins(net, DC, loop_gain_scale=1.0)
        large = classical_margins(net, DC, loop_gain_scale=2.0)
        assert small.gain_margin == pytest.approx(
            2.0 * large.gain_margin, rel=1e-3
        )

    def test_delay_margin_fraction_of_rtt_near_onset(self, scale):
        """Close to the oscillation onset the loop tolerates only a small
        extra delay - the DF story told in time units."""
        margins = classical_margins(
            paper_network(40), DC, loop_gain_scale=scale
        )
        assert margins.delay_margin is not None
        assert margins.delay_margin < paper_network(40).rtt

    def test_phase_margin_normalised(self, scale):
        for n in (10, 40, 60, 100):
            margins = classical_margins(
                paper_network(n), DC, loop_gain_scale=scale
            )
            if margins.phase_margin_deg is not None:
                assert -180.0 < margins.phase_margin_deg <= 180.0

    def test_explicit_amplitude_respected(self):
        net = paper_network(20)
        margins = classical_margins(net, DC, amplitude=100.0)
        assert margins.amplitude == 100.0
        # Larger amplitude -> smaller DF gain -> bigger gain margin.
        worst = classical_margins(net, DC)
        assert margins.gain_margin > worst.gain_margin

    def test_gain_margin_db(self):
        margins = classical_margins(paper_network(10), DC)
        assert margins.gain_margin_db == pytest.approx(
            20 * math.log10(margins.gain_margin)
        )


class TestRefusedGainScale:
    """A scale that is not positive and finite is refused, as the loci
    refuse it: NaN, infinity and zero all read as an infinite gain
    margin (a "stable" loop), and -1 as the margin of a sign-flipped
    loop."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_positive_or_non_finite_scale(self, bad):
        with pytest.raises(ValueError, match="loop_gain_scale"):
            classical_margins(
                paper_network(30), paper_dctcp(), loop_gain_scale=bad
            )
