"""Integration tests for the experiment harness (one per paper figure).

Each test runs the figure's ``run()`` at a test-sized scale and asserts
the *qualitative claim* the paper makes for that figure.  The benchmark
suite runs the same code at larger scales.
"""

import math

import pytest

from repro.core import stability
from repro.core.parameters import paper_dctcp, paper_network
from repro.core.stability import critical_flow_count, stability_margin
from repro.experiments import quick_scale
from repro.experiments.config import Scale
from repro.experiments import (
    fig01_oscillation,
    fig02_marking,
    fig04_criterion,
    fig06_08_df,
    fig07_nyquist_loci,
    fig09_critical_n,
    fig14_incast,
    fig15_completion_time,
    fluid_validation,
    queue_sweep,
)


def tiny_scale() -> Scale:
    return Scale(
        sim_duration=0.012,
        warmup=0.005,
        sample_interval=20e-6,
        flow_counts=(10, 40),
        n_queries=3,
        incast_flows=(16, 36),
        completion_flows=(16, 36),
        fluid_duration=0.03,
    )


class TestFig01:
    def test_large_n_oscillates_more(self):
        result = fig01_oscillation.run(tiny_scale(), n_small=10, n_large=40)
        assert result.amplitude_large > result.amplitude_small
        assert result.std_large > result.std_small
        assert result.amplitude_ratio > 1.0

    def test_traces_returned(self):
        result = fig01_oscillation.run(tiny_scale(), n_small=5, n_large=20)
        times, queue = result.trace_small
        assert len(times) == len(queue) > 100


class TestFig02:
    def test_marking_edges(self):
        dc, dt = fig02_marking.run()
        # DCTCP starts and stops at K on both slopes.
        assert dc.mark_start_level == pytest.approx(40.0, abs=1.0)
        assert dc.mark_stop_level == pytest.approx(40.0, abs=1.0)
        # DT-DCTCP starts at K1 rising and stops at K2 falling.
        assert dt.mark_start_level == pytest.approx(30.0, abs=1.0)
        assert dt.mark_stop_level == pytest.approx(50.0, abs=1.0)

    def test_dt_shifts_marking_earlier_at_equal_duty(self):
        """On a symmetric excursion with K1/K2 straddling K evenly, DT
        marks the *same fraction* of packets as DCTCP - just earlier on
        the way up and done earlier on the way down.  That is exactly
        the paper's 'K1 and K2 share the load of K'."""
        dc, dt = fig02_marking.run()
        assert dt.marked_fraction == pytest.approx(
            dc.marked_fraction, abs=0.02
        )
        assert dt.mark_start_level < dc.mark_start_level
        assert dt.mark_stop_level > dc.mark_stop_level


class TestFig04:
    def test_trichotomy(self):
        cases = fig04_criterion.run()
        classifications = [c.classification for c in cases]
        assert classifications[0] == "stable"
        assert "limit cycle" in classifications
        # Margins shrink as gain grows until intersection.
        assert cases[0].margin > cases[1].margin


class TestFig0608:
    def test_all_three_routes_agree(self):
        rows = fig06_08_df.run(amplitude_ratios=(1.1, 2.0), n_samples=2048)
        for row in rows:
            assert row.numeric_error < 1e-3
            assert row.marker_error < 1e-3

    def test_both_mechanisms_present(self):
        rows = fig06_08_df.run(amplitude_ratios=(1.5,), n_samples=1024)
        assert {r.mechanism for r in rows} == {"DCTCP", "DT-DCTCP"}


class TestFig07:
    def test_geometry_claims(self):
        dc, dt = fig07_nyquist_loci.run()
        # DCTCP: locus on the real axis, rightmost point at -pi.
        assert dc.df_rightmost.real == pytest.approx(-math.pi, rel=1e-3)
        assert dc.df_max_imag == pytest.approx(0.0, abs=1e-9)
        # DT-DCTCP: strictly positive imaginary part.
        assert dt.df_min_imag > 0.0
        assert dt.df_rightmost.imag > 0.0


class TestFig09:
    def test_dt_more_stable_at_every_n(self):
        result = fig09_critical_n.run(flow_counts=(10, 30, 50, 60, 80, 100))
        assert result.dt_margin_always_larger
        assert result.dc_critical_n is not None
        assert result.dt_critical_n is None

    def test_calibration_scale_plausible(self):
        result = fig09_critical_n.run(flow_counts=(10, 60))
        assert 4.0 < result.loop_gain_scale < 7.0

    def test_each_margin_is_computed_once(self, monkeypatch):
        """Both onsets are read off the margins the table already holds:
        2 mechanisms x 3 flow counts = 6 calls (11 when the onsets went
        back through ``critical_flow_count``), same onsets."""
        calls = []

        def counting(net, params, loop_gain_scale=1.0):
            calls.append((type(params).__name__, net.n_flows))
            return stability_margin(net, params, loop_gain_scale)

        monkeypatch.setattr(fig09_critical_n, "stability_margin", counting)
        monkeypatch.setattr(stability, "stability_margin", counting)
        flows = (101, 11, 56)  # deliberately unsorted
        result = fig09_critical_n.run(flow_counts=flows)
        assert len(calls) == len(set(calls)) == 6
        assert result.dc_critical_n == 56 == critical_flow_count(
            paper_network(10), paper_dctcp(), flows, result.loop_gain_scale
        )
        assert result.dt_critical_n is None


class TestFig10to12:
    @pytest.fixture(scope="class")
    def sweep(self):
        # One sweep backs all three figures.
        return queue_sweep.run(tiny_scale())

    def test_fig10_baselines_sane(self, sweep):
        # Both protocols regulate near the 40-packet setpoint at N=10.
        assert 25 < sweep.baseline("DCTCP") < 60
        assert 25 < sweep.baseline("DT-DCTCP") < 60

    def test_fig11_std_grows_with_n(self, sweep):
        assert sweep.grows_with_n("DCTCP", "std_queue")

    def test_fig11_dt_mostly_not_worse(self, sweep):
        assert sweep.fraction_dt_not_worse() >= 0.5

    def test_fig12_alpha_grows_with_n(self, sweep):
        assert sweep.grows_with_n("DCTCP", "mean_alpha")
        assert sweep.grows_with_n("DT-DCTCP", "mean_alpha")

    def test_fig12_alpha_in_unit_interval(self, sweep):
        for points in sweep.points.values():
            for p in points:
                assert 0.0 <= p.mean_alpha <= 1.0


class TestFig14:
    def test_collapse_ordering(self):
        """DT-DCTCP postpones (or avoids) the collapse DCTCP suffers."""
        scale = tiny_scale()
        result = fig14_incast.run(scale, flow_counts=(16, 35, 36))
        dc = result.collapse_flows("DCTCP")
        dt = result.collapse_flows("DT-DCTCP")
        assert dc is not None
        assert dt is None or dt >= dc

    def test_precollapse_goodput_near_line_rate(self):
        scale = tiny_scale()
        result = fig14_incast.run(scale, flow_counts=(16,))
        for points in result.points.values():
            assert points[0].goodput_bps > 0.9e9


class TestFig15:
    def test_completion_time_jump_is_one_min_rto(self):
        scale = tiny_scale()
        result = fig15_completion_time.run(scale, flow_counts=(16, 36))
        dc = result.points["DCTCP"]
        # Pre-collapse ~ base time; post-collapse ~ +200 ms.
        assert dc[0].mean_time == pytest.approx(result.base_time, rel=0.3)
        assert dc[1].mean_time > 0.15
        # DT-DCTCP still fast at the fan-out where DCTCP collapsed.
        dt = result.points["DT-DCTCP"]
        assert dt[1].mean_time < dc[1].mean_time

    def test_percentiles_ordered(self):
        scale = tiny_scale()
        result = fig15_completion_time.run(scale, flow_counts=(16,))
        for points in result.points.values():
            p = points[0]
            assert p.median_time <= p.p95_time <= p.p99_time


class TestInvariantWatchdogOverExperiments:
    """The runtime watchdog audits the real figure pipelines clean.

    Every network a figure builds gets an `InvariantWatchdog` attached
    via its topology builder; conservation, custody, pool and wedge
    ledgers must balance throughout each experiment.

    Checks run *during* each network's run (an `InvariantViolation`
    from a periodic tick fails the figure), not after: the pool counter
    is process-global, so a post-hoc audit of an earlier network would
    misread the next network's in-flight packets as a leak.
    """

    def _audited(self, monkeypatch, module, builder_name, interval):
        from repro.sim import topology
        from repro.sim.invariants import InvariantWatchdog

        real = getattr(topology, builder_name)
        watchdogs = []

        def build(*args, **kwargs):
            built = real(*args, **kwargs)
            watchdog = InvariantWatchdog(built.network)
            watchdog.start(interval)
            watchdogs.append(watchdog)
            return built

        monkeypatch.setattr(module, builder_name, build)
        return watchdogs

    def _all_audited(self, watchdogs, expected_networks):
        assert len(watchdogs) == expected_networks
        assert all(w.checks_run > 1 for w in watchdogs)

    def test_fig01_dumbbells_audit_clean(self, monkeypatch):
        watchdogs = self._audited(
            monkeypatch, fig01_oscillation, "dumbbell", interval=1e-3
        )
        fig01_oscillation.run(tiny_scale(), n_small=5, n_large=20)
        self._all_audited(watchdogs, expected_networks=2)

    def test_queue_sweep_figures_audit_clean(self, monkeypatch):
        # Figures 10-12 all measure through queue_sweep's dumbbells.
        watchdogs = self._audited(
            monkeypatch, queue_sweep, "dumbbell", interval=1e-3
        )
        queue_sweep.run(tiny_scale())
        self._all_audited(watchdogs, expected_networks=4)

    def test_fig14_incast_testbeds_audit_clean(self, monkeypatch):
        watchdogs = self._audited(
            monkeypatch, fig14_incast, "paper_testbed", interval=50e-3
        )
        fig14_incast.run(tiny_scale(), flow_counts=(16,))
        self._all_audited(watchdogs, expected_networks=2)

    def test_fig15_completion_testbeds_audit_clean(self, monkeypatch):
        watchdogs = self._audited(
            monkeypatch, fig15_completion_time, "paper_testbed",
            interval=50e-3,
        )
        fig15_completion_time.run(tiny_scale(), flow_counts=(16,))
        self._all_audited(watchdogs, expected_networks=2)


class TestFluidValidation:
    def test_dt_std_below_dc_everywhere(self):
        points = fluid_validation.run(tiny_scale(), flow_counts=(10, 20))
        for p in points:
            assert p.dt_std < p.dc_std

    def test_frequencies_in_plausible_band(self):
        points = fluid_validation.run(tiny_scale(), flow_counts=(10,))
        # Oscillation periods of a few RTTs: w between ~1e3 and ~1e5.
        assert 1e3 < points[0].dc_frequency < 1e5
