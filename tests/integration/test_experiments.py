"""The paper's claims, one home each, at the scale ``--quick`` prints.

Every test asserts the *qualitative claim* the paper makes for a figure
on that figure's own ``run()`` at ``quick_scale()`` — the cells ``python
-m repro.cli figure all --quick`` (and CI's ``runner-smoke``) tabulate.
Each simulated sweep runs **once** per module, in a fixture shared by
its figure's tests and by the invariant audit: the paper pipe and the
deep pipe of Figures 10-12, Figure 14, Figure 15, the fluid validation.

This module is the only place these claims are asserted (ROADMAP item
1(e)); the claims beyond the paper's figures live in
``tests/claims/test_extensions.py``.

The tables themselves are pinned too: ``quick_tables/<stage id>.txt``
beside this file holds what every stage of the experiment index prints
at ``quick_scale()``, and :class:`TestQuickTables` compares bytes.  The
sweep fixtures and that test share one executor over a throwaway cache,
so a cell a fixture has run is a cache hit when its table is rendered.
A change that moves a digit shows the digit in its diff; the files are
rewritten only on purpose::

    PYTHONPATH=src python -m tests.integration.test_experiments
"""

import contextlib
import difflib
import io
import math
import pathlib
import tempfile

import pytest

from repro.core import stability
from repro.core.parameters import paper_dctcp, paper_network
from repro.core.stability import critical_flow_count, stability_margin
from repro.exec.cache import ResultCache
from repro.exec.executor import SweepExecutor
from repro.experiments import STAGES, quick_scale
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
from repro.sim import topology
from repro.sim.invariants import InvariantWatchdog


@contextlib.contextmanager
def audited(module, builder_name, interval):
    """Every network ``module`` builds gets an `InvariantWatchdog`
    ticking each ``interval`` simulated seconds; yields the watchdogs.

    A tick schedules one event of its own and touches no packet, so an
    audited figure's result equals the unaudited one field for field —
    which is what lets the audit ride on the one shared run.
    """
    real = getattr(topology, builder_name)
    watchdogs = []

    def build(*args, **kwargs):
        built = real(*args, **kwargs)
        watchdog = InvariantWatchdog(built.network)
        watchdog.start(interval)
        watchdogs.append(watchdog)
        return built

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, builder_name, build)
        yield watchdogs


QUICK_TABLES = pathlib.Path(__file__).with_name("quick_tables")


def render(stage, executor):
    """What ``figure <stage.id> --quick`` prints on stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        stage.run(quick_scale(), executor)
    return out.getvalue()


@pytest.fixture(scope="module")
def executor(tmp_path_factory):
    """Inline (the audit's patched builders run in this process), over a
    cache that lives as long as the module."""
    return SweepExecutor(cache=ResultCache(tmp_path_factory.mktemp("cells")))


@pytest.fixture(scope="module")
def fig01_audited(executor):
    with audited(fig01_oscillation, "dumbbell", interval=1e-3) as watchdogs:
        result = fig01_oscillation.run(
            quick_scale(), n_small=10, n_large=40, executor=executor
        )
    return result, watchdogs


@pytest.fixture(scope="module")
def paper_pipe_audited(executor):
    # One sweep backs Figures 10, 11 and 12 (10 Gbps, RTT 100 us).
    with audited(queue_sweep, "dumbbell", interval=1e-3) as watchdogs:
        sweep = queue_sweep.run(quick_scale(), executor=executor)
    return sweep, watchdogs


@pytest.fixture(scope="module")
def sweep(paper_pipe_audited):
    return paper_pipe_audited[0]


@pytest.fixture(scope="module")
def deep_pipe():
    """The same sweep at RTT 400 us, where R0*C ~ 333 packets keeps all
    of N = 10..100 ECN-controlled (on the paper's pipe every N > ~41
    sits on the minimum window - see EXPERIMENTS.md)."""
    return queue_sweep.run(quick_scale(), rtt=400e-6)


# Figures 14 and 15 simulate 60 s per query whatever happens, so their
# watchdogs tick coarsely: a collapsed point spends about a second in
# 200 ms RTOs and is still audited mid-stall.
@pytest.fixture(scope="module")
def incast_audited(executor):
    with audited(fig14_incast, "paper_testbed", interval=0.5) as watchdogs:
        result = fig14_incast.run(quick_scale(), executor=executor)
    return result, watchdogs


@pytest.fixture(scope="module")
def completion_audited(executor):
    with audited(
        fig15_completion_time, "paper_testbed", interval=0.5
    ) as watchdogs:
        result = fig15_completion_time.run(quick_scale(), executor=executor)
    return result, watchdogs


@pytest.fixture(scope="module")
def fluid_points(executor):
    return fluid_validation.run(
        quick_scale(), (10, 20, 30, 40), executor=executor
    )


class TestFig01:
    """N = 10 vs N = 40: the top of the ECN-controlled regime.

    On the paper's pipe (R0*C ~ 83 packets) flow counts beyond ~42 push
    every flow onto its minimum window; there the queue sits flat at
    ``N*w - BDP`` instead of oscillating (see EXPERIMENTS.md), so the
    growing-amplitude claim is asserted across the regime where DCTCP's
    operating point exists.
    """

    def test_large_n_oscillates_more(self, fig01_audited):
        result, _ = fig01_audited
        assert result.amplitude_large > 1.5 * result.amplitude_small
        assert result.std_large > result.std_small
        assert result.amplitude_ratio > 1.5

    def test_traces_returned(self, fig01_audited):
        result, _ = fig01_audited
        for times, queue in (result.trace_small, result.trace_large):
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
        """Closed form (Eq. 22 / 27) vs numeric Fourier integration vs
        the live marker objects, over the amplitudes Figure 6/8 prints."""
        for row in fig06_08_df.run():
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
        """Under the calibrated gain scale (``repro.core.stability``)
        DCTCP's loci intersect at some N, DT-DCTCP's never do, and
        DT-DCTCP's margin exceeds DCTCP's at every flow count of the
        figure's own grid, N = 10, 15, .. 100."""
        result = fig09_critical_n.run()
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
    """Both pipes, because the paper's own (R0*C ~ 83 packets) leaves the
    ECN-controlled regime at N ~ 42: past it the queue sits flat on the
    minimum window and only the deep pipe carries the "grows with N"
    claims to the top of the sweep."""

    def test_fig10_baselines_sane(self, sweep):
        # Both protocols regulate near the 40-packet setpoint at N=10.
        assert 25 < sweep.baseline("DCTCP") < 60
        assert 25 < sweep.baseline("DT-DCTCP") < 60

    def test_fig10_deep_pipe_inflation_is_bounded(self, deep_pipe):
        """Queue inflation with N is physics (more flows need more
        standing queue); the reproduction bounds it rather than ordering
        it - EXPERIMENTS.md records the deviation from the paper's
        flatness claim."""
        for name in ("DCTCP", "DT-DCTCP"):
            points = deep_pipe.points[name]
            assert points[-1].mean_queue > points[0].mean_queue
            assert deep_pipe.max_deviation(name) < 3.0

    def test_fig11_std_grows_with_n(self, sweep, deep_pipe):
        # Paper pipe: growth through the ECN-controlled regime (N = 10
        # to 30 here), before the flat minimum-window plateau.
        dc = [p.std_queue for p in sweep.points["DCTCP"]]
        assert dc[1] > dc[0]
        assert max(dc) > 1.5 * dc[0]
        # Deep pipe: growth over the whole sweep, for both protocols.
        assert deep_pipe.grows_with_n("DCTCP", "std_queue")
        assert deep_pipe.grows_with_n("DT-DCTCP", "std_queue")

    def test_fig11_dt_mostly_not_worse(self, sweep, deep_pipe):
        assert sweep.fraction_dt_not_worse() >= 0.7
        assert deep_pipe.fraction_dt_not_worse() >= 0.7

    def test_fig12_alpha_grows_with_n(self, sweep):
        assert sweep.grows_with_n("DCTCP", "mean_alpha")
        assert sweep.grows_with_n("DT-DCTCP", "mean_alpha")

    def test_fig12_dt_alpha_mostly_not_higher(self, sweep, deep_pipe):
        """The paper: DT-DCTCP's alpha stays at or below DCTCP's."""
        assert sweep.fraction_dt_not_higher() >= 0.7
        assert deep_pipe.fraction_dt_not_higher() >= 0.7

    def test_fig12_alpha_in_unit_interval(self, sweep, deep_pipe):
        for pipe in (sweep, deep_pipe):
            for points in pipe.points.values():
                for p in points:
                    assert 0.0 <= p.mean_alpha <= 1.0


class TestFig14:
    """The paper reports DCTCP collapsing at 32 synchronized flows and
    DT-DCTCP surviving to 37: a sharp collapse for both, DT-DCTCP's
    strictly later."""

    def test_collapse_ordering(self, incast_audited):
        result, _ = incast_audited
        dc = result.collapse_flows("DCTCP")
        dt = result.collapse_flows("DT-DCTCP")
        assert dc is not None
        # DT-DCTCP postpones the collapse (or escapes it in the sweep).
        assert dt is None or dt > dc

    def test_precollapse_goodput_near_line_rate(self, incast_audited):
        result, _ = incast_audited
        for points in result.points.values():
            assert points[0].goodput_bps > 0.9 * result.line_rate_bps


class TestFig15:
    """The paper reports ~10 ms completion until incast, then a ~20x
    jump (one 200 ms minimum RTO); DCTCP degrades earlier."""

    def test_completion_time_jump_is_one_min_rto(self, completion_audited):
        result, _ = completion_audited
        dc = result.points["DCTCP"]
        # Base completion ~ the 1 MB serialisation time.
        assert dc[0].mean_time == pytest.approx(result.base_time, rel=0.3)
        # DCTCP blows up somewhere in the sweep; DT-DCTCP no earlier.
        dc_blowup = result.blowup_flows("DCTCP")
        dt_blowup = result.blowup_flows("DT-DCTCP")
        assert dc_blowup is not None
        assert dt_blowup is None or dt_blowup >= dc_blowup
        # The jump is roughly one minimum RTO: at the blow-up point the
        # tail already pays it, and by the end of the sweep so does the
        # mean.
        post = [p for p in dc if p.n_flows >= dc_blowup]
        assert post[0].p99_time > 10 * result.base_time
        assert post[-1].mean_time > 10 * result.base_time
        # At 36 workers DCTCP has collapsed (~ +200 ms) and DT-DCTCP is
        # still faster.
        dc_36 = next(p for p in dc if p.n_flows == 36)
        dt_36 = next(
            p for p in result.points["DT-DCTCP"] if p.n_flows == 36
        )
        assert dc_36.mean_time > 0.15
        assert dt_36.mean_time < dc_36.mean_time

    def test_percentiles_ordered(self, completion_audited):
        result, _ = completion_audited
        for points in result.points.values():
            for p in points:
                assert p.median_time <= p.p95_time <= p.p99_time


class TestInvariantWatchdogOverExperiments:
    """The runtime watchdog audits the real figure pipelines clean.

    Every network a figure builds gets an `InvariantWatchdog` attached
    via its topology builder (:func:`audited`); conservation, custody
    and wedge ledgers must balance throughout each experiment.  Checks
    run *during* each network's run — an `InvariantViolation` from a
    periodic tick fails the figure's fixture, and with it every test of
    that figure — on the same runs the claims above are read from.
    """

    @staticmethod
    def _all_audited(watchdogs, expected_networks):
        assert len(watchdogs) == expected_networks
        assert all(w.checks_run > 1 for w in watchdogs)

    def test_fig01_dumbbells_audit_clean(self, fig01_audited):
        self._all_audited(fig01_audited[1], expected_networks=2)

    def test_queue_sweep_figures_audit_clean(self, paper_pipe_audited):
        # Figures 10-12 all measure through queue_sweep's dumbbells.
        flow_counts = quick_scale().flow_counts
        self._all_audited(
            paper_pipe_audited[1], expected_networks=2 * len(flow_counts)
        )

    def test_fig14_incast_testbeds_audit_clean(self, incast_audited):
        fan_ins = quick_scale().incast_flows
        self._all_audited(
            incast_audited[1], expected_networks=2 * len(fan_ins)
        )

    def test_fig15_completion_testbeds_audit_clean(self, completion_audited):
        fan_outs = quick_scale().completion_flows
        self._all_audited(
            completion_audited[1], expected_networks=2 * len(fan_outs)
        )


class TestFluidValidation:
    """The nonlinear DDE (Eq. 1-3) for both marking mechanisms: the
    paper's stability ordering at the fluid level, and the oscillation
    frequency in the band the DF analysis predicts."""

    def test_dt_std_below_dc_everywhere(self, fluid_points):
        for p in fluid_points:
            assert p.dt_std < p.dc_std
        # Oscillation does not die out with N within the valid regime.
        assert fluid_points[-1].dc_std > fluid_points[0].dc_std * 0.8

    def test_frequencies_in_plausible_band(self, fluid_points):
        # Oscillation periods of a few RTTs: w between ~1e3 and ~1e5.
        for p in fluid_points:
            assert 1e3 < p.dc_frequency < 1e5


class TestQuickTables:
    """Every stage of the experiment index prints, at ``quick_scale()``,
    exactly the committed ``quick_tables/<id>.txt``."""

    #: The fixture that has already run a sweep stage's cells.  Asking
    #: for it first keeps the audit on the one real run: a fixture that
    #: came second would read the cache and build no network to audit.
    RUN_BY = {
        "1": "fig01_audited",
        "10": "paper_pipe_audited",
        "11": "paper_pipe_audited",
        "12": "paper_pipe_audited",
        "14": "incast_audited",
        "15": "completion_audited",
        "fluid": "fluid_points",
    }

    def test_every_stage_has_exactly_one_file(self):
        on_disk = sorted(p.name for p in QUICK_TABLES.iterdir())
        assert on_disk == sorted(f"{stage.id}.txt" for stage in STAGES)

    @pytest.mark.parametrize("stage", STAGES, ids=lambda stage: stage.id)
    def test_table_is_byte_identical(
        self, stage, executor, request, quick_stage
    ):
        if stage.id in self.RUN_BY:
            request.getfixturevalue(self.RUN_BY[stage.id])
        expected = (QUICK_TABLES / f"{stage.id}.txt").read_text()
        if "executor" in stage.takes:
            printed = render(stage, executor)
        else:
            printed, _ = quick_stage(stage.id)
        assert printed == expected, "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                printed.splitlines(keepends=True),
                f"quick_tables/{stage.id}.txt",
                f"figure {stage.id} --quick",
            )
        )


if __name__ == "__main__":
    QUICK_TABLES.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as cells:
        shared = SweepExecutor(cache=ResultCache(pathlib.Path(cells)))
        for each in STAGES:
            (QUICK_TABLES / f"{each.id}.txt").write_text(render(each, shared))
            print(f"wrote quick_tables/{each.id}.txt")
