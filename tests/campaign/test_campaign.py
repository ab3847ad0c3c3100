"""Campaign driver end-to-end: determinism, caching, resume, censoring."""

import json

import pytest

from repro.campaign.aggregate import FctAggregate, aggregate_fcts
from repro.campaign.driver import run_campaign
from repro.campaign.grid import CampaignGrid
from repro.exec.cache import ResultCache
from repro.exec.cases import case_key, execute_case
from repro.exec.executor import SweepExecutor
from repro.sim.invariants import InvariantViolation, InvariantWatchdog
from repro.sim.node import Switch


def tiny_grid(**overrides):
    """Two seeds of one cell: small enough to run inline in a test."""
    defaults = dict(
        thresholds=((40.0,),),
        loads=(0.2,),
        fan_ins=(0,),
        scenarios=("buildup",),
        seeds=(1, 2),
        n_leaves=2,
        n_spines=1,
        hosts_per_leaf=1,
        duration=0.004,
        warmup=0.001,
    )
    defaults.update(overrides)
    return CampaignGrid(**defaults)


class TestAggregateFcts:
    def test_exact_percentiles_when_uncensored(self):
        fcts = [float(i) for i in range(1, 101)]
        agg = aggregate_fcts(fcts, n_started=100)
        assert agg.n_incomplete == 0
        assert agg.censoring_rate == 0.0
        assert agg.percentiles["50"] == pytest.approx(50.5)
        assert agg.percentiles["99"] == pytest.approx(99.01)
        assert not any(agg.lower_bound.values())
        assert agg.mean == pytest.approx(50.5)

    def test_censoring_flags_unidentifiable_percentiles(self):
        # 10 of 100 flows censored: p50 is exact, p95/p99 only bounds.
        fcts = [float(i) for i in range(1, 91)]
        agg = aggregate_fcts(fcts, n_started=100)
        assert agg.censoring_rate == pytest.approx(0.1)
        assert not agg.lower_bound["50"]
        assert agg.lower_bound["95"]
        assert agg.lower_bound["99"]

    def test_boundary_exactly_identifiable(self):
        # 1% censored: p99 sits exactly on the uncensored boundary and
        # stays identifiable; anything above it does not.
        agg = aggregate_fcts(
            [1.0] * 99, n_started=100, percentiles=(99.0, 99.5)
        )
        assert not agg.lower_bound["99"]
        assert agg.lower_bound["99.5"]

    def test_everything_censored(self):
        agg = aggregate_fcts([], n_started=5)
        assert agg.n_completed == 0
        assert agg.censoring_rate == 1.0
        assert agg.mean is None
        assert all(v is None for v in agg.percentiles.values())
        assert all(agg.lower_bound.values())

    def test_empty_cell(self):
        agg = aggregate_fcts([], n_started=0)
        assert agg.censoring_rate == 0.0
        assert all(v is None for v in agg.percentiles.values())
        assert not any(agg.lower_bound.values())

    def test_started_fewer_than_completed_raises(self):
        with pytest.raises(ValueError):
            aggregate_fcts([1.0, 2.0], n_started=1)

    def test_describe_marks_lower_bounds(self):
        agg = FctAggregate(
            n_started=10, n_completed=9, n_incomplete=1,
            censoring_rate=0.1, mean=2e-3,
            percentiles={"50": 1e-3, "99": 3.1e-3},
            lower_bound={"50": False, "99": True},
        )
        assert agg.describe("50") == "1.000ms"
        assert agg.describe("99") == ">=3.100ms"
        none = FctAggregate(
            n_started=1, n_completed=0, n_incomplete=1,
            censoring_rate=1.0, mean=None,
            percentiles={"50": None}, lower_bound={"50": True},
        )
        assert none.describe("50") == "n/a"


class TestRunCampaign:
    def test_inline_run_shape_and_censoring_accounting(self):
        grid = tiny_grid()
        result = run_campaign(grid)
        assert len(result.cells) == grid.n_cells == 1
        assert result.complete
        cell = result.cells[0]
        assert cell.missing_seeds == ()
        fct = cell.fct
        # Every launched flow is accounted for: completed + censored.
        assert fct.n_started == fct.n_completed + fct.n_incomplete
        assert fct.n_started > 0
        assert fct.percentiles["50"] is not None
        rows = result.table_rows()
        assert len(rows) == 1 and rows[0][0] == "K=40"

    def test_inline_rerun_identical(self):
        a = run_campaign(tiny_grid())
        b = run_campaign(tiny_grid())
        assert a.to_dict() == b.to_dict()

    def test_invariants_audit_runs_clean_and_read_only(self, monkeypatch):
        # Every cell audits itself after its run, with no flag or env
        # var; the audit must neither raise nor change an aggregate (it
        # only reads ledgers).
        checks = []
        real_check = InvariantWatchdog.check

        def counted_check(watchdog):
            checks.append(watchdog)
            real_check(watchdog)

        monkeypatch.setattr(InvariantWatchdog, "check", counted_check)
        audited = run_campaign(tiny_grid()).cells[0]
        assert len(checks) == tiny_grid().n_cases
        monkeypatch.setattr(InvariantWatchdog, "check", lambda self: None)
        plain = run_campaign(tiny_grid()).cells[0]
        assert audited.fct == plain.fct
        assert audited.mean_queue_pkts == plain.mean_queue_pkts
        assert audited.std_queue_pkts == plain.std_queue_pkts

    def test_corrupted_cell_fails_the_audit(self, monkeypatch):
        """A cell whose forwarding ledger is off by one when the window
        closes raises, without anyone having asked for an audit."""
        real_check = InvariantWatchdog.check

        def corrupt_then_check(watchdog):
            switch = next(
                n for n in watchdog.network.nodes if isinstance(n, Switch)
            )
            switch.packets_forwarded += 1
            real_check(watchdog)

        monkeypatch.setattr(InvariantWatchdog, "check", corrupt_then_check)
        with pytest.raises(InvariantViolation, match="forwarded"):
            execute_case(tiny_grid().expand()[0])


class TestExecutorIntegration:
    def test_warm_rerun_all_hits_and_identical(self, tmp_path):
        grid = tiny_grid()
        cold = SweepExecutor(cache=ResultCache(tmp_path / "cache"))
        first = run_campaign(grid, cold)
        stats = cold.report.stages[-1]
        assert stats.executed == grid.n_cases
        assert stats.cache_hits == 0

        warm = SweepExecutor(cache=ResultCache(tmp_path / "cache"))
        second = run_campaign(grid, warm)
        stats = warm.report.stages[-1]
        assert stats.cache_hits == grid.n_cases
        assert stats.executed == 0
        assert first.to_dict() == second.to_dict()

    def test_resume_reexecutes_only_missing_cell(self, tmp_path):
        """Checkpoint-resume: evict one seed's cache entry; the re-run
        must execute exactly that case and rebuild identical results."""
        grid = tiny_grid()
        cache = ResultCache(tmp_path / "cache")
        baseline = run_campaign(grid, SweepExecutor(cache=cache))

        victim = grid.expand()[0]
        key = case_key(victim)
        entry = cache.root / key[:2] / f"{key}.json"
        assert entry.is_file()
        entry.unlink()

        resumed = SweepExecutor(cache=ResultCache(tmp_path / "cache"))
        result = run_campaign(grid, resumed)
        stats = resumed.report.stages[-1]
        assert stats.executed == 1
        assert stats.cache_hits == grid.n_cases - 1
        assert result.to_dict() == baseline.to_dict()

    def test_skip_policy_reports_missing_seed(self, tmp_path):
        """A cell whose case result is a skip hole still aggregates the
        landed seeds and names the missing one."""
        import repro.campaign.driver as driver_mod

        grid = tiny_grid()
        cases = grid.expand()
        raw = [driver_mod.execute_cases([c], None)[0] for c in cases]
        raw[1] = None  # seed 2 failed and was skipped

        real_execute = driver_mod.execute_cases
        try:
            driver_mod.execute_cases = lambda cases, ex, stage="": raw
            result = run_campaign(grid)
        finally:
            driver_mod.execute_cases = real_execute

        cell = result.cells[0]
        assert cell.missing_seeds == (2,)
        assert not cell.complete
        assert not result.complete
        assert cell.fct.n_started > 0  # seed 1 still aggregated
        assert "seed(s) missing" in result.table_rows()[0][4]

    def test_cell_with_every_seed_failed_has_no_queue(self, monkeypatch):
        """No landed seed is no queue data: ``n/a`` in the table and
        ``null`` in the JSON, like the FCT percentiles beside it - not
        a perfectly steady empty queue."""
        import repro.campaign.driver as driver_mod

        monkeypatch.setattr(
            driver_mod, "execute_cases",
            lambda cases, ex, stage="": [None] * len(cases),
        )
        result = run_campaign(tiny_grid())

        cell = result.cells[0]
        assert cell.missing_seeds == (1, 2)
        assert cell.mean_queue_pkts is None
        assert cell.std_queue_pkts is None
        row = result.table_rows()[0]
        assert row[4] == "0/0 (2 seed(s) missing)"
        assert row[6:] == ("n/a",) * 6
        payload = json.loads(json.dumps(result.to_dict()))["cells"][0]
        assert payload["mean_queue_pkts"] is None
        assert payload["std_queue_pkts"] is None

    def test_pre_chaos_cached_payloads_still_aggregate(self):
        """Cache entries written before the chaos PR lack the new result
        keys; they must aggregate as zeros, not KeyError."""
        import repro.campaign.driver as driver_mod

        grid = tiny_grid()
        raw = [driver_mod.execute_cases([c], None)[0] for c in grid.expand()]
        for result in raw:
            del result["std_queue_pkts"]
            del result["chaos_drops"]

        real_execute = driver_mod.execute_cases
        try:
            driver_mod.execute_cases = lambda cases, ex, stage="": raw
            result = run_campaign(grid)
        finally:
            driver_mod.execute_cases = real_execute

        cell = result.cells[0]
        assert cell.complete
        assert cell.std_queue_pkts == 0.0
        assert cell.chaos_drops == 0


def space_dc_grid(**overrides):
    """One miniature space-DC cell: wide-area RTT, jitter, one flap.

    Scaled so the whole thing runs inline in a test — per-hop delay in
    the hundreds of microseconds instead of 25 ms, one 2 ms flap inside
    a 40 ms window.
    """
    defaults = dict(
        thresholds=((40.0,),),
        loads=(0.2,),
        fan_ins=(1,),
        scenarios=("space-dc",),
        seeds=(1,),
        n_leaves=2,
        n_spines=1,
        hosts_per_leaf=1,
        host_bandwidth_bps=1e9,
        fabric_bandwidth_bps=4e9,
        per_hop_delay=200e-6,
        duration=0.04,
        warmup=0.004,
        jitter_s=100e-6,
        flap_period=0.02,
        flap_down=0.002,
        flap_count=1,
    )
    defaults.update(overrides)
    return CampaignGrid(**defaults)


class TestSpaceDcCells:
    def test_chaos_cell_runs_and_reports_drops(self):
        result = run_campaign(space_dc_grid())
        cell = result.cells[0]
        assert cell.complete
        assert cell.fct.n_started > 0
        # The flap train really cut traffic: the fault layer consumed
        # packets, and the run survived to aggregate anyway.
        assert cell.chaos_drops > 0
        assert cell.std_queue_pkts >= 0.0

    def test_chaos_cell_rerun_identical(self):
        a = run_campaign(space_dc_grid())
        b = run_campaign(space_dc_grid())
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_the_chaos_realisation(self):
        a = run_campaign(space_dc_grid()).cells[0]
        b = run_campaign(space_dc_grid(seeds=(2,))).cells[0]
        assert (a.chaos_drops, a.fct.n_started) != (
            b.chaos_drops, b.fct.n_started,
        )

    def test_cubic_comparison_row(self):
        result = run_campaign(
            space_dc_grid(
                thresholds=((40.0,), (40.0,)),
                senders=("dctcp", "cubic"),
            )
        )
        rows = result.table_rows()
        assert [row[0] for row in rows] == ["K=40", "CUBIC"]
        assert all(len(row) == 12 for row in rows)

    def test_slowdown_normalises_by_base_fct(self):
        grid = space_dc_grid()
        result = run_campaign(grid)
        cell = result.cells[0]
        base_fct = (
            8.0 * grid.per_hop_delay
            + grid.flow_bytes * 8.0 / grid.host_bandwidth_bps
        )
        p50, slow50 = cell.fct.percentiles["50"], (
            cell.fct_slowdown.percentiles["50"]
        )
        if p50 is not None:
            assert slow50 == pytest.approx(p50 / base_fct)
            assert slow50 >= 1.0  # no flow beats the unloaded ideal
