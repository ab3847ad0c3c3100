"""Tests for the declarative scenario runner."""

import pytest

from repro.sim.scenario import Scenario, ScenarioResult, run_scenario


def quick(**overrides):
    spec = dict(duration=0.01, warmup=0.004, n_flows=4)
    spec.update(overrides)
    return Scenario(**spec)


class TestScenarioValidation:
    def test_defaults_valid(self):
        Scenario()

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            Scenario(protocol="vegas")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            Scenario(workload="mapreduce")

    def test_warmup_must_precede_duration(self):
        with pytest.raises(ValueError):
            Scenario(duration=0.01, warmup=0.02)

    def test_threshold_arity_enforced(self):
        with pytest.raises(ValueError):
            Scenario(protocol="dt-dctcp", thresholds=(40.0,))
        with pytest.raises(ValueError):
            Scenario(protocol="dctcp", thresholds=(30.0, 50.0))

    def test_from_dict_round_trip(self):
        spec = {
            "protocol": "dt-dctcp",
            "thresholds": [30, 50],
            "n_flows": 7,
        }
        scenario = Scenario.from_dict(spec)
        assert scenario.protocol == "dt-dctcp"
        assert scenario.thresholds == (30, 50)
        assert scenario.n_flows == 7

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict({"bandwidth": 1e9})


class TestBulkScenarios:
    def test_dctcp_bulk(self):
        result = run_scenario(quick())
        assert isinstance(result, ScenarioResult)
        assert 20 < result.mean_queue < 70
        assert result.goodput_bps > 9e9
        assert result.marks > 0
        assert result.mean_alpha is not None

    def test_dt_dctcp_bulk_steadier(self):
        dc = run_scenario(quick(n_flows=10))
        dt = run_scenario(
            quick(protocol="dt-dctcp", thresholds=(30, 50), n_flows=10)
        )
        assert dt.std_queue < dc.std_queue

    def test_reno_bulk_drops(self):
        result = run_scenario(quick(protocol="reno"))
        assert result.marks == 0
        assert result.mean_alpha is None

    def test_sack_flag_propagates(self):
        result = run_scenario(quick(use_sack=True))
        assert result.goodput_bps > 9e9


class TestQueryScenarios:
    def test_incast_below_collapse(self):
        result = run_scenario(
            Scenario(
                workload="incast",
                protocol="dctcp",
                thresholds=(32 * 1024 / 1500,),
                n_flows=12,
                bandwidth_bps=1e9,
                n_queries=3,
            )
        )
        assert result.goodput_bps > 0.9e9
        assert len(result.completion_times) == 3

    def test_partition_aggregate_splits_transfer(self):
        result = run_scenario(
            Scenario(
                workload="partition-aggregate",
                protocol="dctcp",
                thresholds=(32 * 1024 / 1500,),
                n_flows=8,
                bandwidth_bps=1e9,
                transfer_bytes=1024 * 1024,
                n_queries=2,
            )
        )
        # ~8.4 ms ideal for 1 MB at 1 Gbps.
        assert all(0.008 < t < 0.02 for t in result.completion_times)


class TestInvariantsWiring:
    """The opt-in watchdog audits every workload without changing it."""

    def incast_spec(self):
        return Scenario(
            workload="incast",
            protocol="dctcp",
            thresholds=(32 * 1024 / 1500,),
            n_flows=8,
            bandwidth_bps=1e9,
            n_queries=2,
        )

    def test_bulk_audits_clean_and_results_unchanged(self):
        plain = run_scenario(quick())
        audited = run_scenario(quick(), invariants=True)
        # The watchdog only reads state: identical statistics, to the bit.
        assert audited == plain

    def test_dt_dctcp_bulk_audits_clean(self):
        spec = quick(protocol="dt-dctcp", thresholds=(30.0, 50.0))
        assert run_scenario(spec, invariants=True) == run_scenario(spec)

    def test_incast_audits_clean_and_results_unchanged(self):
        plain = run_scenario(self.incast_spec())
        audited = run_scenario(self.incast_spec(), invariants=True)
        assert audited == plain

    def test_partition_aggregate_audits_clean(self):
        spec = Scenario(
            workload="partition-aggregate",
            protocol="dctcp",
            thresholds=(32 * 1024 / 1500,),
            n_flows=6,
            bandwidth_bps=1e9,
            transfer_bytes=256 * 1024,
            n_queries=1,
        )
        assert run_scenario(spec, invariants=True) == run_scenario(spec)
