"""Workload inputs are a function of the seed; every workload runs green."""

import pytest

from ledger import harness, workloads

#: Share of the gated size each workload is run at here — a few percent,
#: except where the paper's qualitative claim needs the oscillation to
#: have developed before it can be checked.
TEST_SCALE = {
    "dumbbell-steady": 0.15,
    "incast-burst": 0.15,
    "fabric-cold": 0.05,
    "spacedc-chaos": 0.2,  # a packet needs 0.1 s simulated to cross the fabric once
    "sweep-replay": 0.03,
    "theory-fluid": 0.05,
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_deterministic_per_seed_and_different_across_seeds(name):
    assert workloads.build(name, 7).sizes == workloads.build(name, 7).sizes
    distinct = {repr(workloads.build(name, seed).sizes) for seed in range(1, 7)}
    assert len(distinct) > 1


def test_claim_pinning_inputs_survive_every_seed():
    for seed in range(1, 30):
        flows = [c["n_flows"] for c in workloads.build("dumbbell-steady", seed).sizes["cases"]]
        assert flows[0] == 10 and sum(flows[:4]) == 220
        flows = [c["n_flows"] for c in workloads.build("incast-burst", seed).sizes["cases"]]
        assert flows[2:5] == [34, 36, 40] and sum(flows[:5]) == 156


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_green_at_small_scale(name, tmp_path):
    result = harness.run_child(
        name, seed=3, scale=TEST_SCALE[name], passes=2, scratch_root=tmp_path
    )
    assert all(ok for _, ok, _ in result["checks"]), result["checks"]
    assert result["work"] > 0
    assert all(len(times) == 2 for times in result["unit_wall_s"].values())
    summary = harness.summarise([result])
    assert {m for m, _, _, _ in harness.END_TO_END} == set(summary)
    assert all(entry["value"] > 0 for entry in summary.values())
    assert not list(tmp_path.iterdir())  # scratch removed


@pytest.mark.parametrize("name", ["fabric-cold", "sweep-replay", "theory-fluid"])
def test_traced_pass_matches_untraced_digest_and_reports_every_layer_metric(
    name, tmp_path
):
    plain = harness.run_child(name, seed=3, scale=TEST_SCALE[name], scratch_root=tmp_path)
    traced = harness.run_child(
        name, seed=3, scale=TEST_SCALE[name], traced=True, scratch_root=tmp_path
    )
    assert traced["result_digest"] == plain["result_digest"]
    assert all(ok for _, ok, _ in traced["checks"]), traced["checks"]
    wall = harness.summarise([plain])["wall_s"]["value"]
    metrics = harness.layer_metrics(traced, wall)
    assert list(metrics) == [name for name, _, _, _ in harness.PER_LAYER]
    attempted, failed, _ = harness.tally([plain, traced])
    assert failed == 0 and attempted > 0
