"""What one warm replay and one cold run do, counted call by call.

Counting wrappers, not timers: each count below is exact, so a change
that puts a second hash, a ``stat`` before the ``open``, a per-put
``mkdir`` or an ``np.percentile`` back on these paths turns this red on
any machine, however fast.
"""

import collections
import hashlib
import os

import numpy as np
import pytest

import repro.exec.cache as cache_module
from repro.campaign.driver import run_campaign
from repro.campaign.grid import CampaignGrid
from repro.exec.cache import ResultCache
from repro.exec.cases import Case
from repro.exec.executor import SweepExecutor
from tests.executor.stub_experiment import EXPERIMENT


def four_cell_grid():
    """Four cells of one seed each, small enough to run inline."""
    return CampaignGrid(
        thresholds=((40.0,),),
        loads=(0.2, 0.4),
        fan_ins=(0, 8),
        scenarios=("buildup",),
        seeds=(1,),
        n_leaves=2,
        n_spines=1,
        hosts_per_leaf=2,
        duration=0.004,
        warmup=0.001,
    )


class Census:
    """Replaces callables with wrappers that count (and record the first
    argument of) every call, then calls through."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.counts = collections.Counter()
        self.args = collections.defaultdict(list)

    def count(self, owner, name, label, real=None):
        real = real if real is not None else getattr(owner, name)

        def counting(*args, **kwargs):
            self.counts[label] += 1
            self.args[label].append(args[0] if args else None)
            return real(*args, **kwargs)

        self.monkeypatch.setattr(owner, name, counting, raising=False)


@pytest.fixture(scope="module")
def warm_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("warm-census")
    grid = four_cell_grid()
    cold = SweepExecutor(cache=ResultCache(root))
    reference = run_campaign(grid, cold).to_dict()
    assert cold.report.stages[-1].executed == grid.n_cases == 4
    return root, reference


def test_warm_replay_does_each_piece_of_work_once(warm_root, monkeypatch):
    root, reference = warm_root
    grid = four_cell_grid()
    census = Census(monkeypatch)
    census.count(hashlib, "sha256", "sha256")
    census.count(cache_module, "open", "open", real=open)
    census.count(os, "stat", "stat")
    census.count(np, "percentile", "np.percentile")

    cache = ResultCache(root)
    executor = SweepExecutor(cache=cache)
    result = run_campaign(grid, executor)

    assert result.to_dict() == reference
    stage = executor.report.stages[-1]
    assert (stage.cache_hits, stage.executed) == (4, 0)
    # One hash per case: the one its construction made.
    assert census.counts["sha256"] == 4
    # One open per hit, each of a distinct entry, and no stat at all.
    keys = [case.key for case in grid.expand()]
    assert sorted(census.args["open"]) == sorted(
        str(cache._path(key)) for key in keys
    )
    assert census.counts["stat"] == 0
    # Two aggregates per cell, neither calling np.percentile.
    assert census.counts["np.percentile"] == 0


def test_cold_campaign_makes_one_mkdir_per_new_shard(tmp_path, monkeypatch):
    grid = four_cell_grid()
    shards = {case.key[:2] for case in grid.expand()}
    census = Census(monkeypatch)
    census.count(os, "mkdir", "mkdir")

    run_campaign(grid, SweepExecutor(cache=ResultCache(tmp_path)))

    assert sorted(census.args["mkdir"]) == sorted(
        os.path.join(tmp_path, shard) for shard in shards
    )


def test_puts_into_an_existing_shard_make_no_mkdir(tmp_path, monkeypatch):
    """Forty cases over 256 shards: some share one, and a put into a
    shard that exists costs no ``mkdir`` call."""
    cases = [
        Case(experiment=EXPERIMENT, label=f"x={x}", params={"x": x})
        for x in range(40)
    ]
    shards = {case.key[:2] for case in cases}
    assert len(shards) < len(cases)
    census = Census(monkeypatch)
    census.count(os, "mkdir", "mkdir")

    cache = ResultCache(tmp_path)
    SweepExecutor(cache=cache).run(cases)

    assert census.counts["mkdir"] == len(shards)
    assert all(cache.get(case) is not None for case in cases)
