"""The campaign summary layer against its former bodies, bit for bit.

``tests/campaign/oracles.py`` holds the per-percentile ``aggregate_fcts``
and the ``dataclasses.asdict``-based ``to_dict``s verbatim.  Every float
is compared through ``float.hex`` and every value's exact type, so a
last-bit difference or a numpy scalar in place of a Python float is a
failure, not a tolerance; dicts are compared as ordered item lists, so
key order is checked too.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.campaign.driver as driver
from repro.campaign.aggregate import PERCENTILES, FctAggregate, aggregate_fcts
from repro.campaign.driver import CampaignResult, CellSummary, run_campaign
from repro.campaign.grid import CampaignGrid, CellCoord
from tests.campaign import oracles


def exact(value):
    """``value`` spelled by type and bits, recursing into containers."""
    if type(value) is float:
        return ("float", value.hex())
    if isinstance(value, dict):
        return ("dict", [(key, exact(item)) for key, item in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [exact(item) for item in value])
    return (type(value).__name__, value)


def assert_same_aggregate(fcts, n_started, percentiles=PERCENTILES):
    new = aggregate_fcts(fcts, n_started, percentiles)
    old = oracles.aggregate_fcts(fcts, n_started, percentiles)
    for field in dataclasses.fields(FctAggregate):
        assert exact(getattr(new, field.name)) == exact(
            getattr(old, field.name)
        ), field.name
    assert exact(new.to_dict()) == exact(oracles.fct_aggregate_to_dict(old))


def scribble(value):
    """Overwrite everything mutable reachable from ``value``."""
    if isinstance(value, dict):
        for key in list(value):
            scribble(value[key])
            value[key] = "scribbled"
    elif isinstance(value, list):
        for item in value:
            scribble(item)
        value.clear()


# -- aggregate_fcts ------------------------------------------------------

#: 1e-9 .. 1e3 seconds, spread over every decade between.
magnitudes = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(min_value=1.0, max_value=9.999),
    st.integers(min_value=-9, max_value=2),
)
#: Samples with many ties: a handful of values, each drawn many times.
tied = st.lists(magnitudes, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)
)
samples = st.one_of(
    st.lists(magnitudes, min_size=1, max_size=2),
    st.lists(magnitudes, min_size=1, max_size=400),
    tied,
    st.builds(lambda v, n: [v] * n, magnitudes, st.integers(1, 50)),
)
percentile_sets = st.one_of(
    st.just(PERCENTILES),
    st.just((99.0, 99.5)),
    st.just(()),
    st.lists(
        st.floats(min_value=0.0, max_value=100.0), max_size=6
    ).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(fcts=samples, censored=st.integers(0, 60), percentiles=percentile_sets)
def test_aggregate_matches_oracle(fcts, censored, percentiles):
    assert_same_aggregate(fcts, len(fcts) + censored, percentiles)


@settings(max_examples=200, deadline=None)
@given(fcts=samples, censored=st.integers(0, 60), base_fct=magnitudes)
def test_slowdown_array_matches_the_per_fct_list(fcts, censored, base_fct):
    """``run_campaign`` divides the pooled sample by the base FCT as one
    array; the per-FCT list it replaced gives the same bits, so both
    aggregates (sort, percentiles, pairwise mean) do too."""
    as_list = [fct / base_fct for fct in fcts]
    as_array = np.asarray(fcts, dtype=float) / base_fct
    assert [v.hex() for v in as_list] == [
        float(v).hex() for v in as_array
    ]
    n_started = len(fcts) + censored
    new = aggregate_fcts(as_array, n_started)
    old = aggregate_fcts(as_list, n_started)
    for field in dataclasses.fields(FctAggregate):
        assert exact(getattr(new, field.name)) == exact(
            getattr(old, field.name)
        ), field.name
    assert exact(new.to_dict()) == exact(old.to_dict())


@pytest.mark.parametrize(
    "fcts, n_started, percentiles",
    [
        ([], 0, PERCENTILES),
        ([], 5, PERCENTILES),
        ([], 5, ()),
        ([2.5e-4], 1, PERCENTILES),
        ([2.5e-4, 1e-9], 3, PERCENTILES),
        ([1.0] * 99, 100, (99.0, 99.5)),
        ([3e-3] * 7, 7, PERCENTILES),
        ([float(i) for i in range(1, 91)], 100, PERCENTILES),
        ([1.0, 2.0, 3.0], 3, ()),
        ([1.0, 2.0, 3.0], 3, (50, 50.0, 0, 100)),
    ],
)
def test_aggregate_matches_oracle_at_the_edges(fcts, n_started, percentiles):
    assert_same_aggregate(fcts, n_started, percentiles)


# -- the fabric-cold grid: 16 cells, 32 real aggregates ------------------


@pytest.fixture(scope="module")
def fabric_cold():
    """``(result, recorded aggregate_fcts arguments)`` of the 16-cell
    grid the ``fabric-cold`` ledger workload runs, seed 1."""
    grid = CampaignGrid(
        thresholds=((40.0,), (30.0, 50.0)),
        loads=(0.2, 0.4),
        fan_ins=(0, 8),
        scenarios=("buildup", "incast"),
        seeds=(1,),
        duration=0.008,
        warmup=0.0016,
    )
    calls = []
    real = driver.aggregate_fcts

    def recording(fcts, n_started, *args):
        calls.append((list(fcts), n_started) + args)
        return real(fcts, n_started, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "aggregate_fcts", recording)
        result = run_campaign(grid)
    return result, calls


def test_fabric_cold_aggregates_match_oracle(fabric_cold):
    _, calls = fabric_cold
    assert len(calls) == 32
    assert sum(1 for fcts, *_ in calls if fcts) == 32  # no empty cell
    for call in calls:
        assert_same_aggregate(*call)


def test_campaign_result_to_dict_matches_oracle(fabric_cold):
    result, _ = fabric_cold
    new, old = result.to_dict(), oracles.campaign_result_to_dict(result)
    assert exact(new) == exact(old)
    # What ``campaign --output`` and the ledger's digest serialise.
    assert json.dumps(new, indent=2, sort_keys=True) == json.dumps(
        old, indent=2, sort_keys=True
    )
    assert json.dumps(new) == json.dumps(old)
    for cell in result.cells:
        assert exact(cell.to_dict()) == exact(oracles.cell_summary_to_dict(cell))


def hand_built_result():
    """A result with what a real run rarely has: a cell whose every seed
    failed, a partial cell, a CUBIC row and a DT-DCTCP row."""
    grid = CampaignGrid(
        thresholds=((40.0,), (30.0, 50.0)),
        senders=("cubic", "dctcp"),
        loads=(0.3,),
        fan_ins=(2,),
        scenarios=("space-dc",),
        seeds=(4, 7),
    )
    nothing = aggregate_fcts([], 0)
    partial = aggregate_fcts([1e-3, 2e-3, 9e-3], 5)
    cells = [
        CellSummary(
            coord=coord, fct=fct, fct_slowdown=fct, missing_seeds=missing,
            mean_queue_pkts=queue, std_queue_pkts=queue, fabric_marks=3,
            fabric_drops=0, incast_timeouts=1, chaos_drops=2,
        )
        for coord, fct, missing, queue in zip(
            grid.coords(),
            (nothing, partial),
            ((4, 7), (7,)),
            (None, 12.25),
        )
    ]
    return CampaignResult(grid=grid, cells=cells)


def test_hand_built_result_to_dict_matches_oracle():
    result = hand_built_result()
    assert exact(result.to_dict()) == exact(
        oracles.campaign_result_to_dict(result)
    )


# -- copies, not aliases -------------------------------------------------


def test_mutating_a_returned_dict_leaves_the_summary_unchanged(fabric_cold):
    for result in (fabric_cold[0], hand_built_result()):
        before = exact(result.to_dict())
        for summary in (result, *result.cells, result.cells[0].fct):
            scribble(summary.to_dict())
        assert exact(result.to_dict()) == before
        assert exact(result.to_dict()) == exact(
            oracles.campaign_result_to_dict(result)
        )


# -- field census --------------------------------------------------------


def names(cls):
    return [field.name for field in dataclasses.fields(cls)]


def test_every_field_is_serialised_in_order():
    """A field added to a summary class appears in ``to_dict()`` - in
    declaration order, before the derived keys - or this fails."""
    result = hand_built_result()
    payload = result.to_dict()
    assert list(payload) == names(CampaignResult) + ["complete"]
    assert list(payload["grid"]) == names(CampaignGrid) + ["invariants"]
    for cell in payload["cells"]:
        assert list(cell) == names(CellSummary)
        # ``protocol`` is a derived field, declared last.
        assert list(cell["coord"]) == names(CellCoord)
        assert names(CellCoord)[-1] == "protocol"
        for aggregate in (cell["fct"], cell["fct_slowdown"]):
            assert list(aggregate) == names(FctAggregate)
