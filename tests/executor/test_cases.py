"""Unit tests for the Case model and the content-addressed key."""

import dataclasses
import importlib
import pickle

import pytest

from repro.exec.cases import Case, case_key, execute_case
from tests.executor import oracles
from tests.executor.stub_experiment import EXPERIMENT


def make_case(x=1, label="a", experiment=EXPERIMENT, **extra):
    return Case(experiment=experiment, label=label, params={"x": x, **extra})


class TestCase:
    def test_params_must_be_json_serialisable(self):
        with pytest.raises(ValueError):
            Case(experiment=EXPERIMENT, label="bad", params={"x": object()})

    def test_experiment_required(self):
        with pytest.raises(ValueError):
            Case(experiment="", label="x", params={})

    def test_repr_names_experiment_and_label(self):
        assert "stub_experiment" in repr(make_case())


class TestCaseKey:
    def test_stable_across_param_ordering(self):
        a = Case(experiment=EXPERIMENT, label="", params={"x": 1, "y": 2})
        b = Case(experiment=EXPERIMENT, label="", params={"y": 2, "x": 1})
        assert case_key(a) == case_key(b)

    def test_label_does_not_enter_key(self):
        assert case_key(make_case(label="a")) == case_key(make_case(label="b"))

    def test_params_enter_key(self):
        assert case_key(make_case(x=1)) != case_key(make_case(x=2))

    def test_experiment_enters_key(self):
        other = Case(experiment="repro.experiments.queue_sweep",
                     label="a", params={"x": 1})
        assert case_key(make_case()) != case_key(other)

    def test_key_is_hex_sha256(self):
        key = case_key(make_case())
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_shared_sweep_cells_across_figures(self, monkeypatch, capsys):
        """Figures 10, 11 and 12 must emit identical cases so the cache
        runs the underlying sweep once for all three."""
        from repro.experiments import STAGES, queue_sweep
        from repro.experiments.config import quick_scale

        keys = {}

        def execute_cases(cases, executor, stage):
            keys[stage] = [case_key(c) for c in cases]
            return [
                dict(protocol=name, n_flows=n, mean_queue=1.0, std_queue=1.0,
                     mean_alpha=0.5, goodput_bps=1.0, timeouts=0, marks=0,
                     drops=0)
                for name in ("DCTCP", "DT-DCTCP")
                for n in quick_scale().flow_counts
            ]

        monkeypatch.setattr(queue_sweep, "execute_cases", execute_cases)
        for stage in STAGES:
            if stage.id in ("10", "11", "12"):
                stage.run(quick_scale())
        assert keys["Figure 10"] == keys["Figure 11"] == keys["Figure 12"]
        assert keys["Figure 10"] == [
            case_key(c) for c in queue_sweep.cases(quick_scale())
        ]


#: ``(label, case_key)`` of the first quick-scale case of every
#: executor-managed experiment and of the first cell of the CLI's two
#: campaign grids, recorded at a9957f7.  A key that moves orphans every
#: user's cache and every ledger digest: renaming an experiment module
#: or touching a ``params`` dict must turn this red, and the new value
#: goes in only with a stated reason.
PINNED_KEYS = {
    "fig01_oscillation": (
        "dctcp-sim/N=10",
        "02796dc00cc7af882a58c2813ba76b9f08b5bf89f71bb02f704ff5ba4fcf3887",
    ),
    "queue_sweep": (
        "dctcp-sim/N=10",
        "523361050628e23b20e2dcc2115a517ef63e151cc8e492c4e4b09e534946d1c1",
    ),
    "fig14_incast": (
        "dctcp-testbed/flows=16",
        "de6332972e791b6f54a139000c162bc17619e78ea6de50fb5c45750208407443",
    ),
    "fig15_completion_time": (
        "dctcp-testbed/flows=16",
        "33560ca9f81c044656ff1f3b2fe12e04202307fc70981452e7e9491f0e712e4c",
    ),
    "fluid_validation": (
        "fluid/N=10",
        "29cc50a27b549e367cd399da2e59078d8ad7f9dcfb4010bfdf1dbc8b5edb3182",
    ),
    "campaign": (
        "K=40/buildup/load=0.2/fan=0/seed=1",
        "6e64b356e6fa27f3b96a6e70555372a747b035ca8e58372a1372758602307af6",
    ),
    "campaign --scenario space-dc": (
        "K=65/space-dc/load=0.1/fan=2/seed=1",
        "c32348a825d8c390c60aa7d85b7da4378ac144d25d6fd70c95c9fd149be5754c",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_case_key_is_pinned(name):
    from repro.experiments.config import quick_scale

    if name.startswith("campaign"):
        from repro.cli import _campaign_grid, build_parser

        grid = _campaign_grid(build_parser().parse_args(name.split()))
        first = grid.expand()[0]
    else:
        module = importlib.import_module(f"repro.experiments.{name}")
        first = module.cases(quick_scale())[0]
    assert (first.label, case_key(first)) == PINNED_KEYS[name]


#: The executor-managed stages of ``figure all --quick``: module names
#: under ``repro.experiments`` whose ``cases(quick_scale())`` they run.
QUICK_SWEEPS = (
    "fig01_oscillation", "queue_sweep", "fig14_incast",
    "fig15_completion_time", "fluid_validation",
)


def quick_and_fabric_cases():
    from repro.cli import _campaign_grid, build_parser
    from repro.experiments.config import quick_scale

    cases = []
    for name in QUICK_SWEEPS:
        module = importlib.import_module(f"repro.experiments.{name}")
        cases.extend(module.cases(quick_scale()))
    for argv in ("campaign", "campaign --scenario space-dc"):
        grid = _campaign_grid(build_parser().parse_args(argv.split()))
        cases.extend(grid.expand())
    return cases


class TestStoredKey:
    """``Case.key`` is computed once, at construction, by the formula
    every existing cache store is addressed by."""

    def test_key_equals_the_former_formula_on_every_real_case(self):
        cases = quick_and_fabric_cases()
        assert len(cases) > 50
        for case in cases:
            assert case.key == oracles.case_key(case), case
            assert case_key(case) == case.key

    def test_key_equals_the_former_formula_on_odd_params(self):
        for params in ({}, {"b": [1, 2.5, None], "a": {"z": True}},
                       {"unicode": "K=40 µs", "nan": float("nan")}):
            case = Case(experiment=EXPERIMENT, label="odd", params=params)
            assert case.key == oracles.case_key(case)

    def test_pickle_round_trips_the_key(self):
        case = make_case(x=7, y=[1, 2])
        clone = pickle.loads(pickle.dumps(case))
        assert clone == case
        assert clone.key == case.key == oracles.case_key(clone)

    def test_replace_recomputes_the_key(self):
        case = make_case(x=1)
        moved = dataclasses.replace(case, params={"x": 2})
        assert moved.key == oracles.case_key(moved) != case.key
        relabelled = dataclasses.replace(case, label="other")
        assert relabelled.key == case.key

    def test_equality_ignores_the_key(self):
        a, b = make_case(x=1), make_case(x=1)
        object.__setattr__(b, "key", "0" * 64)
        assert a == b
        assert "key" not in repr(a) and a.key not in repr(a)

    def test_hash_ignores_the_key(self):
        field = {f.name: f for f in dataclasses.fields(Case)}["key"]
        assert (field.init, field.repr, field.compare) == (False, False, False)
        assert field.hash is None  # follows compare: not hashed

    def test_key_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            Case(experiment=EXPERIMENT, label="a", params={}, key="0" * 64)

    def test_bad_params_raise_the_same_value_error(self):
        with pytest.raises(ValueError, match="JSON-serialisable"):
            Case(experiment=EXPERIMENT, label="bad", params={"s": {1, 2}})
        loop = {}
        loop["self"] = loop
        with pytest.raises(ValueError, match="JSON-serialisable"):
            Case(experiment=EXPERIMENT, label="bad", params=loop)


class TestExecuteCase:
    def test_dispatches_to_module_run_case(self):
        assert execute_case(make_case(x=21))["value"] == 42

    def test_missing_run_case_rejected(self):
        case = Case(experiment="repro.stats.timeseries", label="x",
                    params={})
        with pytest.raises(TypeError):
            execute_case(case)
