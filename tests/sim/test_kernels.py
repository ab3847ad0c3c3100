"""The REPRO_* switch registry: two configuration switches, no kernels."""

import importlib
import os
import warnings

import pytest

from repro.campaign.grid import CampaignGrid
from repro.exec.cases import execute_case
from repro.sim import kernels


class TestRegistry:
    def test_registry_holds_only_the_two_configuration_switches(self):
        """Regression: ``REPRO_LINK_MODEL=two-event`` changed a cell's
        results under an unchanged cache key.  No registered switch may
        select between implementations again without this test (and the
        cache key) being revisited."""
        assert sorted(kernels.REGISTRY) == [
            "REPRO_CACHE_DIR", "REPRO_INVARIANTS",
        ]
        assert kernels.kernel_switches() == ()

    def test_unregistered_read_raises_with_fix(self):
        with pytest.raises(KeyError, match="REGISTRY"):
            kernels.registered("REPRO_BOGUS")
        with pytest.raises(KeyError, match="REGISTRY"):
            kernels.env_value("REPRO_BOGUS")

    def test_env_default_prefers_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_INVARIANTS", raising=False)
        assert kernels.env_default("REPRO_INVARIANTS") == "0"
        monkeypatch.setenv("REPRO_INVARIANTS", "1")
        assert kernels.env_default("REPRO_INVARIANTS") == "1"

    @pytest.mark.parametrize(
        "switch",
        [s for s in kernels.REGISTRY.values() if s.choices is not None],
        ids=lambda s: s.env,
    )
    def test_env_default_rejects_values_outside_choices(
        self, switch, monkeypatch
    ):
        """Regression: a misspelt value was silently taken for the
        default (``REPRO_INVARIANTS=yes`` left the watchdog off)."""
        typo = switch.choices[0] + "x"
        monkeypatch.setenv(switch.env, typo)
        with pytest.raises(ValueError) as excinfo:
            kernels.env_default(switch.env)
        message = str(excinfo.value)
        assert switch.env in message and repr(typo) in message
        assert all(choice in message for choice in switch.choices)

    def test_env_default_rejects_defaultless_switches(self):
        with pytest.raises(ValueError, match="no default"):
            kernels.env_default("REPRO_CACHE_DIR")

    def test_env_value_reads_raw(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert kernels.env_value("REPRO_CACHE_DIR") is None
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/x")
        assert kernels.env_value("REPRO_CACHE_DIR") == "/tmp/x"


class TestUnknownNamesWarn:
    """Regression: an unknown ``REPRO_*`` name was ignored in silence —
    a deleted switch still exported by a shell or CI file, or a typo
    like ``REPRO_INVARIENTS=1`` that leaves the watchdog off."""

    def test_import_warns_once_naming_every_unknown_variable(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_LINK_MODEL", "two-event")
        monkeypatch.setenv("REPRO_INVARIENTS", "1")
        monkeypatch.setenv("REPRO_INVARIANTS", "1")
        with pytest.warns(RuntimeWarning) as caught:
            importlib.reload(kernels)
        assert len(caught) == 1
        message = str(caught[0].message)
        assert "REPRO_LINK_MODEL" in message and "REPRO_INVARIENTS" in message
        # ... and says what would have been understood.
        assert "REPRO_CACHE_DIR" in message and "REPRO_INVARIANTS" in message

    def test_registered_names_alone_are_quiet(self, monkeypatch):
        for name in list(os.environ):
            if name.startswith("REPRO_"):
                monkeypatch.delenv(name)
        monkeypatch.setenv("REPRO_INVARIANTS", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/x")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            importlib.reload(kernels)


def test_invariants_switch_is_result_neutral(monkeypatch):
    """The one switch that runs inside a cached cell must not move a
    single number: the cache key does not (and need not) include it.

    The probe is the leaf-spine incast cell on which the deleted
    ``REPRO_LINK_MODEL`` returned 3037 fabric marks instead of 3046
    under the same ``case_key``.
    """
    case = CampaignGrid(
        thresholds=((40.0,),), loads=(0.4,), fan_ins=(8,),
        scenarios=("incast",), seeds=(1,), duration=0.008, warmup=0.0016,
    ).expand()[0]
    monkeypatch.delenv("REPRO_INVARIANTS", raising=False)
    default = execute_case(case)
    monkeypatch.setenv("REPRO_INVARIANTS", "1")
    audited = execute_case(case)
    assert default["fabric_marks"] == 3046
    assert audited == default
