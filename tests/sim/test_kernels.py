"""The REPRO_* environment: one variable (the cache dir), no kernels."""

import os
import warnings
from pathlib import Path

import pytest

from repro.campaign.grid import CampaignGrid
from repro.exec import cache as cache_mod
from repro.exec.cases import execute_case
from repro.sim import kernels


class TestRegistry:
    def test_no_kernel_switch_and_one_cache_dir_variable(self, monkeypatch):
        """Regression: ``REPRO_LINK_MODEL=two-event`` changed a cell's
        results under an unchanged cache key.  No variable may select
        between implementations again without this test (and the cache
        key) being revisited."""
        assert kernels.kernel_switches() == ()
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert cache_mod.default_cache_dir() == Path(".repro-cache")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/x")
        assert cache_mod.default_cache_dir() == Path("/tmp/x")


class TestUnknownNamesWarn:
    """Regression: an unknown ``REPRO_*`` name was ignored in silence —
    a deleted switch still exported by a shell or CI file
    (``REPRO_INVARIANTS=1``), or a typo like ``REPRO_CACHE_DIRS``."""

    # The check ``import repro.exec.cache`` runs once, called directly: a
    # reload would leave two ``ResultCache`` classes in the process.

    def test_import_warns_once_naming_every_unknown_variable(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_LINK_MODEL", "two-event")
        monkeypatch.setenv("REPRO_INVARIANTS", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/x")
        with pytest.warns(RuntimeWarning) as caught:
            cache_mod._warn_unregistered()
        assert len(caught) == 1
        message = str(caught[0].message)
        assert "REPRO_LINK_MODEL" in message and "REPRO_INVARIANTS" in message
        # ... and says what would have been understood.
        assert message.endswith("registered ones are REPRO_CACHE_DIR")

    def test_registered_names_alone_are_quiet(self, monkeypatch):
        for name in list(os.environ):
            if name.startswith("REPRO_"):
                monkeypatch.delenv(name)
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/x")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache_mod._warn_unregistered()


def test_probe_cell_audits_clean_with_3046_fabric_marks():
    """Results are a function of ``Case.params`` alone.

    The probe is the leaf-spine incast cell on which the deleted
    ``REPRO_LINK_MODEL`` returned 3037 fabric marks instead of 3046
    under the same ``case_key``; it runs the cell's always-on post-run
    audit, which must pass.
    """
    case = CampaignGrid(
        thresholds=((40.0,),), loads=(0.4,), fan_ins=(8,),
        scenarios=("incast",), seeds=(1,), duration=0.008, warmup=0.0016,
    ).expand()[0]
    assert execute_case(case)["fabric_marks"] == 3046
