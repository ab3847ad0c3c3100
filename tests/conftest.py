"""Shared fixtures and hypothesis profiles for the test suite."""

import contextlib
import io

import pytest
from hypothesis import settings

from repro.core.parameters import (
    DoubleThresholdParams,
    SingleThresholdParams,
    paper_network,
)
from repro.experiments import quick_scale, stage_by_id

# Tier-1 draws the same examples on every run: a red test is a change
# in the code, never a new draw.  No example database either, so a
# failure found once is not replayed into later runs as a different
# test.  Each test keeps its own ``max_examples``.
settings.register_profile("tier-1", derandomize=True, database=None)
# CI's property job explores instead: fresh draws every run and more
# examples for the tests that do not set their own
# (``pytest -m hypothesis --hypothesis-profile=ci-random``).
settings.register_profile("ci-random", max_examples=500, database=None)
# ``--hypothesis-profile`` is applied after this module is imported, so
# it overrides the default below.
settings.load_profile("tier-1")


@pytest.fixture(scope="session")
def quick_stage():
    """``figure <id> --quick`` of a stage that runs no sweep, at most once
    per session, as ``(printed text, the printer's results)``.

    The snapshot test compares the text and the claims in
    ``tests/claims/test_extensions.py`` assert on the results, so a
    seconds-long stage such as ``buffer`` runs once for both.
    """
    runs = {}

    def run(stage_id):
        if stage_id not in runs:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                results = stage_by_id(stage_id).run(quick_scale())
            runs[stage_id] = (printed.getvalue(), results)
        return runs[stage_id]

    return run


@pytest.fixture
def net10():
    """The paper's plant at N = 10 flows."""
    return paper_network(10)


@pytest.fixture
def net30():
    """The paper's plant at N = 30 flows (valid operating point)."""
    return paper_network(30)


@pytest.fixture
def dctcp_params():
    """K = 40 packets."""
    return SingleThresholdParams(k=40.0)


@pytest.fixture
def dt_params():
    """K1 = 30, K2 = 50 packets."""
    return DoubleThresholdParams(k1=30.0, k2=50.0)
