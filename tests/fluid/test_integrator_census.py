"""What one fluid integration step calls, counted rather than timed.

``sys.setprofile`` counts every Python-level call into ``repro/`` (by
``co_qualname``) and every ``max``/``min`` builtin call while
:func:`repro.fluid.integrator.simulate` runs 400 steps of the paper's
one-class DCTCP and DT-DCTCP models at N = 10.  The step's stages are
Eq. 1-3 written out on local floats, so a step makes one call - the
marker's ``should_mark`` - and no ``max``/``min`` call.  A stage that
calls back into the model (``class_rhs``'s closure, ``queue_rate``,
``marking``) turns this red on any machine, however fast.

``integrator_census.json`` holds the exact totals, set-up included, for
the Python minor version it names: comprehensions are calls up to 3.11
and inlined from 3.12 (PEP 709), so a version move is a re-record.  The
per-step difference is asserted on every version.  Deliberate
regeneration only::

    PYTHONPATH=src python -m tests.fluid.test_integrator_census
"""

from __future__ import annotations

import collections
import json
import os
import sys
from pathlib import Path

import pytest

import repro.fluid.integrator as integrator
from repro.core.parameters import paper_dctcp, paper_dt_dctcp, paper_network
from repro.fluid.model import fluid_model

EXPECTED = Path(__file__).with_name("integrator_census.json")
REPRO = os.path.dirname(os.path.dirname(integrator.__file__)) + os.sep
STEPS = 400
MAX_MIN = "max/min"
SCHEMES = {"dctcp": paper_dctcp, "dt-dctcp": paper_dt_dctcp}


def census(scheme: str, steps: int) -> collections.Counter:
    """Calls made by one ``simulate`` of ``steps`` steps at N = 10."""
    model = fluid_model(paper_network(10), SCHEMES[scheme]())
    dt = model.classes[0].rtt / 40.0
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(REPRO):
                counts[getattr(code, "co_qualname", code.co_name)] += 1
        elif event == "c_call" and (arg is max or arg is min):
            counts[MAX_MIN] += 1

    sys.setprofile(profile)
    try:
        trace = integrator.simulate(model, steps * dt, dt=dt)
    finally:
        sys.setprofile(None)
    assert len(trace.time) == steps + 1
    return counts


def _python() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_a_step_makes_one_call_and_no_max_or_min(scheme):
    """Twice the steps costs exactly one more ``should_mark`` per step:
    the per-step work, independent of the set-up and of the Python
    version."""
    extra = census(scheme, 2 * STEPS)
    extra.subtract(census(scheme, STEPS))
    ((name, calls),) = [(k, v) for k, v in extra.items() if v]
    assert name.endswith("should_mark")
    assert calls == STEPS


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_census_matches_the_committed_counts(scheme):
    expected = json.loads(EXPECTED.read_text())
    if expected["python"] != _python():
        pytest.skip(
            f"counts recorded on Python {expected['python']}; re-record "
            f"on {_python()} with python -m tests.fluid.test_integrator_census"
        )
    assert expected["steps"] == STEPS
    assert dict(census(scheme, STEPS)) == expected["scenarios"][scheme]


if __name__ == "__main__":
    record = {
        "python": _python(),
        "steps": STEPS,
        "scenarios": {
            scheme: dict(sorted(census(scheme, STEPS).items()))
            for scheme in sorted(SCHEMES)
        },
    }
    EXPECTED.write_text(json.dumps(record, indent=2) + "\n")
    print(EXPECTED.read_text(), end="")
