"""Golden digests of fluid trajectories, and the integrator's reference loop.

Two layers of evidence that :func:`repro.fluid.integrator.simulate`
still computes what the one-class model on the queue-dependent RTT
computed before the model grew flow classes:

* ``golden_fluid_digests.json`` — sha256 over ``float.hex()`` of all
  five :class:`FluidTrace` arrays for six short runs.  The integrator is
  pure-Python float arithmetic (``+ - * /``, ``max``/``min``), so the
  digests are platform-stable, like ``tests/sim/golden_trace_digests.json``.
  ``dctcp/variable-rtt``, ``dt-dctcp/variable-rtt`` and
  ``dt-dctcp/initial-state`` were generated at commit 821cd16, the last
  whose step loop built a state object per RK4 substage.  The other
  three were recorded at commit 0798c00 by running the same
  configurations there with the queue-dependent RTT switched on: they
  are named after the fixed-RTT variant they once ran, which no longer
  exists.  No digest comes from the code under test, and every commit
  must reproduce all six bit for bit.
* a differential against :func:`tests.fluid.oracles.simulate_reference`,
  0798c00's one-class model and loop kept verbatim, on configurations
  the six digests do not cover.

Deliberate regeneration only::

    PYTHONPATH=src python -m tests.fluid.test_golden_traces
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.parameters import (
    DoubleThresholdParams,
    paper_dctcp,
    paper_dt_dctcp,
    paper_network,
)
from repro.fluid.integrator import FluidTrace, simulate
from repro.fluid.model import FluidState, fluid_model
from tests.fluid.oracles import ReferenceModel, ReferenceState, simulate_reference

GOLDEN = Path(__file__).with_name("golden_fluid_digests.json")
DURATION = 0.005
ARRAYS = ("time", "window", "alpha", "queue", "marking")


def _digest(trace: FluidTrace) -> str:
    sha = hashlib.sha256()
    for name in ARRAYS:
        values = getattr(trace, name).ravel()
        sha.update(f"{name}[{len(values)}]".encode())
        for value in values.tolist():
            sha.update(value.hex().encode())
    return sha.hexdigest()


#: name -> () -> FluidTrace.  N = 30 puts the queue through the
#: empty-queue boundary and both relay edges within 5 ms; N = 80 reaches
#: the 60-packet buffer.
RUNS = {
    "dctcp/fixed": lambda: simulate(
        fluid_model(paper_network(10), paper_dctcp()), DURATION
    ),
    "dt-dctcp/fixed": lambda: simulate(
        fluid_model(paper_network(10), paper_dt_dctcp()), DURATION
    ),
    "dctcp/variable-rtt": lambda: simulate(
        fluid_model(paper_network(30), paper_dctcp()), DURATION
    ),
    "dt-dctcp/variable-rtt": lambda: simulate(
        fluid_model(paper_network(30), paper_dt_dctcp()),
        DURATION,
    ),
    "dctcp/buffer-60/record-every-3": lambda: simulate(
        fluid_model(paper_network(80), paper_dctcp(), buffer_packets=60),
        DURATION,
        record_every=3,
    ),
    "dt-dctcp/initial-state": lambda: simulate(
        fluid_model(paper_network(20), paper_dt_dctcp()),
        DURATION,
        initial_state=FluidState(window=(0.25,), alpha=(1.5,), queue=120.0),
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_matches_golden_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert _digest(RUNS[name]()) == golden[name]


def test_digest_sees_every_array():
    """A one-ulp change in any of the five arrays moves the digest."""
    trace = RUNS["dctcp/fixed"]()
    reference = _digest(trace)
    for name in ARRAYS:
        values = getattr(trace, name).copy()
        values[-1] = np.nextafter(values[-1], np.inf)
        fields = {other: getattr(trace, other) for other in ARRAYS}
        fields[name] = values
        assert _digest(FluidTrace(**fields)) != reference


@pytest.mark.parametrize("n_flows", [10, 45, 80])
@pytest.mark.parametrize(
    "scheme",
    [paper_dctcp(), DoubleThresholdParams(k1=20.0, k2=25.0)],
    ids=["dctcp", "dt-dctcp"],
)
def test_scalar_loop_matches_reference_loop(scheme, n_flows):
    """Off the golden grid - a dt that does not divide R0, a buffer the
    queue reaches, thinned recording - every sample is the reference
    loop's, bit for bit."""
    net = paper_network(n_flows)
    kwargs = dict(duration=0.003, dt=net.rtt / 37.0, record_every=2)
    got = simulate(
        fluid_model(net, scheme, buffer_packets=150.0),
        initial_state=FluidState(window=(2.0,), alpha=(0.3,), queue=35.0),
        **kwargs,
    )
    want = simulate_reference(
        ReferenceModel(net, scheme, buffer_packets=150.0),
        initial_state=ReferenceState(window=2.0, alpha=0.3, queue=35.0),
        **kwargs,
    )
    for name in ARRAYS:
        assert getattr(got, name).ravel().tolist() == want[name].tolist(), name


if __name__ == "__main__":
    digests = {name: _digest(RUNS[name]()) for name in sorted(RUNS)}
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    print(GOLDEN.read_text(), end="")
