"""Non-finite numbers are rejected where the per-packet path takes them.

A NaN passes every ``x <= 0`` guard, and an infinity passes most: a
NaN buffer admits every packet, a NaN link schedules deliveries at NaN,
a NaN minimum RTO makes every timeout NaN, and a NaN transfer size never
sends.  The checks live in the constructors that own each value
(:class:`FifoQueue`, :class:`Interface`, :class:`RttEstimator`,
:class:`TcpSender`), so every topology builder and application inherits
them; each must name the field it rejects.  An RTT sample is checked
where it is folded in (:meth:`RttEstimator.on_sample`).
"""

import math

import pytest

from repro.core.marking import NullMarker
from repro.sim.queues import FifoQueue
from repro.sim.tcp.flow import open_flow
from repro.sim.tcp.rto import RttEstimator
from repro.sim.topology import dumbbell


def _dumbbell(**kwargs):
    return dumbbell(2, NullMarker, **kwargs)


def _flow(**kwargs):
    network = _dumbbell()
    return open_flow(network.senders[0], network.receiver, **kwargs)


#: (constructor, argument, the field its error names): a builder's
#: argument is rejected by the constructor it reaches.
CASES = [
    (FifoQueue, "capacity_bytes", "capacity_bytes"),
    (_dumbbell, "bandwidth_bps", "bandwidth_bps"),
    (_dumbbell, "rtt", "prop_delay"),
    (_dumbbell, "bottleneck_buffer_bytes", "capacity_bytes"),
    (RttEstimator, "min_rto", "min_rto"),
    (RttEstimator, "max_rto", "max_rto"),
    (_flow, "total_packets", "total_packets"),
    (_flow, "initial_cwnd", "initial_cwnd"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build, argument, field",
    CASES,
    ids=[f"{build.__name__.lstrip('_')}-{arg}" for build, arg, _ in CASES],
)
def test_non_finite_input_is_rejected_by_name(build, argument, field, value):
    with pytest.raises(ValueError, match=field):
        build(**{argument: value})


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_rtt_sample_is_rejected(value):
    """A NaN sample would make ``srtt`` NaN for good (the RTO then
    sticks at ``min_rto``, and no later sample repairs it); an infinite
    one pins the RTO at ``max_rto``."""
    est = RttEstimator(min_rto=0.01, max_rto=5.0)
    est.on_sample(0.05)
    before = (est.srtt, est.rttvar, est.rto, est.samples)
    with pytest.raises(ValueError, match="rtt sample"):
        est.on_sample(value)
    assert (est.srtt, est.rttvar, est.rto, est.samples) == before
