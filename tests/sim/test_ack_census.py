"""Per-ACK work census: each processed ACK re-arms the RTO exactly once.

Every ACK a sender processes without completing its flow ends in
``_try_send``, whose last act is the one ``_arm_rto`` of that ACK; the
ACK handlers and ``_enter_recovery`` do not re-arm on their own.  The
only other re-arm is the first send of each flow.  The census counts
both on a 4-flow DCTCP dumbbell (ACK clocking, no loss) and on the
Figure 14 incast testbed (tail drops, fast recovery, real timeouts), and
pins the engine's event counts to the values the double re-arm produced:
the re-arm it drops never scheduled an event of its own, because both
re-arms of one ACK computed the same deadline.
"""

from __future__ import annotations

import pytest

from repro.core.marking import SingleThresholdMarker
from repro.experiments.fig14_incast import (
    TESTBED_INITIAL_CWND,
    TESTBED_START_JITTER,
)
from repro.experiments.protocols import dctcp_testbed
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.apps.incast import FanInApp
from repro.sim.tcp.sender import DctcpSender
from repro.sim.topology import dumbbell, paper_testbed

KB = 1024


class CensusSender(DctcpSender):
    """DCTCP sender that counts ACKs, first sends and RTO re-arms."""

    counts = {"acks": 0, "completing": 0, "first_sends": 0, "arms": 0}

    def on_packet(self, packet):
        processed = packet.is_ack and not self._completed
        super().on_packet(packet)
        if processed:
            self.counts["acks"] += 1
            self.counts["completing"] += self._completed

    def _initial_send(self):
        self.counts["first_sends"] += 1
        super()._initial_send()

    def _arm_rto(self):
        self.counts["arms"] += 1
        super()._arm_rto()


@pytest.fixture
def counts():
    CensusSender.counts = dict.fromkeys(CensusSender.counts, 0)
    yield CensusSender.counts


def _dumbbell():
    network = dumbbell(4, lambda: SingleThresholdMarker.from_threshold(40.0))
    flows = launch_bulk_flows(network, sender_cls=CensusSender)
    network.sim.run(until=0.02)
    return network.sim, sum(f.sender.timeouts for f in flows)


def _incast():
    testbed = paper_testbed(dctcp_testbed().marker_factory, bandwidth_bps=1e9)
    app = FanInApp(
        testbed.aggregator,
        testbed.workers,
        n_flows=45,
        bytes_per_flow=64 * KB,
        n_queries=1,
        sender_cls=CensusSender,
        initial_cwnd=TESTBED_INITIAL_CWND,
        start_jitter=TESTBED_START_JITTER,
        on_done=testbed.sim.stop,
    )
    app.start()
    testbed.sim.run(until=60.0)
    return testbed.sim, sum(r.timeouts for r in app.results)


#: scenario -> (runner, events_scheduled, events_processed), the
#: counts the sender produced while every new ACK re-armed twice
#: (33 066 and 3 914 re-arms then, 16 535 and 1 981 now).
SCENARIOS = {
    "dumbbell-4": (_dumbbell, 66302, 66287),
    "incast-45": (_incast, 12080, 11982),
}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_one_rto_rearm_per_processed_ack(scenario, counts):
    run, scheduled, processed = SCENARIOS[scenario]
    sim, timeouts = run()
    assert counts["acks"] > 1000, "scenario too small to be meaningful"
    if scenario == "incast-45":
        assert timeouts > 0, "incast scenario exercised no timeout"
    assert counts["arms"] == (
        counts["acks"] - counts["completing"] + counts["first_sends"]
    )
    assert (sim.events_scheduled, sim.events_processed) == (
        scheduled,
        processed,
    )
