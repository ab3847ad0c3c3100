"""Tests for the packet-event logger."""

import pytest

from repro.core.marking import SingleThresholdMarker
from repro.sim.packet_log import PacketLogger
from repro.sim.tcp.flow import open_flow
from repro.sim.tcp.sender import DctcpSender
from repro.sim.topology import dumbbell


def run_logged(n_flows=2, max_records=None):
    nw = dumbbell(n_flows, lambda: SingleThresholdMarker.from_threshold(10))
    logger = PacketLogger(max_records=max_records)
    bottleneck_iface = nw.network.interface_between(
        nw.switch.node_id, nw.receiver.node_id
    )
    logger.attach(bottleneck_iface)
    flows = [
        open_flow(h, nw.receiver, DctcpSender, total_packets=50)
        for h in nw.senders
    ]
    for f in flows:
        f.start()
    nw.sim.run(until=1.0)
    return logger, flows


class TestPacketLogger:
    def test_records_all_bottleneck_deliveries(self):
        logger, flows = run_logged()
        # Every data packet of both flows crossed the tapped interface.
        assert logger.summary()["data"] == 100
        assert logger.summary()["acks"] == 0  # ACKs use the reverse path

    def test_timestamps_monotone(self):
        logger, _ = run_logged()
        times = [r.time for r in logger.records]
        assert times == sorted(times)

    def test_filter_by_flow(self):
        logger, flows = run_logged()
        only = logger.filter(flow_id=flows[0].flow_id)
        assert len(only) == 50
        assert all(r.flow_id == flows[0].flow_id for r in only)

    def test_marked_packets_visible(self):
        logger, _ = run_logged()
        marked = logger.filter(marked_only=True)
        assert marked  # K=10 with 2 flows marks plenty
        assert all(r.ce for r in marked)

    def test_first_time_of_first_mark(self):
        logger, _ = run_logged()
        t = logger.first_time(marked_only=True)
        assert t is not None
        assert t > 0.0
        assert t == min(r.time for r in logger.filter(marked_only=True))

    def test_max_records_cap(self):
        logger, _ = run_logged(max_records=10)
        assert len(logger.records) == 10
        assert logger.dropped_records > 0

    def test_detach_stops_logging(self):
        nw = dumbbell(1, lambda: SingleThresholdMarker.from_threshold(10))
        logger = PacketLogger()
        iface = nw.network.interface_between(
            nw.switch.node_id, nw.receiver.node_id
        )
        logger.attach(iface)
        flow = open_flow(nw.senders[0], nw.receiver, DctcpSender,
                         total_packets=5)
        flow.start()
        nw.sim.run(until=0.001)
        count = len(logger.records)
        logger.detach(iface)
        flow2 = open_flow(nw.senders[0], nw.receiver, DctcpSender,
                          total_packets=5)
        flow2.start()
        nw.sim.run(until=1.0)
        assert len(logger.records) == count

    def test_write_text_lines(self, tmp_path):
        logger, _ = run_logged()
        path = logger.write(tmp_path / "trace.txt")
        lines = path.read_text().splitlines()
        assert len(lines) == len(logger.records)
        assert "flow=" in lines[0]
        assert "DATA" in lines[0]

    def test_invalid_max_records(self):
        with pytest.raises(ValueError):
            PacketLogger(max_records=0)

    def test_record_line_flags(self):
        logger, _ = run_logged()
        marked = logger.filter(marked_only=True)[0]
        assert "C" in marked.line()
