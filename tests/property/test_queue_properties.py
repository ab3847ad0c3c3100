"""Property-based tests for the queue disciplines."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marking import SingleThresholdMarker
from repro.sim.buffer_pool import SharedBufferPool
from repro.sim.packet import Packet
from repro.sim.queues import FifoQueue


def pkt(size, seq):
    return Packet(flow_id=1, src=0, dst=1, seq=seq, size_bytes=size)


@st.composite
def op_sequences(draw):
    """Random interleavings of enqueues (with sizes) and dequeues."""
    n_ops = draw(st.integers(min_value=1, max_value=120))
    ops = []
    for i in range(n_ops):
        if draw(st.booleans()):
            ops.append(("enq", draw(st.integers(min_value=40, max_value=1500))))
        else:
            ops.append(("deq", 0))
    return ops


class TestFifoInvariants:
    @given(ops=op_sequences(), capacity=st.integers(5000, 50000))
    @settings(max_examples=80)
    def test_byte_accounting_always_consistent(self, ops, capacity):
        q = FifoQueue(capacity)
        shadow = []
        for i, (op, size) in enumerate(ops):
            if op == "enq":
                if q.enqueue(pkt(size, i)):
                    shadow.append(size)
            else:
                out = q.dequeue()
                if shadow:
                    assert out is not None
                    assert out.size_bytes == shadow.pop(0)
                else:
                    assert out is None
            assert q.len_bytes == sum(shadow)
            assert q.len_packets == len(shadow)
            assert q.len_bytes <= capacity

    @given(ops=op_sequences(), capacity=st.integers(5000, 50000))
    @settings(max_examples=50)
    def test_fifo_order_preserved(self, ops, capacity):
        q = FifoQueue(capacity)
        admitted = []
        for i, (op, size) in enumerate(ops):
            if op == "enq":
                if q.enqueue(pkt(size, i)):
                    admitted.append(i)
        drained = []
        while True:
            out = q.dequeue()
            if out is None:
                break
            drained.append(out.seq)
        assert drained == admitted

    @given(ops=op_sequences())
    @settings(max_examples=50)
    def test_stats_balance(self, ops):
        q = FifoQueue(20000, marker=SingleThresholdMarker.from_threshold(3))
        bytes_in = bytes_out = 0
        for i, (op, size) in enumerate(ops):
            if op == "enq":
                if q.enqueue(pkt(size, i)):
                    bytes_in += size
            else:
                out = q.dequeue()
                if out is not None:
                    bytes_out += out.size_bytes
        s = q.stats
        assert s.enqueued == s.dequeued + q.len_packets
        assert bytes_in == bytes_out + q.len_bytes
        assert s.marked <= s.enqueued


class TestPooledInvariants:
    @given(ops=op_sequences())
    @settings(max_examples=50)
    def test_pool_usage_equals_sum_of_queues(self, ops):
        pool = SharedBufferPool(30000)
        qa = FifoQueue(30000, pool=pool)
        qb = FifoQueue(30000, pool=pool)
        for i, (op, size) in enumerate(ops):
            target = qa if i % 2 == 0 else qb
            if op == "enq":
                target.enqueue(pkt(size, i))
            else:
                target.dequeue()
            assert pool.used_bytes == qa.len_bytes + qb.len_bytes
            assert 0 <= pool.used_bytes <= pool.total_bytes
