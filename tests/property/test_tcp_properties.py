"""Property-based tests for the transport layer.

The crown jewel: **eventual completion under arbitrary loss**.  Whatever
subset of data packets the network drops (each sequence at most once per
transmission attempt here — the queue re-admits retransmissions), TCP's
recovery machinery (dupacks, NewReno partial ACKs, go-back-N RTO with
backoff) must deliver the full byte stream, exactly once, in order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.queues import FifoQueue
from repro.sim.tcp.flow import open_flow
from repro.sim.tcp.sender import DctcpSender
from repro.sim.topology import Network


class OneShotLossQueue(FifoQueue):
    """Drops each (seq, attempt) in the loss plan exactly once."""

    def __init__(self, *args, drop_plan=None, **kwargs):
        super().__init__(*args, **kwargs)
        # seq -> number of consecutive transmissions of it to drop
        self.drop_plan = dict(drop_plan or {})

    def enqueue(self, packet):
        if not packet.is_ack:
            remaining = self.drop_plan.get(packet.seq, 0)
            if remaining > 0:
                self.drop_plan[packet.seq] = remaining - 1
                self.stats.dropped += 1
                return False
        return super().enqueue(packet)


def run_transfer(total, drop_plan, min_rto=0.05):
    net = Network()
    a, b = net.add_host("a"), net.add_host("b")
    fq = OneShotLossQueue(10e6, drop_plan=drop_plan)
    net.connect(a, b, 1e9, 20e-6, fq, FifoQueue(10e6))
    net.finalize_routes()
    done = []
    # Tight RTO bounds keep worst-case backoff chains (Karn's rule can
    # starve RTT samples under adversarial loss) inside the horizon.
    flow = open_flow(
        a, b, DctcpSender, total_packets=total, on_complete=done.append,
        min_rto=min_rto, max_rto=0.4,
    )
    flow.start()
    net.sim.run(until=120.0)
    return flow, done


@st.composite
def loss_plans(draw):
    total = draw(st.integers(min_value=1, max_value=60))
    n_lossy = draw(st.integers(min_value=0, max_value=min(total, 12)))
    seqs = draw(
        st.lists(
            st.integers(min_value=0, max_value=total - 1),
            min_size=n_lossy,
            max_size=n_lossy,
            unique=True,
        )
    )
    plan = {
        seq: draw(st.integers(min_value=1, max_value=3)) for seq in seqs
    }
    return total, plan


class TestEventualCompletion:
    @given(case=loss_plans())
    @settings(max_examples=40, deadline=None)
    def test_transfer_completes_under_any_loss_pattern(self, case):
        total, plan = case
        flow, done = run_transfer(total, plan)
        assert flow.completed, (
            f"transfer stuck: total={total} plan={plan} "
            f"hack={flow.sender.highest_ack} inflight={flow.sender.in_flight}"
        )
        assert len(done) == 1
        # Receiver got the entire stream, in order.
        assert flow.receiver.rcv_next == total

    @given(case=loss_plans())
    @settings(max_examples=25, deadline=None)
    def test_loss_free_runs_have_no_retransmissions(self, case):
        total, plan = case
        lossless_flow, _ = run_transfer(total, {})
        assert lossless_flow.sender.retransmits == 0
        assert lossless_flow.sender.timeouts == 0
        # Exactly `total` data packets crossed the wire.
        assert lossless_flow.sender.packets_sent == total

    @given(case=loss_plans())
    @settings(max_examples=25, deadline=None)
    def test_work_conservation_bound(self, case):
        """Retransmissions never exceed (drops + a go-back-N resend of
        what was in flight per timeout-ish event) - a loose but
        universal sanity bound: sent <= total + drops + rewind waste."""
        total, plan = case
        flow, _ = run_transfer(total, plan)
        drops = sum(plan.values())
        # Each drop forces at least one retransmission; rewinds may add
        # up to a window (bounded by total) per timeout.
        assert flow.sender.packets_sent <= total + drops + (
            flow.sender.timeouts + 1
        ) * total
