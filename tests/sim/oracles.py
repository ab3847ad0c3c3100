"""Reference behaviours the differential tests compare the simulator to.

None is selectable in ``src/``: the eager timer and the general sender
bodies are sender subclasses handed to the ``sender_cls=`` parameters
every app already takes, and the two-event link model is pinned per
interface, before traffic, with the same public method the fault layer
uses.
"""

from repro.sim.tcp.sender import DctcpSender


class EagerDctcpSender(DctcpSender):
    """Textbook RTO re-arm: cancel and re-push the timer on every ACK."""

    def _arm_rto(self):
        if self.in_flight == 0:
            self._rto_deadline = None
            return
        deadline = self.sim.now + self.rtt.rto
        self._rto_deadline = deadline
        if self._rto_timer is not None:
            self._rto_timer.cancel()
        self._rto_timer = self.sim.schedule_at(deadline, self._on_rto)


class GeneralBodySender(DctcpSender):
    """The sender's pre-unification *general* bodies.

    Verbatim but for the SACK and receive-window guards, whose options
    have left the sender.

    ``TcpSender._try_send`` and ``_on_new_ack`` used to keep a fast body
    (not in recovery) beside these; the one body that survives in
    ``src/`` is the fast one, and
    ``tests/sim/test_datapath_differential.py`` holds it to these under
    loss.
    """

    def _more_to_send(self):
        return self.total_packets is None or self.next_seq < self.total_packets

    def _try_send(self):
        window = int(self.cwnd)
        while self._more_to_send() and self.in_flight < window:
            self._transmit(self.next_seq, retransmit=self.next_seq < self._high_water)
            self.next_seq += 1
        self._arm_rto()

    def _on_new_ack(self, packet):
        newly = packet.ack_seq - self.highest_ack
        old_highest = self.highest_ack
        self.highest_ack = packet.ack_seq
        # After a go-back-N rewind the cumulative ACK can leap past the
        # send pointer (the receiver had the "lost" tail buffered all
        # along); snap the pointer forward so in_flight stays correct.
        self.next_seq = max(self.next_seq, self.highest_ack)
        self.dup_acks = 0

        sample_time = self._send_times.pop(packet.ack_seq - 1, None)
        for seq in range(old_highest, packet.ack_seq - 1):
            self._send_times.pop(seq, None)
        # Guard against zero-delay acknowledgements (possible only with
        # synthetic/looped-back ACKs): the estimator needs rtt > 0.
        if sample_time is not None and self.sim.now > sample_time:
            self.rtt.on_sample(self.sim.now - sample_time)
            # A ``self.rtt.reset_backoff()`` call stood here; it
            # recomputed the RTO ``on_sample`` had just set from the
            # same expression, so it had no effect and is gone.

        self._on_ecn_feedback(packet, newly)

        if self._in_recovery:
            if packet.ack_seq >= self._recover_seq:
                self._in_recovery = False
                self.cwnd = max(self.ssthresh, 1.0)
            else:
                # NewReno partial ACK: the next hole is lost too.
                self._transmit(self.highest_ack, retransmit=True)
        else:
            self._grow_window(newly)

        if (
            self.total_packets is not None
            and self.highest_ack >= self.total_packets
        ):
            self._complete()
            return
        self._arm_rto()


#: ``timer`` parametrisation -> sender class (ids the suites always used).
TIMER_SENDERS = {"soft-deadline": DctcpSender, "eager": EagerDctcpSender}


def pin_link_model(network, model: str) -> None:
    """Put every interface of ``network`` on ``model`` before traffic."""
    if model == "two-event":
        for interface in network.all_interfaces():
            interface.pin_two_event()
    else:
        assert model == "busy-until", model
