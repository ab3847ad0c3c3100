"""Reference behaviours the differential tests compare the simulator to.

Neither is selectable in ``src/``: the eager timer is a sender subclass
handed to the ``sender_cls=`` parameters every app already takes, and
the two-event link model is pinned per interface, before traffic, with
the same public method the fault layer uses.
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


#: ``timer`` parametrisation -> sender class (ids the suites always used).
TIMER_SENDERS = {"soft-deadline": DctcpSender, "eager": EagerDctcpSender}


def pin_link_model(network, model: str) -> None:
    """Put every interface of ``network`` on ``model`` before traffic."""
    if model == "two-event":
        for interface in network.all_interfaces():
            interface.pin_two_event()
    else:
        assert model == "busy-until", model
