"""TCP CUBIC sender: the modern loss-based baseline.

CUBIC (RFC 8312) replaces AIMD's linear probe with a cubic curve in
*time since the last reduction*:

    W(t) = C_cubic * (t - K)^3 + W_max,   K = cbrt(W_max * beta / C_cubic)

so the window plateaus near the previous saturation point ``W_max`` and
then accelerates — RTT-independent growth that dominates long-fat pipes.
In this library it serves as the contemporary DropTail baseline next to
Reno: same loss recovery machinery (inherited), different growth law and
a gentler ``beta = 0.7`` multiplicative decrease.

Not ECN-capable, like :class:`~repro.sim.tcp.sender.RenoSender`: CUBIC
deployments of the paper's era reacted to loss, not marks.
"""

from __future__ import annotations

from repro.sim.tcp.sender import TcpSender

__all__ = ["CubicSender"]


class CubicSender(TcpSender):
    """RFC 8312-style cubic congestion avoidance over the common core."""

    ecn_capable = False

    #: RFC 8312 constants.
    C_CUBIC = 0.4
    BETA = 0.7

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Window at the last reduction (the plateau target).
        self._w_max = float(self.cwnd)
        #: Simulated time of the last reduction.
        self._epoch_start = None

    # -- growth law ----------------------------------------------------

    def _grow_window(self, newly_acked: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += float(newly_acked)
            return
        if self._epoch_start is None:
            self._epoch_start = self.sim.now
            self._w_max = max(self._w_max, self.cwnd)
        t = self.sim.now - self._epoch_start
        k = (self._w_max * (1.0 - self.BETA) / self.C_CUBIC) ** (1.0 / 3.0)
        target = self.C_CUBIC * (t - k) ** 3 + self._w_max
        if target > self.cwnd:
            # Close a fraction of the gap per ACK (per-ACK pacing of the
            # cubic target, as the RFC's cwnd_inc rule does).
            self.cwnd += (target - self.cwnd) / max(self.cwnd, 1.0)
        else:
            # TCP-friendly floor: at least Reno's 1/cwnd per ACK.
            self.cwnd += float(newly_acked) / self.cwnd

    # -- reductions restart the epoch -----------------------------------

    def _enter_recovery(self) -> None:
        self._w_max = self.cwnd
        self._epoch_start = None
        self.ssthresh = max(self.cwnd * self.BETA, 2.0)
        self.cwnd = self.ssthresh
        self._in_recovery = True
        self._recover_seq = self.next_seq
        self._transmit(self.highest_ack, retransmit=True)

    def _on_rto(self) -> None:
        # Only an *actual* expiry restarts the cubic epoch.  The base
        # method also fires for soft-deadline re-sleeps (the deadline
        # moved; nothing timed out), so the cumulative ``timeouts``
        # counter must be compared around the call — testing its mere
        # truthiness reset the epoch on every re-sleep after the first
        # real timeout, diverging from the eager timer model.
        before = self.timeouts
        super()._on_rto()
        if self.timeouts > before:
            self._w_max = max(self.ssthresh / self.BETA, 2.0)
            self._epoch_start = None
