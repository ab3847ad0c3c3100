"""Runtime invariant watchdog: packet conservation, clocks, queues.

The simulator's correctness rests on a handful of ledger identities that
hold at every quiescent instant (between events).  This module checks
them against live state, either once (:func:`audit_network`) or
periodically during a run (:class:`InvariantWatchdog`):

* **Queue consistency** — a queue's byte gauge equals the sum of the
  packets actually parked in it, occupancy never exceeds capacity, and
  the stats ledger balances the deque: ``enqueued - dequeued`` equals
  the packet count under *every* link model, because the busy-until fast
  lane defers the dequeue counter and the deque pop together (and its
  fused idle path bumps both counters while touching neither).
* **Interface custody** — packets an interface accepted but has not yet
  delivered (or lost to a wire cut) can never be negative.
* **Forwarding conservation** — per switch, packets delivered into it
  equal packets forwarded plus packets unroutable, and every forwarded
  packet was offered to exactly one egress (queue admission + queue drop
  + fault-layer drops).  Per host, deliveries equal ``packets_received``.
* **Clock monotonicity** and **flow liveness** (watchdog only) — the
  simulated clock never runs backwards between checks, and no incomplete
  sender sits on unacknowledged data with its RTO timer disarmed (the
  silent-wedge failure mode outages would otherwise hide).

Every campaign cell audits itself once after its run (one
:meth:`InvariantWatchdog.check`, which schedules nothing); ``--invariants``
on the CLI's ``simulate`` command additionally audits periodically
*during* the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.sim.node import Host, Switch
from repro.sim.tcp.sender import TcpSender

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.link import Interface
    from repro.sim.topology import Network

__all__ = [
    "InvariantViolation",
    "audit_network",
    "held_by_interface",
    "InvariantWatchdog",
]


class InvariantViolation(AssertionError):
    """One or more invariant checks failed; ``violations`` lists them."""

    def __init__(self, violations: List[str], when: float):
        self.violations = list(violations)
        self.when = when
        lines = "\n  - ".join(self.violations)
        super().__init__(
            f"{len(self.violations)} invariant violation(s) at t={when}:"
            f"\n  - {lines}"
        )


def held_by_interface(iface: "Interface") -> int:
    """Packets currently in ``iface``'s custody: queued, transmitting,
    or propagating.

    Derived purely from monotonic counters — admission minus the two
    ways out (delivery, wire cut) — so it is exact under both link
    models, including mid-busy-period states where the busy-until lane
    has deferred its queue bookkeeping.
    """
    chaos = iface.chaos
    wire_drops = chaos.wire_drops if chaos is not None else 0
    return iface.queue.stats.enqueued - iface.packets_delivered - wire_drops


def _chaos_admission_drops(iface: "Interface") -> int:
    chaos = iface.chaos
    if chaos is None:
        return 0
    return chaos.send_drops + chaos.loss_drops


def audit_network(network: "Network") -> List[str]:
    """Every invariant violation currently observable on ``network``."""
    violations: List[str] = []

    for iface in network.all_interfaces():
        queue = iface.queue
        stats = queue.stats
        parked = sum(p.size_bytes for p in queue._queue)
        if queue.len_bytes != parked:
            violations.append(
                f"{iface.name}: queue byte gauge {queue.len_bytes} != "
                f"{parked} bytes actually parked"
            )
        if not 0 <= queue.len_bytes <= queue.capacity_bytes:
            violations.append(
                f"{iface.name}: queue occupancy {queue.len_bytes}B outside "
                f"[0, {queue.capacity_bytes}]B"
            )
        if len(queue._queue) != stats.enqueued - stats.dequeued:
            violations.append(
                f"{iface.name}: {len(queue._queue)} packets parked but "
                f"stats say enqueued-dequeued = "
                f"{stats.enqueued - stats.dequeued}"
            )
        held = held_by_interface(iface)
        if held < 0:
            violations.append(
                f"{iface.name}: negative custody ({held}): delivered more "
                "packets than were ever admitted"
            )

    incoming = {node.node_id: 0 for node in network.nodes}
    for iface in network.all_interfaces():
        if iface.peer is not None:
            incoming[iface.peer.node_id] += iface.packets_delivered
    for node in network.nodes:
        arrived = incoming[node.node_id]
        if isinstance(node, Switch):
            handled = node.packets_forwarded + node.packets_unroutable
            if arrived != handled:
                violations.append(
                    f"{node.name}: {arrived} packets delivered in but "
                    f"forwarded+unroutable = {handled}"
                )
            offered = sum(
                iface.queue.stats.enqueued
                + iface.queue.stats.dropped
                + _chaos_admission_drops(iface)
                for iface in node.interfaces
            )
            if offered != node.packets_forwarded:
                violations.append(
                    f"{node.name}: {node.packets_forwarded} packets "
                    f"forwarded but egresses account for {offered}"
                )
        elif isinstance(node, Host):
            if arrived != node.packets_received:
                violations.append(
                    f"{node.name}: {arrived} packets delivered in but "
                    f"packets_received = {node.packets_received}"
                )

    return violations


def _wedged_senders(network: "Network") -> List[str]:
    """Incomplete senders holding unacked data with no armed RTO timer.

    Such a flow can never make progress again — the exact silent-wedge
    state a too-long outage would produce if RTO backoff mishandled it.
    Sound under both timer models: the soft-deadline model keeps its one
    timer event armed (merely re-sleeping) whenever data is outstanding.
    """
    wedged: List[str] = []
    for node in network.nodes:
        if not isinstance(node, Host):
            continue
        for endpoint in node._endpoints.values():
            if (
                isinstance(endpoint, TcpSender)
                and not endpoint._completed
                and endpoint.in_flight > 0
                and endpoint._rto_timer is None
            ):
                wedged.append(
                    f"flow {endpoint.flow_id} on {node.name}: "
                    f"{endpoint.in_flight} packets unacked, not complete, "
                    "RTO timer disarmed (wedged)"
                )
    return wedged


class InvariantWatchdog:
    """Periodic in-run auditor; raises on the first violated check.

    Call :meth:`check` at moments of interest or :meth:`start` to
    self-schedule every ``interval`` seconds.  Periodic mode re-arms
    unconditionally, so it is only suitable for ``run(until=...)``
    bounded simulations (like the monitors it rides alongside).
    """

    def __init__(self, network: "Network"):
        self.network = network
        self.sim = network.sim
        self.checks_run = 0
        self._last_now = self.sim.now

    def check(self) -> None:
        """Audit everything now; raise :class:`InvariantViolation` on failure."""
        now = self.sim.now
        violations: List[str] = []
        if now < self._last_now:
            violations.append(
                f"clock ran backwards: {now} < {self._last_now}"
            )
        self._last_now = now
        violations.extend(audit_network(self.network))
        violations.extend(_wedged_senders(self.network))
        self.checks_run += 1
        if violations:
            raise InvariantViolation(violations, when=now)

    def start(self, interval: float) -> None:
        """Audit every ``interval`` simulated seconds until the run ends."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim.schedule(interval, self._tick, interval)

    def _tick(self, interval: float) -> None:
        self.check()
        self.sim.schedule(interval, self._tick, interval)
