"""The DCTCP fluid model (paper Eq. 1-3) and its DT-DCTCP variant.

N flows traverse one bottleneck of capacity ``C`` packets/s.  The state
is the per-flow window ``W`` (packets), the congestion-extent estimate
``alpha``, and the bottleneck queue ``q`` (packets):

    dW/dt     = 1/R - (W alpha / 2R) p(t - R0)          (Eq. 1)
    dalpha/dt = (g/R) (p(t - R0) - alpha)               (Eq. 2)
    dq/dt     = N W / R - C                             (Eq. 3)

``p`` is the marking signal produced by a :mod:`repro.core.marking`
mechanism from the queue trajectory — the relay ``1{q >= K}`` for DCTCP
or the direction-tracking hysteresis for DT-DCTCP.  ``R`` is the RTT,
fixed at ``R0`` by default (the paper's simplification); a
queue-dependent ``R(t) = d + q(t)/C`` variant is available as an
extension.

The queue is clipped at zero and (optionally) at a finite buffer, making
the model a hybrid system exactly like the real switch.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.core.marking import Marker, MarkingParams
from repro.core.parameters import NetworkParams

__all__ = ["FluidState", "FluidModel", "fluid_model"]


@dataclasses.dataclass(frozen=True)
class FluidState:
    """Instantaneous fluid-model state."""

    window: float  #: per-flow congestion window W (packets)
    alpha: float  #: congestion-extent EWMA
    queue: float  #: bottleneck queue q (packets)

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.window, self.alpha, self.queue)


class FluidModel:
    """Right-hand side of Eq. (1)-(3) with a pluggable marking mechanism.

    The marking signal is evaluated *causally along the trajectory*: the
    integrator feeds each new queue sample through :meth:`marking`, which
    lets stateful mechanisms (DT-DCTCP's hysteresis) follow the queue's
    direction, then stores the result in a delay line for the
    ``p(t - R0)`` feedback term.
    """

    def __init__(
        self,
        net: NetworkParams,
        marker: Marker,
        buffer_packets: Optional[float] = None,
        variable_rtt: bool = False,
        queue_setpoint: float = 40.0,
    ):
        if buffer_packets is not None and buffer_packets <= 0:
            raise ValueError(f"buffer_packets must be positive, got {buffer_packets}")
        if queue_setpoint < 0:
            raise ValueError(f"queue_setpoint must be >= 0, got {queue_setpoint}")
        self.net = net
        self.marker = marker
        self.buffer_packets = buffer_packets
        self.variable_rtt = variable_rtt
        #: Fixed propagation component used when variable_rtt is on,
        #: chosen so that R(q_setpoint) = R0 per the paper's Section II-B
        #: convention R0 = d + K/C.  Note the fixed-RTT model diverges
        #: whenever W0 = R0 C / N falls below TCP's minimum window of ~2
        #: packets (N > ~41 for the paper's pipe): the queue must then
        #: grow until the *actual* RTT stretches enough to carry N
        #: minimum-size windows, which only the variable-RTT model
        #: captures.  Use variable_rtt=True for large-N experiments.
        self._propagation_delay = max(
            net.rtt * 0.25, net.rtt - queue_setpoint / net.capacity
        )

    def rtt(self, queue: float) -> float:
        """Round-trip time; constant ``R0`` unless ``variable_rtt``."""
        if not self.variable_rtt:
            return self.net.rtt
        return self._propagation_delay + queue / self.net.capacity

    def marking(self, queue: float) -> float:
        """Marking signal p(t) in {0.0, 1.0} for the current queue sample."""
        return 1.0 if self.marker.should_mark(queue) else 0.0

    def rates(
        self, window: float, alpha: float, queue: float, delayed_marking: float
    ) -> Tuple[float, float, float]:
        """Eq. (1)-(3) on plain floats: ``(dW/dt, dalpha/dt, dq/dt)``.

        The one place the equations are written; the integrator's RK4
        substages call it directly, :meth:`derivatives` unpacks a
        :class:`FluidState` into it.
        """
        net = self.net
        r = self.rtt(queue)
        d_window = 1.0 / r - (window * alpha / (2.0 * r)) * delayed_marking
        d_alpha = (net.g / r) * (delayed_marking - alpha)
        d_queue = net.n_flows * window / r - net.capacity
        # Hybrid boundary behaviour: an empty queue cannot drain further,
        # a full buffer cannot grow (arrivals beyond it are dropped).
        if queue <= 0.0 and d_queue < 0.0:
            d_queue = 0.0
        if (
            self.buffer_packets is not None
            and queue >= self.buffer_packets
            and d_queue > 0.0
        ):
            d_queue = 0.0
        return d_window, d_alpha, d_queue

    def derivatives(
        self, state: FluidState, delayed_marking: float
    ) -> Tuple[float, float, float]:
        """``(dW/dt, dalpha/dt, dq/dt)`` given ``p(t - R0)``."""
        return self.rates(state.window, state.alpha, state.queue, delayed_marking)

    def project(
        self, window: float, alpha: float, queue: float
    ) -> Tuple[float, float, float]:
        """Project ``(W, alpha, q)`` back into the physically meaningful region.

        The window floor of one packet mirrors TCP's minimum congestion
        window; without it the fluid flow rate could fall below anything
        a real sender can send, and large-N runs would understate the
        queue pressure that drives the paper's oscillation regime.
        """
        window = max(window, 1.0)
        alpha = min(max(alpha, 0.0), 1.0)
        queue = max(queue, 0.0)
        if self.buffer_packets is not None:
            queue = min(queue, self.buffer_packets)
        return window, alpha, queue

    def clamp(self, state: FluidState) -> FluidState:
        """:meth:`project` on a :class:`FluidState`."""
        return FluidState(*self.project(state.window, state.alpha, state.queue))

    def initial_state(self, queue: float = 0.0) -> FluidState:
        """A conventional start: full pipe per flow, no congestion memory."""
        return FluidState(
            window=max(1.0, self.net.window_at_operating_point), alpha=0.0,
            queue=queue,
        )


def fluid_model(
    net: NetworkParams,
    scheme: MarkingParams,
    buffer_packets: Optional[float] = None,
    variable_rtt: bool = False,
) -> FluidModel:
    """Fluid model marked by ``scheme``: ``p = 1{q >= K}`` for DCTCP's
    relay, the direction-tracking hysteresis for DT-DCTCP.

    The marker runs with no direction deadband: successive samples of
    the smooth fluid queue are compared exactly.
    """
    return FluidModel(
        net,
        scheme.marker(deadband=0.0),
        buffer_packets=buffer_packets,
        variable_rtt=variable_rtt,
        queue_setpoint=scheme.setpoint,
    )
