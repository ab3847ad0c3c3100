"""The DCTCP fluid model (paper Eq. 1-3) over ``m >= 1`` flow classes.

Class ``i`` holds ``N_i`` flows of nominal round trip ``R_i``; all of
them share one bottleneck of capacity ``C`` packets/s.  The state is the
per-class window ``W_i`` (packets), the congestion-extent estimate
``alpha_i``, and the bottleneck queue ``q`` (packets):

    dW_i/dt     = 1/R_i(q) - (W_i alpha_i / 2 R_i(q)) p(t - R_i)     (Eq. 1)
    dalpha_i/dt = (g/R_i(q)) (p(t - R_i) - alpha_i)                 (Eq. 2)
    dq/dt       = sum_i N_i W_i / R_i(q) - C                        (Eq. 3)

``p`` is the marking signal produced by a :mod:`repro.core.marking`
mechanism from the queue trajectory — the relay ``1{q >= K}`` for DCTCP
or the direction-tracking hysteresis for DT-DCTCP — and each class reads
it one nominal round trip late.  The RTT grows with the queue,
``R_i(q) = d_i + q/C``, with the propagation part ``d_i`` chosen so that
``R_i(setpoint) = R_i`` (the paper's Section II-B convention
``R0 = d + K/C``).  With a fixed RTT the model has no equilibrium once
``R0 C / N`` falls below two packets, the window full marking holds a
flow at (N > ~41 on the paper's pipe): the queue must grow until the RTT
stretches enough to carry N such windows, which only the
queue-dependent RTT captures.  At the operating point the
queue-dependent terms of Eq. 1-2 vanish, so the model's Jacobian there
is exactly the paper's Eq. 10-12.

The paper's single-RTT model is the one-class case (:func:`fluid_model`).
Several classes ask whether DT-DCTCP's advantage survives RTT spread.

The queue is clipped at zero and (optionally) at a finite buffer, making
the model a hybrid system exactly like the real switch.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.marking import Marker, MarkingParams
from repro.core.parameters import NetworkParams

__all__ = ["FlowClass", "FluidState", "FluidModel", "fluid_model"]

#: ``(W_i, alpha_i, q, p(t - R_i)) -> (dW_i/dt, dalpha_i/dt, N_i W_i / R_i(q))``
ClassRhs = Callable[[float, float, float, float], Tuple[float, float, float]]


def require_positive(name: str, value: float) -> None:
    """Reject ``value`` unless it is a positive finite number.

    ``not (x > 0)`` rather than ``x <= 0``: NaN fails both comparisons
    and would otherwise pass as a value that silently disables a check.
    """
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclasses.dataclass(frozen=True)
class FlowClass:
    """``n_flows`` flows of nominal round trip ``rtt`` seconds."""

    n_flows: int
    rtt: float

    def __post_init__(self) -> None:
        require_positive("FlowClass.n_flows", self.n_flows)
        if not float(self.n_flows).is_integer():
            raise ValueError(
                f"FlowClass.n_flows must be a whole number, got {self.n_flows}"
            )
        require_positive("FlowClass.rtt", self.rtt)


@dataclasses.dataclass(frozen=True)
class FluidState:
    """Instantaneous fluid-model state, one window and alpha per class."""

    window: Tuple[float, ...]  #: per-flow congestion window W_i (packets)
    alpha: Tuple[float, ...]  #: congestion-extent EWMA alpha_i
    queue: float  #: bottleneck queue q (packets)


class FluidModel:
    """Eq. (1)-(3) over flow classes with a pluggable marking mechanism.

    The marking signal is evaluated *causally along the trajectory*: the
    integrator feeds each new queue sample through :meth:`marking`, which
    lets stateful mechanisms (DT-DCTCP's hysteresis) follow the queue's
    direction, and reads the result back ``R_i`` later for class ``i``.
    """

    def __init__(
        self,
        capacity: float,
        classes: Sequence[FlowClass],
        marker: Marker,
        g: float = 1.0 / 16.0,
        buffer_packets: Optional[float] = None,
        queue_setpoint: float = 40.0,
    ):
        require_positive("capacity", capacity)
        if not classes:
            raise ValueError("classes must hold at least one FlowClass")
        if not 0.0 < g < 1.0:
            raise ValueError(f"g must lie in (0, 1), got {g}")
        if buffer_packets is not None:
            require_positive("buffer_packets", buffer_packets)
        if not (queue_setpoint >= 0 and math.isfinite(queue_setpoint)):
            raise ValueError(
                f"queue_setpoint must be >= 0 and finite, got {queue_setpoint}"
            )
        self.capacity = capacity
        self.classes = tuple(classes)
        self.marker = marker
        self.g = g
        self.buffer_packets = buffer_packets
        #: Propagation part ``d_i`` of each class's RTT, so that
        #: ``R_i(queue_setpoint) = R_i``; floored at ``R_i / 4`` for
        #: setpoints beyond three quarters of the pipe.
        self.delays = tuple(
            max(c.rtt * 0.25, c.rtt - queue_setpoint / capacity)
            for c in self.classes
        )

    def marking(self, queue: float) -> float:
        """Marking signal p(t) in {0.0, 1.0} for the current queue sample."""
        return 1.0 if self.marker.should_mark(queue) else 0.0

    def class_rhs(self, i: int) -> ClassRhs:
        """Class ``i``'s right-hand side: Eq. (1)-(2) and its Eq. (3) inflow.

        The one place the equations are written.  The integrator's RK4
        substages, :meth:`throughput` (on whole trace columns) and the
        linearisation check all call it; :meth:`queue_rate` turns the
        summed inflows into ``dq/dt``.
        """
        n = self.classes[i].n_flows
        d = self.delays[i]
        capacity = self.capacity
        g = self.g

        def rhs(window, alpha, queue, delayed_marking):
            r = d + queue / capacity
            return (
                1.0 / r - (window * alpha / (2.0 * r)) * delayed_marking,
                (g / r) * (delayed_marking - alpha),
                n * window / r,
            )

        return rhs

    def queue_rate(self, inflow: float, queue: float) -> float:
        """``dq/dt`` for the summed class inflow at queue ``queue``.

        Hybrid boundary behaviour: an empty queue cannot drain further,
        a full buffer cannot grow (arrivals beyond it are dropped).
        """
        d_queue = inflow - self.capacity
        if queue <= 0.0 and d_queue < 0.0:
            return 0.0
        if (
            self.buffer_packets is not None
            and queue >= self.buffer_packets
            and d_queue > 0.0
        ):
            return 0.0
        return d_queue

    def initial_state(self, queue: float = 0.0) -> FluidState:
        """A conventional start: the pipe split evenly over every flow
        (``W_i = R_i C / sum N``), no congestion memory."""
        total = sum(c.n_flows for c in self.classes)
        return FluidState(
            window=tuple(
                max(1.0, c.rtt * self.capacity / total) for c in self.classes
            ),
            alpha=(0.0,) * len(self.classes),
            queue=queue,
        )

    def throughput(self, trace) -> np.ndarray:
        """Per-class mean aggregate rate (packets/s) over a
        :class:`~repro.fluid.integrator.FluidTrace`: the sample-wise mean
        of the inflow ``N_i W_i / R_i(q)``, at the RTT the rates used."""
        return np.array(
            [
                float(np.mean(
                    self.class_rhs(i)(
                        trace.window[:, i], trace.alpha[:, i], trace.queue, 0.0
                    )[2]
                ))
                for i in range(len(self.classes))
            ]
        )


def fluid_model(
    net: NetworkParams,
    scheme: MarkingParams,
    buffer_packets: Optional[float] = None,
) -> FluidModel:
    """The paper's one-class model, marked by ``scheme``: ``p = 1{q >= K}``
    for DCTCP's relay, the direction-tracking hysteresis for DT-DCTCP.

    The marker runs with no direction deadband: successive samples of
    the smooth fluid queue are compared exactly.
    """
    return FluidModel(
        net.capacity,
        (FlowClass(net.n_flows, net.rtt),),
        scheme.marker(deadband=0.0),
        g=net.g,
        buffer_packets=buffer_packets,
        queue_setpoint=scheme.setpoint,
    )
