"""The one-class fluid model and step loop as they stood at 0798c00, kept
as the independent reference.

:func:`repro.fluid.integrator.simulate` now integrates any number of
flow classes through one per-class right-hand side and reads the
delayed marking from the relay's change points.  Before that, the
paper's single-RTT model had its own right-hand side (``rates`` below,
the queue-dependent-RTT branch), its own RK4 loop built a
:class:`ReferenceState` per substage, and the delayed marking came from
a per-step :class:`DelayBuffer` searched with ``bisect``.  All three
are copied here verbatim (the fixed-RTT branch, the buffer's linear
interpolation and the argument validation dropped); nothing here
imports the code under test, so ``test_golden_traces.py`` can hold the
new loop to this one bit for bit on more configurations than the golden
digests cover.
"""

import bisect
import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.core.parameters import NetworkParams


class DelayBuffer:
    """Append-only time series with zero-order-hold historical lookup."""

    def __init__(self, initial_time: float, initial_value: float):
        self._times: List[float] = [initial_time]
        self._values: List[float] = [initial_value]

    def __len__(self) -> int:
        return len(self._times)

    @property
    def latest_time(self) -> float:
        return self._times[-1]

    @property
    def latest_value(self) -> float:
        return self._values[-1]

    def append(self, time: float, value: float) -> None:
        """Record ``value`` at ``time``; time must not move backwards."""
        if time < self._times[-1]:
            raise ValueError(
                f"history must be appended in time order: {time} < {self._times[-1]}"
            )
        self._times.append(time)
        self._values.append(value)

    def value_at(self, time: float) -> float:
        """Value of the last sample at or before ``time``.

        Times before the first sample return the first value (constant
        pre-history, the standard DDE initial condition); times beyond
        the last sample return the last value (needed by Runge-Kutta
        substages that peek marginally past the stored history).
        """
        times = self._times
        if time <= times[0]:
            return self._values[0]
        if time >= times[-1]:
            return self._values[-1]
        hi = bisect.bisect_right(times, time)
        return self._values[hi - 1]

    def trim_before(self, time: float) -> None:
        """Drop samples strictly older than ``time`` (memory bound).

        One sample at-or-before ``time`` is always retained so lookups at
        exactly ``time`` still resolve correctly.
        """
        hi = bisect.bisect_left(self._times, time)
        if hi > 1:
            keep_from = hi - 1
            del self._times[:keep_from]
            del self._values[:keep_from]


@dataclasses.dataclass(frozen=True)
class ReferenceState:
    """Instantaneous one-class state."""

    window: float
    alpha: float
    queue: float


class ReferenceModel:
    """Eq. (1)-(3) for one class on the queue-dependent RTT."""

    def __init__(self, net: NetworkParams, scheme, buffer_packets=None):
        self.net = net
        self.marker = scheme.marker(deadband=0.0)
        self.buffer_packets = buffer_packets
        self._propagation_delay = max(
            net.rtt * 0.25, net.rtt - scheme.setpoint / net.capacity
        )

    def rtt(self, queue: float) -> float:
        return self._propagation_delay + queue / self.net.capacity

    def marking(self, queue: float) -> float:
        return 1.0 if self.marker.should_mark(queue) else 0.0

    def rates(
        self, window: float, alpha: float, queue: float, delayed_marking: float
    ) -> Tuple[float, float, float]:
        net = self.net
        r = self.rtt(queue)
        d_window = 1.0 / r - (window * alpha / (2.0 * r)) * delayed_marking
        d_alpha = (net.g / r) * (delayed_marking - alpha)
        d_queue = net.n_flows * window / r - net.capacity
        if queue <= 0.0 and d_queue < 0.0:
            d_queue = 0.0
        if (
            self.buffer_packets is not None
            and queue >= self.buffer_packets
            and d_queue > 0.0
        ):
            d_queue = 0.0
        return d_window, d_alpha, d_queue

    def derivatives(self, state: ReferenceState, delayed_marking: float):
        return self.rates(state.window, state.alpha, state.queue, delayed_marking)

    def project(self, window: float, alpha: float, queue: float):
        window = max(window, 1.0)
        alpha = min(max(alpha, 0.0), 1.0)
        queue = max(queue, 0.0)
        if self.buffer_packets is not None:
            queue = min(queue, self.buffer_packets)
        return window, alpha, queue

    def clamp(self, state: ReferenceState) -> ReferenceState:
        return ReferenceState(*self.project(state.window, state.alpha, state.queue))

    def initial_state(self, queue: float = 0.0) -> ReferenceState:
        return ReferenceState(
            window=max(1.0, self.net.window_at_operating_point), alpha=0.0,
            queue=queue,
        )


def _advance(state, derivative, h):
    """Euler half-step helper for the RK4 substages."""
    return ReferenceState(
        window=state.window + h * derivative[0],
        alpha=state.alpha + h * derivative[1],
        queue=max(0.0, state.queue + h * derivative[2]),
    )


def simulate_reference(
    model: ReferenceModel,
    duration: float,
    dt: Optional[float] = None,
    initial_state: Optional[ReferenceState] = None,
    record_every: int = 1,
):
    """``(time, window, alpha, queue, marking)`` arrays of one run."""
    r0 = model.net.rtt
    if dt is None:
        dt = r0 / 40.0

    model.marker.reset()
    state = initial_state if initial_state is not None else model.initial_state()
    state = model.clamp(state)

    marking_history = DelayBuffer(0.0, 0.0)
    p_now = model.marking(state.queue)
    marking_history.append(0.0, p_now)

    n_steps = int(round(duration / dt))
    times = [0.0]
    windows = [state.window]
    alphas = [state.alpha]
    queues = [state.queue]
    markings = [p_now]

    t = 0.0
    for step in range(1, n_steps + 1):
        delayed = marking_history.value_at(t - r0)
        delayed_mid = marking_history.value_at(t + 0.5 * dt - r0)
        delayed_end = marking_history.value_at(t + dt - r0)

        def rhs(s, p_del):
            return model.derivatives(s, p_del)

        k1 = rhs(state, delayed)
        k2 = rhs(_advance(state, k1, 0.5 * dt), delayed_mid)
        k3 = rhs(_advance(state, k2, 0.5 * dt), delayed_mid)
        k4 = rhs(_advance(state, k3, dt), delayed_end)
        state = model.clamp(
            ReferenceState(
                window=state.window
                + dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0,
                alpha=state.alpha
                + dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0,
                queue=state.queue
                + dt * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0,
            )
        )
        t = step * dt
        p_now = model.marking(state.queue)
        marking_history.append(t, p_now)
        if step % 512 == 0:
            marking_history.trim_before(t - 2.0 * r0)

        if step % record_every == 0:
            times.append(t)
            windows.append(state.window)
            alphas.append(state.alpha)
            queues.append(state.queue)
            markings.append(p_now)

    return {
        "time": np.asarray(times),
        "window": np.asarray(windows),
        "alpha": np.asarray(alphas),
        "queue": np.asarray(queues),
        "marking": np.asarray(markings),
    }
