"""Multi-class fluid model: heterogeneous RTTs sharing one bottleneck.

The paper's fluid model (Eq. 1-3) assumes every flow sees the same RTT.
Real racks do not, and RTT spread desynchronises the window sawteeth.
This extension generalises the model to ``m`` flow classes, each with
its own count ``N_i`` and round-trip ``R_i``, all marked by the same
switch mechanism:

    dW_i/dt     = 1/R_i - (W_i alpha_i / 2 R_i) p(t - R_i)
    dalpha_i/dt = (g/R_i) (p(t - R_i) - alpha_i)
    dq/dt       = sum_i N_i W_i / R_i - C

Each class reads the marking signal at its *own* delay, so the DDE has
one delay per class.  With a single class this reduces exactly to
:mod:`repro.fluid.model` (tested).

The headline question it answers: does DT-DCTCP's stability advantage
survive RTT heterogeneity?  (It does — ``tests/claims/test_extensions.py``
asserts it at four RTT mixes.)
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.marking import Marker
from repro.fluid.delay_buffer import DelayBuffer

__all__ = ["FlowClass", "MultiClassModel", "MultiClassTrace", "simulate_multiclass"]


@dataclasses.dataclass(frozen=True)
class FlowClass:
    """One homogeneous group of flows."""

    n_flows: int
    rtt: float

    def __post_init__(self) -> None:
        if self.n_flows <= 0:
            raise ValueError(f"n_flows must be positive, got {self.n_flows}")
        if self.rtt <= 0:
            raise ValueError(f"rtt must be positive, got {self.rtt}")


class MultiClassModel:
    """RHS of the multi-delay fluid system with a pluggable marker."""

    def __init__(
        self,
        capacity: float,
        classes: Sequence[FlowClass],
        marker: Marker,
        g: float = 1.0 / 16.0,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not classes:
            raise ValueError("need at least one flow class")
        if not 0.0 < g < 1.0:
            raise ValueError(f"g must lie in (0, 1), got {g}")
        self.capacity = capacity
        self.classes = list(classes)
        self.marker = marker
        self.g = g
        #: Per-class round trips and flow counts, in ``classes`` order.
        self.rtts = np.array([c.rtt for c in self.classes])
        self.counts = np.array([float(c.n_flows) for c in self.classes])

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def marking(self, queue: float) -> float:
        return 1.0 if self.marker.should_mark(queue) else 0.0

    def derivatives(
        self,
        windows: np.ndarray,
        alphas: np.ndarray,
        queue: float,
        delayed_markings: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Per-class window/alpha derivatives plus the queue derivative."""
        rtts = self.rtts
        d_w = 1.0 / rtts - (windows * alphas / (2.0 * rtts)) * delayed_markings
        d_a = (self.g / rtts) * (delayed_markings - alphas)
        d_q = float(np.sum(self.counts * windows / rtts) - self.capacity)
        if queue <= 0.0 and d_q < 0.0:
            d_q = 0.0
        return d_w, d_a, d_q


@dataclasses.dataclass(frozen=True)
class MultiClassTrace:
    """Trajectory of the multi-class system."""

    time: np.ndarray
    windows: np.ndarray  # shape (samples, classes)
    alphas: np.ndarray  # shape (samples, classes)
    queue: np.ndarray
    classes: Tuple[FlowClass, ...]

    def after(self, t0: float) -> "MultiClassTrace":
        mask = self.time >= t0
        return MultiClassTrace(
            time=self.time[mask],
            windows=self.windows[mask],
            alphas=self.alphas[mask],
            queue=self.queue[mask],
            classes=self.classes,
        )

    @property
    def mean_queue(self) -> float:
        return float(np.mean(self.queue))

    @property
    def std_queue(self) -> float:
        return float(np.std(self.queue))

    def class_throughput(self) -> np.ndarray:
        """Mean per-class aggregate rate ``N_i W_i / R_i`` (packets/s)."""
        return np.array(
            [
                float(np.mean(self.windows[:, i])) * c.n_flows / c.rtt
                for i, c in enumerate(self.classes)
            ]
        )


def simulate_multiclass(
    model: MultiClassModel,
    duration: float,
    dt: Optional[float] = None,
    initial_queue: float = 0.0,
    record_every: int = 1,
) -> MultiClassTrace:
    """Fixed-step RK4 integration with one marking delay line per class."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    min_rtt = min(c.rtt for c in model.classes)
    if dt is None:
        dt = min_rtt / 40.0
    if dt <= 0 or dt > min_rtt:
        raise ValueError(f"dt must lie in (0, min RTT], got {dt}")

    model.marker.reset()
    m = model.n_classes
    rtts = model.rtts
    counts = model.counts
    # Start at full fair share per class, no congestion memory.
    windows = model.capacity * rtts / counts / m
    windows = np.maximum(windows, 1.0)
    alphas = np.zeros(m)
    queue = float(initial_queue)

    history = DelayBuffer(0.0, 0.0, interpolation="previous")
    history.append(0.0, model.marking(queue))

    n_steps = int(round(duration / dt))
    times: List[float] = [0.0]
    window_log: List[np.ndarray] = [windows.copy()]
    alpha_log: List[np.ndarray] = [alphas.copy()]
    queue_log: List[float] = [queue]

    def delayed(now: float) -> np.ndarray:
        return np.array([history.value_at(now - r) for r in rtts])

    rhs = model.derivatives
    t = 0.0
    for step in range(1, n_steps + 1):
        p0 = delayed(t)
        p_mid = delayed(t + dt / 2.0)
        p_end = delayed(t + dt)

        k1 = rhs(windows, alphas, queue, p0)
        k2 = rhs(
            windows + dt / 2 * k1[0],
            alphas + dt / 2 * k1[1],
            max(queue + dt / 2 * k1[2], 0.0),
            p_mid,
        )
        k3 = rhs(
            windows + dt / 2 * k2[0],
            alphas + dt / 2 * k2[1],
            max(queue + dt / 2 * k2[2], 0.0),
            p_mid,
        )
        k4 = rhs(
            windows + dt * k3[0],
            alphas + dt * k3[1],
            max(queue + dt * k3[2], 0.0),
            p_end,
        )
        windows = windows + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        alphas = alphas + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        queue = queue + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])

        windows = np.maximum(windows, 1.0)
        alphas = np.clip(alphas, 0.0, 1.0)
        queue = max(queue, 0.0)

        t = step * dt
        history.append(t, model.marking(queue))
        if step % 512 == 0:
            history.trim_before(t - 2.0 * float(np.max(rtts)))
        if step % record_every == 0:
            times.append(t)
            window_log.append(windows.copy())
            alpha_log.append(alphas.copy())
            queue_log.append(queue)

    return MultiClassTrace(
        time=np.asarray(times),
        windows=np.asarray(window_log),
        alphas=np.asarray(alpha_log),
        queue=np.asarray(queue_log),
        classes=tuple(model.classes),
    )
