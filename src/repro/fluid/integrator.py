"""Fixed-step integrator for the delayed fluid model.

The model is a delay-differential equation: the RHS at ``t`` consumes the
marking signal at ``t - R0``.  We integrate with the classical
fixed-step fourth-order Runge-Kutta scheme, looking up the delayed
marking in a :class:`~repro.fluid.delay_buffer.DelayBuffer` (zero-order
hold — the relay output is piecewise constant, so higher-order
interpolation would invent values the switch never produced).

The relay makes the RHS discontinuous, which caps the *observed* order
at one across switching instants; RK4 still pays for itself between
switches and is cheap.  The default step is ``R0 / 40``, giving dozens
of samples per oscillation period at the frequencies predicted by the
DF analysis (w ~ 1e4 rad/s for the paper's configuration).

The result is a :class:`FluidTrace` of aligned numpy arrays with
convenience statistics matching what the paper's figures report (mean
queue, standard deviation, oscillation amplitude, mean alpha).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.fluid.delay_buffer import DelayBuffer
from repro.fluid.model import FluidModel, FluidState
from repro.stats import dominant_frequency, oscillation_amplitude

__all__ = ["FluidTrace", "simulate"]


@dataclasses.dataclass(frozen=True)
class FluidTrace:
    """Time-aligned fluid trajectory with figure-ready statistics."""

    time: np.ndarray
    window: np.ndarray
    alpha: np.ndarray
    queue: np.ndarray
    marking: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.time)
        for name in ("window", "alpha", "queue", "marking"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"trace array {name!r} length mismatch")

    def after(self, t0: float) -> "FluidTrace":
        """Sub-trace from ``t0`` on (drop the transient before statistics)."""
        mask = self.time >= t0
        return FluidTrace(
            time=self.time[mask],
            window=self.window[mask],
            alpha=self.alpha[mask],
            queue=self.queue[mask],
            marking=self.marking[mask],
        )

    @property
    def mean_queue(self) -> float:
        return float(np.mean(self.queue))

    @property
    def std_queue(self) -> float:
        return float(np.std(self.queue))

    @property
    def mean_alpha(self) -> float:
        return float(np.mean(self.alpha))

    @property
    def queue_amplitude(self) -> float:
        """Half the steady peak-to-trough queue swing, comparable to the
        DF prediction's amplitude ``X`` — the estimator the packet-level
        traces go through (:func:`repro.stats.oscillation_amplitude`)."""
        return oscillation_amplitude(self.queue)

    def dominant_frequency(self) -> float:
        """Angular frequency (rad/s) of the strongest queue spectral line,
        comparable to the DF prediction's ``w``
        (:func:`repro.stats.dominant_frequency` at the trace's step)."""
        if len(self.time) < 2:
            raise ValueError("trace too short for spectral analysis")
        return dominant_frequency(
            self.queue, float(self.time[1] - self.time[0])
        )


def simulate(
    model: FluidModel,
    duration: float,
    dt: Optional[float] = None,
    initial_state: Optional[FluidState] = None,
    record_every: int = 1,
) -> FluidTrace:
    """Integrate the delayed fluid model for ``duration`` seconds.

    Parameters
    ----------
    model:
        The :class:`FluidModel` (DCTCP or DT-DCTCP marking).
    duration:
        Simulated time span in seconds.
    dt:
        Integration step; defaults to ``R0 / 40``.
    initial_state:
        Starting state; defaults to :meth:`FluidModel.initial_state`
        (full per-flow window, empty queue) which reproduces the
        synchronized-start scenario of Section VI-A.
    record_every:
        Keep one sample every this many steps (memory control for long
        runs; statistics are insensitive to thinning below the
        oscillation period).
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    r0 = model.net.rtt
    if dt is None:
        dt = r0 / 40.0
    if dt <= 0 or dt > r0:
        raise ValueError(f"dt must lie in (0, R0={r0}], got {dt}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")

    model.marker.reset()
    state = initial_state if initial_state is not None else model.initial_state()
    w, a, q = model.project(state.window, state.alpha, state.queue)

    # Pre-history: no marking before t = 0 (queues start uncongested).
    marking_history = DelayBuffer(0.0, 0.0, interpolation="previous")
    p_now = model.marking(q)
    marking_history.append(0.0, p_now)

    n_steps = int(round(duration / dt))
    times = [0.0]
    windows = [w]
    alphas = [a]
    queues = [q]
    markings = [p_now]

    # The step runs on plain floats.  Every expression keeps the
    # association it has always had - ``dt * (k1 + 2 k2 + 2 k3 + k4) /
    # 6.0``, ``max(0.0, q + h k)``, the delayed time as ``t + h - r0`` -
    # because regrouping any of them moves the trajectory's last bits
    # (tests/fluid/golden_fluid_digests.json pins them).
    rates = model.rates
    project = model.project
    marking = model.marking
    delayed_at = marking_history.value_at
    half = 0.5 * dt
    t = 0.0
    for step in range(1, n_steps + 1):
        p_mid = delayed_at(t + half - r0)
        w1, a1, q1 = rates(w, a, q, delayed_at(t - r0))
        w2, a2, q2 = rates(
            w + half * w1, a + half * a1, max(0.0, q + half * q1), p_mid
        )
        w3, a3, q3 = rates(
            w + half * w2, a + half * a2, max(0.0, q + half * q2), p_mid
        )
        w4, a4, q4 = rates(
            w + dt * w3, a + dt * a3, max(0.0, q + dt * q3),
            delayed_at(t + dt - r0),
        )
        w, a, q = project(
            w + dt * (w1 + 2 * w2 + 2 * w3 + w4) / 6.0,
            a + dt * (a1 + 2 * a2 + 2 * a3 + a4) / 6.0,
            q + dt * (q1 + 2 * q2 + 2 * q3 + q4) / 6.0,
        )
        t = step * dt
        p_now = marking(q)
        marking_history.append(t, p_now)
        # Keep just over one delay's worth of marking history.
        if step % 512 == 0:
            marking_history.trim_before(t - 2.0 * r0)

        if step % record_every == 0:
            times.append(t)
            windows.append(w)
            alphas.append(a)
            queues.append(q)
            markings.append(p_now)

    return FluidTrace(
        time=np.asarray(times),
        window=np.asarray(windows),
        alpha=np.asarray(alphas),
        queue=np.asarray(queues),
        marking=np.asarray(markings),
    )
