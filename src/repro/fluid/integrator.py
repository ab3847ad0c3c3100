"""Fixed-step integrator for the delayed fluid model.

The model is a delay-differential equation: class ``i``'s RHS at ``t``
consumes the marking signal at ``t - R_i``.  We integrate with the
classical fixed-step fourth-order Runge-Kutta scheme.  The relay output
is piecewise constant, so the marking history is kept as its *change
points* only (zero-order hold — higher-order interpolation would invent
values the switch never produced), with one read cursor per class; the
pre-history is unmarked, ``p(s <= 0) = 0``.

The relay makes the RHS discontinuous, which caps the *observed* order
at one across switching instants; RK4 still pays for itself between
switches and is cheap.  The default step is ``min R_i / 40``, giving
dozens of samples per oscillation period at the frequencies predicted
by the DF analysis (w ~ 1e4 rad/s for the paper's configuration).

The step is straight-line float arithmetic on locals.  Each RK4 stage
writes :meth:`FluidModel.class_rhs` and :meth:`FluidModel.queue_rate`
out inline, from the model's constants read once before the loop, and
the step calls the marker's ``should_mark`` once (which is what
:meth:`FluidModel.marking` does): a closure, method or builtin call per
stage would cost more than the stage's arithmetic.  The projections
onto the physical region are comparisons, not ``max``/``min`` calls.
They return the same float for every input, ``-0.0`` and NaN included,
because ``max`` and ``min`` return their first argument unless a later
one compares strictly greater (smaller):

* ``max(0.0, x)`` is ``x if x > 0.0 else 0.0``;
* ``max(x, 1.0)`` is ``1.0 if 1.0 > x else x``;
* ``min(y, c)`` is ``c if c < y else y``.

``tests/fluid/test_integrator.py``'s ``TestInlineStages`` holds every
sample, bit for bit, to an RK4 step that calls ``class_rhs``,
``queue_rate`` and ``marking``, over one to three classes and both
schemes; ``golden_fluid_digests.json`` pins six trajectories; and
``test_integrator_census.py`` counts the calls a step makes.

The result is a :class:`FluidTrace` of aligned numpy arrays with
convenience statistics matching what the paper's figures report (mean
queue, standard deviation, oscillation amplitude, mean alpha).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Optional

import numpy as np

from repro.fluid.model import FluidModel, FluidState, require_positive
from repro.stats import dominant_frequency, oscillation_amplitude

__all__ = ["FluidTrace", "simulate"]


@dataclasses.dataclass(frozen=True)
class FluidTrace:
    """Time-aligned fluid trajectory with figure-ready statistics.

    ``window`` and ``alpha`` are ``(samples, classes)`` arrays; ``time``,
    ``queue`` and ``marking`` have one entry per sample.
    """

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
        The :class:`FluidModel` (its flow classes and marking mechanism).
    duration:
        Simulated time span in seconds.
    dt:
        Integration step; defaults to ``min R_i / 40``.
    initial_state:
        Starting state; defaults to :meth:`FluidModel.initial_state`
        (the pipe split evenly over the flows, empty queue), which
        reproduces the synchronized-start scenario of Section VI-A.
        Every value must be finite; finite values outside the physical
        region are projected onto it.
    record_every:
        Keep one sample every this many steps, a whole number ``>= 1``
        (memory control for long runs; statistics are insensitive to
        thinning below the oscillation period).
    """
    require_positive("duration", duration)
    rtts = [c.rtt for c in model.classes]
    if dt is None:
        dt = min(rtts) / 40.0
    if not 0 < dt <= min(rtts):
        raise ValueError(f"dt must lie in (0, min R_i={min(rtts)}], got {dt}")
    if not (isinstance(record_every, numbers.Integral) and record_every >= 1):
        raise ValueError(
            f"record_every must be an integer >= 1, got {record_every!r}"
        )
    state = initial_state if initial_state is not None else model.initial_state()
    m = len(rtts)
    if len(state.window) != m or len(state.alpha) != m:
        raise ValueError(
            f"initial_state needs one window and alpha per class ({m})"
        )
    for name, values in (
        ("window", state.window), ("alpha", state.alpha), ("queue", (state.queue,))
    ):
        if not all(map(math.isfinite, values)):
            raise ValueError(f"initial_state.{name} must be finite, got {values}")

    model.marker.reset()
    should_mark = model.marker.should_mark
    capacity = model.capacity
    g = model.g
    flows = [c.n_flows for c in model.classes]
    delays = list(model.delays)
    # Without a buffer, the stages' full-buffer test ``q >= buffer`` can
    # only hold at q = inf, where every inflow is 0 or NaN and dq/dt is
    # never positive: it agrees with queue_rate's ``is not None``.
    buffer = math.inf if model.buffer_packets is None else model.buffer_packets
    classes = range(m)

    # Projection onto the physical region: a window floor of one packet
    # (TCP's minimum cwnd - without it large-N runs would understate the
    # queue pressure behind the oscillation), alpha in [0, 1], and the
    # queue in [0, buffer].  The step below repeats these projections.
    w = [max(x, 1.0) for x in state.window]
    a = [min(max(x, 0.0), 1.0) for x in state.alpha]
    q = min(max(state.queue, 0.0), buffer)
    p_now = 1.0 if should_mark(q) else 0.0

    # The marking history as change points: p(s) = values[j] for
    # changes[j] <= s < changes[j + 1].  The first change sits at the
    # smallest float above zero, so p(s <= 0) = 0 even when p(0) = 1,
    # and the trailing inf is a sentinel for the forward scans.
    # cursor[i] is where class i's earliest read of a step, t - R_i,
    # landed; that read never moves backwards from step to step (t is
    # step * dt), while the step's later reads t + dt/2 - R_i and
    # t + dt - R_i scan forward from it.  Keeping the cursor at the
    # latest read instead would have to step back: (k + 1) * dt can
    # land one ulp below k * dt + dt.
    changes = [-math.inf, math.nextafter(0.0, 1.0), math.inf]
    values = [0.0, p_now]
    cursor = [0] * m
    p2 = [0.0] * m
    p4 = [0.0] * m
    w1, a1, w2, a2, w3, a3 = ([0.0] * m for _ in range(6))

    n_steps = int(round(duration / dt))
    times = [0.0]
    windows = list(w)
    alphas = list(a)
    queues = [q]
    markings = [p_now]

    # Each stage is FluidModel.class_rhs and queue_rate written out on
    # local floats (see the module docstring); the one call per step is
    # the marker's.  Every expression keeps the association it has
    # always had - ``dt * (k1 + 2 k2 + 2 k3 + k4) / 6.0``, the delayed
    # time as ``t + h - R_i`` - because regrouping any of them moves the
    # trajectory's last bits (tests/fluid/golden_fluid_digests.json pins
    # them).  ``q / C`` is shared by the classes of a stage: it is the
    # same float in every class's ``R_i(q) = d_i + q / C``.
    half = 0.5 * dt
    t = 0.0
    for step in range(1, n_steps + 1):
        # Stage 1, with each class's three delayed reads of p.
        x = q / capacity
        inflow = 0.0
        for i in classes:
            rtt = rtts[i]
            j = cursor[i]
            s = t - rtt
            while changes[j + 1] <= s:
                j += 1
            cursor[i] = j
            p = values[j]
            s = t + half - rtt
            while changes[j + 1] <= s:
                j += 1
            p2[i] = values[j]
            s = t + dt - rtt
            while changes[j + 1] <= s:
                j += 1
            p4[i] = values[j]
            wi = w[i]
            ai = a[i]
            r = delays[i] + x
            w1[i] = 1.0 / r - (wi * ai / (2.0 * r)) * p
            a1[i] = (g / r) * (p - ai)
            inflow += flows[i] * wi / r
        q1 = inflow - capacity
        if q <= 0.0 and q1 < 0.0 or q >= buffer and q1 > 0.0:
            q1 = 0.0

        qs = q + half * q1
        qs = qs if qs > 0.0 else 0.0
        x = qs / capacity
        inflow = 0.0
        for i in classes:
            p = p2[i]
            wi = w[i] + half * w1[i]
            ai = a[i] + half * a1[i]
            r = delays[i] + x
            w2[i] = 1.0 / r - (wi * ai / (2.0 * r)) * p
            a2[i] = (g / r) * (p - ai)
            inflow += flows[i] * wi / r
        q2 = inflow - capacity
        if qs <= 0.0 and q2 < 0.0 or qs >= buffer and q2 > 0.0:
            q2 = 0.0

        qs = q + half * q2
        qs = qs if qs > 0.0 else 0.0
        x = qs / capacity
        inflow = 0.0
        for i in classes:
            p = p2[i]
            wi = w[i] + half * w2[i]
            ai = a[i] + half * a2[i]
            r = delays[i] + x
            w3[i] = 1.0 / r - (wi * ai / (2.0 * r)) * p
            a3[i] = (g / r) * (p - ai)
            inflow += flows[i] * wi / r
        q3 = inflow - capacity
        if qs <= 0.0 and q3 < 0.0 or qs >= buffer and q3 > 0.0:
            q3 = 0.0

        # Stage 4, with each class's update: class i's new window and
        # alpha read only its own four slopes.
        qs = q + dt * q3
        qs = qs if qs > 0.0 else 0.0
        x = qs / capacity
        inflow = 0.0
        for i in classes:
            p = p4[i]
            wi = w[i] + dt * w3[i]
            ai = a[i] + dt * a3[i]
            r = delays[i] + x
            w4 = 1.0 / r - (wi * ai / (2.0 * r)) * p
            a4 = (g / r) * (p - ai)
            inflow += flows[i] * wi / r
            wi = w[i] + dt * (w1[i] + 2 * w2[i] + 2 * w3[i] + w4) / 6.0
            w[i] = 1.0 if 1.0 > wi else wi
            ai = a[i] + dt * (a1[i] + 2 * a2[i] + 2 * a3[i] + a4) / 6.0
            ai = 0.0 if 0.0 > ai else ai
            a[i] = 1.0 if 1.0 < ai else ai
        q4 = inflow - capacity
        if qs <= 0.0 and q4 < 0.0 or qs >= buffer and q4 > 0.0:
            q4 = 0.0

        q = q + dt * (q1 + 2 * q2 + 2 * q3 + q4) / 6.0
        q = 0.0 if 0.0 > q else q
        q = buffer if buffer < q else q
        t = step * dt
        p_now = 1.0 if should_mark(q) else 0.0
        if p_now != values[-1]:
            changes[-1] = t
            changes.append(math.inf)
            values.append(p_now)

        if step % record_every == 0:
            times.append(t)
            windows.extend(w)
            alphas.extend(a)
            queues.append(q)
            markings.append(p_now)

    return FluidTrace(
        time=np.asarray(times),
        window=np.asarray(windows).reshape(-1, m),
        alpha=np.asarray(alphas).reshape(-1, m),
        queue=np.asarray(queues),
        marking=np.asarray(markings),
    )
