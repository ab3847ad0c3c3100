"""The integrator's pre-scalar step loop, kept as the reference.

Until PR 17 :func:`repro.fluid.integrator.simulate` built a
:class:`FluidState` for every RK4 substage and went through
``FluidModel.derivatives`` / ``clamp`` on those objects.  This is that
loop verbatim (argument validation dropped); it is not selectable in
``src/`` and exists so ``test_golden_traces.py`` can hold the scalar
loop to it bit for bit on more configurations than the golden digests
cover.
"""

import numpy as np

from repro.fluid.delay_buffer import DelayBuffer
from repro.fluid.integrator import FluidTrace
from repro.fluid.model import FluidState


def _advance(state, derivative, h):
    """Euler half-step helper for the RK4 substages."""
    return FluidState(
        window=state.window + h * derivative[0],
        alpha=state.alpha + h * derivative[1],
        queue=max(0.0, state.queue + h * derivative[2]),
    )


def simulate_reference(model, duration, dt=None, initial_state=None, record_every=1):
    r0 = model.net.rtt
    if dt is None:
        dt = r0 / 40.0

    model.marker.reset()
    state = initial_state if initial_state is not None else model.initial_state()
    state = model.clamp(state)

    marking_history = DelayBuffer(0.0, 0.0, interpolation="previous")
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
            FluidState(
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

    return FluidTrace(
        time=np.asarray(times),
        window=np.asarray(windows),
        alpha=np.asarray(alphas),
        queue=np.asarray(queues),
        marking=np.asarray(markings),
    )
