"""ECN marking schemes — the paper's primary contribution.

A *scheme* is one frozen parameter class — :class:`SingleThresholdParams`
(DCTCP's relay at ``K``) or :class:`DoubleThresholdParams` (DT-DCTCP's
hysteresis between ``K1`` and ``K2``) — and it is the only place that
knows the scheme: its thresholds and display label, the marker state
machine it runs in a switch, its describing function in closed form
(Eq. 22 / 27) and the landmarks of that DF the stability analysis reads.
The analysis, the fluid model, the packet simulator, the campaign grid
and the CLI all ask the object; :func:`scheme_for` is the one place a
bare threshold tuple is turned into one.

The marker objects drive both the fluid model (queried with a
continuous queue level) and the packet simulator (queried on every packet
arrival at a switch output queue).

* :class:`SingleThresholdMarker` is DCTCP's stock rule: mark the arriving
  packet iff the instantaneous queue occupancy is at least ``K``
  (Figure 2a).
* :class:`DoubleThresholdMarker` is DT-DCTCP (Figure 2b): a direction-
  tracking hysteresis loop.  Marking turns ON when the queue rises through
  the *lower* threshold ``K1`` and turns OFF when the queue falls through
  the *higher* threshold ``K2`` — start early, stop early.  For a
  sinusoidal queue this produces exactly the waveform integrated in the
  paper's Figure 8 (ON for phase ``arcsin(K1/X) .. pi - arcsin(K2/X)``).
* :class:`REDMarker` is a classic RED probabilistic marker, included as an
  extra baseline for the mechanism bake-off.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Protocol, Sequence, Tuple, Union, runtime_checkable

import numpy as np

from repro.core.describing_function import (
    df_double_threshold,
    df_single_threshold,
    neg_inv_relative_df,
)

__all__ = [
    "SingleThresholdParams",
    "DoubleThresholdParams",
    "MarkingParams",
    "scheme_for",
    "Marker",
    "SingleThresholdMarker",
    "DoubleThresholdMarker",
    "REDMarker",
    "NullMarker",
    "DEFAULT_DIRECTION_DEADBAND",
]

#: Direction deadband (packets) for DT-DCTCP hysteresis at packet
#: granularity: wide enough to reject the +-1 packet arrival jitter,
#: narrow enough to stay well inside the paper's 20-packet threshold
#: gap.  Configurations with narrower gaps must shrink it accordingly.
DEFAULT_DIRECTION_DEADBAND = 2.0


def _check_threshold(name: str, value: float) -> None:
    # ``not (x > 0)`` rather than ``x <= 0``: NaN fails both comparisons
    # and would otherwise pass as a threshold that never marks.
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclasses.dataclass(frozen=True)
class SingleThresholdParams:
    """DCTCP's scheme: one marking threshold ``K`` (packets)."""

    k: float

    def __post_init__(self) -> None:
        _check_threshold("marking threshold k", self.k)

    @property
    def thresholds(self) -> Tuple[float, ...]:
        return (self.k,)

    @property
    def label(self) -> str:
        """Display name of the configuration (table rows, case labels)."""
        return f"K={self.k:g}"

    @property
    def setpoint(self) -> float:
        """Queue level the mechanism regulates around (``K`` itself)."""
        return self.k

    @property
    def characteristic_gain(self) -> float:
        """``K0 = 1/K`` used to form the relative DF (paper Eq. 8)."""
        return 1.0 / self.k

    @property
    def amplitude_floor(self) -> float:
        """``K``: the DF's domain edge (``X >= K``) and the multiplier
        of the relative DF ``N0 = K N_dc`` (Eq. 23)."""
        return self.k

    def df(self, amplitude: float, bias: float = 0.0) -> complex:
        """The relay's describing function, paper Eq. (22)."""
        return df_single_threshold(amplitude, self.k, bias)

    def rightmost(self) -> complex:
        """Rightmost point of the ``-1/N0dc`` locus (Theorem 1's landmark).

        ``-1/N0dc = -pi X / (2 K sqrt(1-(K/X)^2))`` is maximised (least
        negative) at ``X = K sqrt(2)`` with value exactly ``-pi`` —
        independent of K, which is why the sufficient condition compares
        the plant locus against a fixed landmark.
        """
        return complex(-math.pi, 0.0)

    def worst_case_amplitude(self) -> float:
        """Amplitude maximising the DF magnitude: ``K sqrt(2)``."""
        return self.k * math.sqrt(2.0)

    def marker(self, deadband: Optional[float] = None) -> "SingleThresholdMarker":
        """A fresh switch marker (the relay is memoryless: no deadband)."""
        return SingleThresholdMarker(self)


@dataclasses.dataclass(frozen=True)
class DoubleThresholdParams:
    """DT-DCTCP's scheme: hysteresis thresholds ``K1 <= K2`` (packets).

    Marking starts when the queue rises through ``k1`` and stops when the
    queue falls through ``k2`` (Section III and Figure 8).
    """

    k1: float
    k2: float

    def __post_init__(self) -> None:
        _check_threshold("k1", self.k1)
        _check_threshold("k2", self.k2)
        if self.k2 < self.k1:
            raise ValueError(
                f"double-threshold requires k1 <= k2, got k1={self.k1}, k2={self.k2}"
            )

    @property
    def thresholds(self) -> Tuple[float, ...]:
        return (self.k1, self.k2)

    @property
    def label(self) -> str:
        """Display name of the configuration (table rows, case labels)."""
        return f"K1={self.k1:g},K2={self.k2:g}"

    @property
    def setpoint(self) -> float:
        """Threshold midpoint; the paper pairs K1=30/K2=50 with K=40."""
        return 0.5 * (self.k1 + self.k2)

    @property
    def characteristic_gain(self) -> float:
        """``K0 = 1/K2`` used to form the relative DF (Theorem 2)."""
        return 1.0 / self.k2

    @property
    def amplitude_floor(self) -> float:
        """``K2``: the DF's domain edge (``X >= K2``) and the multiplier
        of the relative DF ``N0 = K2 N_dt`` (Eq. 28)."""
        return self.k2

    @property
    def gap(self) -> float:
        """Hysteresis width ``K2 - K1``."""
        return self.k2 - self.k1

    def df(self, amplitude: float, bias: float = 0.0) -> complex:
        """The hysteresis loop's describing function, paper Eq. (27)."""
        return df_double_threshold(amplitude, self.k1, self.k2, bias)

    def rightmost(self) -> complex:
        """Point of the ``-1/N0dt`` locus with the largest real part.

        Unlike DCTCP's, DT-DCTCP's locus leaves the real axis, so the
        "maximum" used in Theorem 2 is the locus point whose real part
        is largest.  Found on a geometric amplitude grid (the closed
        form is unwieldy); the first such point wins.
        """
        amplitudes = self.k2 * np.geomspace(1.0 + 1e-9, 50.0, 4096)
        return max(
            (neg_inv_relative_df(self, float(x)) for x in amplitudes),
            key=lambda value: value.real,
        )

    def worst_case_amplitude(self) -> float:
        """Amplitude maximising the DF magnitude, on a geometric grid."""
        amplitudes = self.k2 * np.geomspace(1.0 + 1e-9, 20.0, 4096)
        values = [abs(self.df(float(x))) for x in amplitudes]
        return float(amplitudes[int(np.argmax(values))])

    def marker(self, deadband: Optional[float] = None) -> "DoubleThresholdMarker":
        """A fresh switch marker.

        ``deadband`` is the direction deadband in packets; left unset it
        is the default capped at an eighth of the gap, so narrow
        hysteresis bands do not degenerate into a single threshold.
        """
        if deadband is None:
            deadband = min(DEFAULT_DIRECTION_DEADBAND, self.gap / 8.0)
        return DoubleThresholdMarker(self, deadband=deadband)


MarkingParams = Union[SingleThresholdParams, DoubleThresholdParams]


def scheme_for(thresholds: Sequence[float]) -> MarkingParams:
    """The scheme a bare threshold tuple names.

    ``(K,)`` is DCTCP's relay and ``(K1, K2)`` DT-DCTCP's hysteresis;
    anything else — ``()`` included: a switch that does not mark has no
    scheme — is a :class:`ValueError`.  The only place in the tree that
    counts thresholds.
    """
    if len(thresholds) == 1:
        return SingleThresholdParams(*thresholds)
    if len(thresholds) == 2:
        return DoubleThresholdParams(*thresholds)
    raise ValueError(
        f"threshold config must be (K,) or (K1, K2), got {tuple(thresholds)}"
    )


@runtime_checkable
class Marker(Protocol):
    """Decides, per packet arrival, whether to set the CE codepoint.

    Implementations may be stateful (DT-DCTCP tracks queue direction),
    so a fresh marker must be created per queue.

    A memoryless marker may also declare ``fused_threshold``, a float
    with the promise ``should_mark(q) == (q >= fused_threshold)`` for
    every ``q``, no state read or written: a queue reads it once at
    construction and the link's fused send then takes the marking
    decision with one compare instead of a call per packet.  A marker
    that cannot keep the promise simply does not have the attribute.
    """

    def should_mark(self, queue_length: float) -> bool:
        """Return True iff a packet arriving at ``queue_length`` is marked."""
        ...

    def reset(self) -> None:
        """Forget any internal state (direction memory, averages)."""
        ...


class NullMarker:
    """Never marks; models a plain DropTail queue.

    Written as the relay at infinity so that the ``fused_threshold``
    promise is the rule itself: no occupancy a queue can hold reaches it.
    """

    fused_threshold = math.inf

    def should_mark(self, queue_length: float) -> bool:
        return queue_length >= math.inf

    def reset(self) -> None:
        return None

    def __repr__(self) -> str:
        return "NullMarker()"


class SingleThresholdMarker:
    """DCTCP marking: CE set iff instantaneous queue >= K (Figure 2a).

    The rule is memoryless; in control terms it is an ideal relay with
    dead zone ``K``, whose describing function is the paper's Eq. (22).
    """

    def __init__(self, params: SingleThresholdParams):
        self.params = params

    @classmethod
    def from_threshold(cls, k: float) -> "SingleThresholdMarker":
        return cls(SingleThresholdParams(k=k))

    @property
    def fused_threshold(self) -> float:
        """``K``: the rule below is the compare itself."""
        return self.params.k

    def should_mark(self, queue_length: float) -> bool:
        return queue_length >= self.params.k

    def reset(self) -> None:
        return None

    def __repr__(self) -> str:
        return f"SingleThresholdMarker(k={self.params.k})"


class DoubleThresholdMarker:
    """DT-DCTCP marking: hysteresis between ``K1`` (start) and ``K2`` (stop).

    Causal state machine realising the paper's Figure 8 waveform:

    * ``q >= K2``            -> marking ON (unambiguously congested);
    * ``q <  K1``            -> marking OFF (unambiguously uncongested);
    * ``K1 <= q < K2``       -> ON while the queue is rising, OFF while it
      is falling, previous state held while it is flat.

    The queue direction is inferred from a reference sample: the state
    flips to ON once the queue has risen more than ``deadband`` above the
    reference (which then catches up) and to OFF once it has fallen more
    than ``deadband`` below it.  ``deadband = 0`` compares successive
    samples exactly — right for the smooth fluid-model queue.  The packet
    simulator uses a small positive deadband (a couple of packets)
    because the instantaneous queue jitters by +-1 packet between
    consecutive arrivals even when its trend is strongly one-sided; the
    deadband rejects that jitter while following the multi-RTT
    oscillation the mechanism is designed to damp.

    ``reset()`` restores the initial un-marked, unknown-direction state.
    """

    def __init__(self, params: DoubleThresholdParams, deadband: float = 0.0):
        # Not ``deadband < 0``: NaN passes that test, and a NaN or
        # infinite deadband would hold the band's state forever.
        if not (deadband >= 0 and math.isfinite(deadband)):
            raise ValueError(f"deadband must be >= 0 and finite, got {deadband}")
        self.params = params
        self.deadband = deadband
        self._marking = False
        self._reference: Optional[float] = None

    @classmethod
    def from_thresholds(
        cls, k1: float, k2: float, deadband: float = 0.0
    ) -> "DoubleThresholdMarker":
        return cls(DoubleThresholdParams(k1=k1, k2=k2), deadband=deadband)

    @property
    def marking(self) -> bool:
        """Current state of the marking relay (True = CE being set)."""
        return self._marking

    def should_mark(self, queue_length: float) -> bool:
        k1 = self.params.k1
        k2 = self.params.k2
        if queue_length >= k2:
            self._marking = True
            self._reference = queue_length
        elif queue_length < k1:
            self._marking = False
            self._reference = queue_length
        elif self._reference is None:
            self._reference = queue_length
        elif queue_length > self._reference + self.deadband:
            self._marking = True
            self._reference = queue_length
        elif queue_length < self._reference - self.deadband:
            self._marking = False
            self._reference = queue_length
        # otherwise: within the deadband -> hysteresis holds the state
        return self._marking

    def reset(self) -> None:
        self._marking = False
        self._reference = None

    def __repr__(self) -> str:
        return (
            f"DoubleThresholdMarker(k1={self.params.k1}, k2={self.params.k2}, "
            f"deadband={self.deadband}, marking={self._marking})"
        )


class REDMarker:
    """Random Early Detection marking on the EWMA average queue.

    Included as an ablation baseline: RED marks *probabilistically* on an
    *averaged* queue, whereas both paper mechanisms mark deterministically
    on the instantaneous queue.  Between ``min_th`` and ``max_th`` the
    marking probability rises linearly to ``max_p``; above ``max_th``
    every packet is marked.
    """

    def __init__(
        self,
        min_th: float,
        max_th: float,
        max_p: float = 0.1,
        weight: float = 0.002,
        rng=None,
    ):
        if min_th <= 0:
            raise ValueError(f"min_th must be positive, got {min_th}")
        if max_th <= min_th:
            raise ValueError(
                f"RED requires min_th < max_th, got {min_th} >= {max_th}"
            )
        if not 0.0 < max_p <= 1.0:
            raise ValueError(f"max_p must lie in (0, 1], got {max_p}")
        if not 0.0 < weight <= 1.0:
            raise ValueError(f"weight must lie in (0, 1], got {weight}")
        self.min_th = min_th
        self.max_th = max_th
        self.max_p = max_p
        self.weight = weight
        self._avg: Optional[float] = None
        if rng is None:
            import random

            rng = random.Random(0)
        self._rng = rng
        # Snapshot the generator so reset() restores the whole marker —
        # EWMA *and* dice — and a replayed queue reproduces the exact
        # marking sequence.  RNGs without getstate/setstate (custom
        # stubs) simply keep their stream across resets.
        try:
            self._rng_initial_state = rng.getstate()
        except AttributeError:
            self._rng_initial_state = None

    @property
    def average_queue(self) -> float:
        """Current EWMA queue estimate (0 before any observation)."""
        return 0.0 if self._avg is None else self._avg

    def marking_probability(self, average_queue: float) -> float:
        """RED's piecewise-linear probability profile."""
        if average_queue < self.min_th:
            return 0.0
        if average_queue >= self.max_th:
            return 1.0
        frac = (average_queue - self.min_th) / (self.max_th - self.min_th)
        return self.max_p * frac

    def should_mark(self, queue_length: float) -> bool:
        if self._avg is None:
            self._avg = queue_length
        else:
            self._avg += self.weight * (queue_length - self._avg)
        prob = self.marking_probability(self._avg)
        if prob <= 0.0:
            return False
        if prob >= 1.0:
            return True
        return self._rng.random() < prob

    def reset(self) -> None:
        self._avg = None
        if self._rng_initial_state is not None:
            self._rng.setstate(self._rng_initial_state)

    def __repr__(self) -> str:
        return (
            f"REDMarker(min_th={self.min_th}, max_th={self.max_th}, "
            f"max_p={self.max_p}, weight={self.weight})"
        )
