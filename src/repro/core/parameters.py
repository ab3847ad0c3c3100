"""Parameter objects shared across the fluid model, the analysis, and the
packet-level simulator.

The two marking schemes are defined in :mod:`repro.core.marking` and
re-exported here beside the plant's parameters.  The paper's canonical
configuration (Section V-D and VI-A) is a single 10 Gbps bottleneck, 100 microsecond round-trip time, 1.5 KB packets,
``K = 40`` packets and ``g = 1/16`` for DCTCP, and ``K1 = 30`` /
``K2 = 50`` packets for DT-DCTCP.  :func:`paper_network`,
:func:`paper_dctcp` and :func:`paper_dt_dctcp` build exactly those
objects.
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.marking import DoubleThresholdParams, SingleThresholdParams

__all__ = [
    "NetworkParams",
    "SingleThresholdParams",
    "DoubleThresholdParams",
    "OperatingPoint",
    "paper_network",
    "paper_dctcp",
    "paper_dt_dctcp",
    "DEFAULT_PACKET_SIZE_BYTES",
]

#: Packet size used throughout the paper's experiments ("each packet is
#: about 1.5KB", Section VI-B).
DEFAULT_PACKET_SIZE_BYTES = 1500


@dataclasses.dataclass(frozen=True)
class NetworkParams:
    """Fluid-model network configuration.

    Attributes
    ----------
    capacity:
        Bottleneck capacity ``C`` in packets per second.
    n_flows:
        Number of long-lived flows ``N`` sharing the bottleneck.
    rtt:
        Fixed round-trip time ``R0`` in seconds (propagation plus the
        queueing delay at the operating point, approximated as constant
        per the paper's Section II-B).
    g:
        DCTCP's EWMA gain for the congestion-extent estimate ``alpha``,
        in ``(0, 1)``.
    """

    capacity: float
    n_flows: int
    rtt: float
    g: float = 1.0 / 16.0

    def __post_init__(self) -> None:
        # Written ``not (x > 0 and finite)``: NaN fails every comparison,
        # so ``x <= 0`` would let it through to a locus of NaNs that the
        # analysis reads as "infinitely far from oscillating".
        for name in ("capacity", "n_flows", "rtt"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(
                    f"{name} must be positive and finite, got {value}"
                )
        if not 0.0 < self.g < 1.0:
            raise ValueError(f"g must lie in (0, 1), got {self.g}")

    @classmethod
    def from_bandwidth(
        cls,
        bandwidth_bps: float,
        n_flows: int,
        rtt: float,
        g: float = 1.0 / 16.0,
        packet_size_bytes: int = DEFAULT_PACKET_SIZE_BYTES,
    ) -> "NetworkParams":
        """Build parameters from a link bandwidth in bits per second.

        ``capacity`` is expressed in packets per second, the unit used by
        the paper's fluid model.
        """
        for name, value in (
            ("bandwidth_bps", bandwidth_bps),
            ("packet_size_bytes", packet_size_bytes),
        ):
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(
                    f"{name} must be positive and finite, got {value}"
                )
        capacity = bandwidth_bps / (8.0 * packet_size_bytes)
        return cls(capacity=capacity, n_flows=n_flows, rtt=rtt, g=g)

    def with_flows(self, n_flows: int) -> "NetworkParams":
        """Return a copy with a different flow count (used by N sweeps)."""
        return dataclasses.replace(self, n_flows=n_flows)

    @property
    def window_at_operating_point(self) -> float:
        """Per-flow window ``W0 = R0 C / N`` at full utilisation (packets)."""
        return self.rtt * self.capacity / self.n_flows

    @property
    def bandwidth_delay_product(self) -> float:
        """``R0 C`` in packets."""
        return self.rtt * self.capacity

    def operating_point(
        self, queue_setpoint: float, strict: bool = False
    ) -> "OperatingPoint":
        """Solve the fluid-model fixed point (Section V-A).

        Setting the derivatives of Eq. (1)-(3) to zero gives
        ``W0 = R0 C / N`` and ``p0 = alpha0 = sqrt(2 / W0)``.  The queue
        fixed point ``q0`` is the marking setpoint (``K`` for DCTCP; the
        threshold midpoint is the natural choice for DT-DCTCP).

        For the paper's own configuration (R0 C ~ 83 packets) the fixed
        point is only physically valid up to ``N = R0 C / 2 ~ 41`` flows:
        beyond that ``W0 < 2`` and the marking fraction ``sqrt(2/W0)``
        exceeds one.  The paper nevertheless evaluates its transfer
        functions at N = 60..100, so by default this method extends the
        fixed point formally, clamping ``alpha0`` to 1; pass
        ``strict=True`` to get a :class:`ValueError` instead.
        """
        w0 = self.window_at_operating_point
        if w0 < 2.0 and strict:
            raise ValueError(
                "operating point requires W0 = R0*C/N >= 2 packets; got "
                f"W0={w0:.3f} (N={self.n_flows} too large for this pipe)"
            )
        alpha0 = min(1.0, math.sqrt(2.0 / w0))
        return OperatingPoint(window=w0, alpha=alpha0, queue=queue_setpoint, p=alpha0)


@dataclasses.dataclass(frozen=True)
class OperatingPoint:
    """Fluid-model fixed point ``(W0, alpha0, q0, p0)`` from Section V-A."""

    window: float
    alpha: float
    queue: float
    p: float


def paper_network(n_flows: int = 10, g: float = 1.0 / 16.0) -> NetworkParams:
    """The paper's canonical plant: 10 Gbps, 100 us RTT, 1.5 KB packets."""
    return NetworkParams.from_bandwidth(
        bandwidth_bps=10e9, n_flows=n_flows, rtt=100e-6, g=g
    )


def paper_dctcp() -> SingleThresholdParams:
    """DCTCP's paper configuration: ``K = 40`` packets."""
    return SingleThresholdParams(k=40.0)


def paper_dt_dctcp() -> DoubleThresholdParams:
    """DT-DCTCP's paper configuration: ``K1 = 30``, ``K2 = 50`` packets."""
    return DoubleThresholdParams(k1=30.0, k2=50.0)
