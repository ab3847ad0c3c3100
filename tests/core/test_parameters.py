"""Unit tests for repro.core.parameters."""

import math

import pytest

from repro.core.parameters import (
    DEFAULT_PACKET_SIZE_BYTES,
    DoubleThresholdParams,
    NetworkParams,
    SingleThresholdParams,
    paper_dctcp,
    paper_dt_dctcp,
    paper_network,
)


class TestNetworkParams:
    def test_from_bandwidth_converts_to_packets_per_second(self):
        net = NetworkParams.from_bandwidth(10e9, n_flows=10, rtt=100e-6)
        assert net.capacity == pytest.approx(10e9 / (8 * 1500))

    def test_from_bandwidth_custom_packet_size(self):
        net = NetworkParams.from_bandwidth(
            1e9, n_flows=1, rtt=1e-3, packet_size_bytes=1000
        )
        assert net.capacity == pytest.approx(125000.0)

    def test_paper_network_matches_section_vi(self):
        net = paper_network(10)
        assert net.n_flows == 10
        assert net.rtt == pytest.approx(100e-6)
        assert net.g == pytest.approx(1.0 / 16.0)
        assert net.capacity == pytest.approx(10e9 / (8 * DEFAULT_PACKET_SIZE_BYTES))

    def test_window_at_operating_point(self):
        net = paper_network(10)
        assert net.window_at_operating_point == pytest.approx(
            net.rtt * net.capacity / 10
        )

    def test_bandwidth_delay_product_small_pipe(self):
        # The paper's pipe holds only ~83 packets - load-bearing for the
        # interpretation of the large-N regime.
        net = paper_network(10)
        assert 80 < net.bandwidth_delay_product < 90

    def test_with_flows_changes_only_n(self):
        net = paper_network(10)
        other = net.with_flows(60)
        assert other.n_flows == 60
        assert other.capacity == net.capacity
        assert other.rtt == net.rtt
        assert other.g == net.g

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0.0, "n_flows": 1, "rtt": 1e-4},
            {"capacity": -1.0, "n_flows": 1, "rtt": 1e-4},
            {"capacity": 1e5, "n_flows": 0, "rtt": 1e-4},
            {"capacity": 1e5, "n_flows": 1, "rtt": 0.0},
            {"capacity": 1e5, "n_flows": 1, "rtt": 1e-4, "g": 0.0},
            {"capacity": 1e5, "n_flows": 1, "rtt": 1e-4, "g": 1.0},
            {"capacity": 1e5, "n_flows": 1, "rtt": 1e-4, "g": -0.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkParams(**kwargs)

    def test_from_bandwidth_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NetworkParams.from_bandwidth(0.0, 1, 1e-4)
        with pytest.raises(ValueError):
            NetworkParams.from_bandwidth(1e9, 1, 1e-4, packet_size_bytes=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["capacity", "n_flows", "rtt"])
    def test_non_finite_parameters_rejected_by_name(self, field, bad):
        """Regression: ``nan <= 0`` is false, so a NaN (or infinite)
        capacity, flow count or RTT used to build a network whose locus
        is all NaN - and ``analyze`` called it stable with margin inf."""
        kwargs = {"capacity": 1e5, "n_flows": 1, "rtt": 1e-4, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be positive"):
            NetworkParams(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_with_flows_rejects_non_finite_counts(self, bad):
        with pytest.raises(ValueError, match="^n_flows must be positive"):
            paper_network(10).with_flows(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["bandwidth_bps", "packet_size_bytes"])
    def test_from_bandwidth_rejects_non_finite_by_name(self, field, bad):
        kwargs = {"bandwidth_bps": 1e9, "packet_size_bytes": 1500, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be positive"):
            NetworkParams.from_bandwidth(n_flows=1, rtt=1e-4, **kwargs)


class TestOperatingPoint:
    def test_fixed_point_solves_fluid_equations(self):
        net = paper_network(10)
        op = net.operating_point(40.0)
        # W0 = R0 C / N and alpha0 = sqrt(2/W0) (Section V-A).
        assert op.window == pytest.approx(net.rtt * net.capacity / 10)
        assert op.alpha == pytest.approx(math.sqrt(2.0 / op.window))
        assert op.p == op.alpha
        assert op.queue == 40.0

    def test_strict_rejects_overloaded_pipe(self):
        # N = 60 gives W0 < 2 on the paper's pipe.
        net = paper_network(60)
        with pytest.raises(ValueError, match="W0"):
            net.operating_point(40.0, strict=True)

    def test_lenient_clamps_alpha_to_one(self):
        net = paper_network(60)
        op = net.operating_point(40.0)
        assert op.alpha == 1.0
        assert op.window < 2.0

    def test_alpha_decreases_with_window(self):
        alphas = [
            paper_network(n).operating_point(40.0).alpha for n in (5, 10, 20)
        ]
        assert alphas == sorted(alphas)


class TestThresholdParams:
    def test_single_threshold_setpoint_and_gain(self):
        p = SingleThresholdParams(k=40.0)
        assert p.setpoint == 40.0
        assert p.characteristic_gain == pytest.approx(1.0 / 40.0)

    def test_single_threshold_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SingleThresholdParams(k=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_thresholds_must_be_positive_and_finite(self, bad):
        """Regression: ``nan <= 0`` is false, so a NaN threshold - which
        never marks - used to construct; so did ``k2 = inf``."""
        with pytest.raises(ValueError, match="positive and finite"):
            SingleThresholdParams(k=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            DoubleThresholdParams(k1=bad, k2=1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            DoubleThresholdParams(k1=1.0, k2=bad)

    def test_scheme_members(self):
        dc = SingleThresholdParams(k=40.0)
        dt = DoubleThresholdParams(k1=30.0, k2=50.0)
        assert (dc.thresholds, dt.thresholds) == ((40.0,), (30.0, 50.0))
        assert (dc.label, dt.label) == ("K=40", "K1=30,K2=50")
        assert (dc.amplitude_floor, dt.amplitude_floor) == (40.0, 50.0)
        assert SingleThresholdParams(k=21.5).label == "K=21.5"

    def test_double_threshold_setpoint_is_midpoint(self):
        p = DoubleThresholdParams(k1=30.0, k2=50.0)
        assert p.setpoint == pytest.approx(40.0)
        assert p.gap == pytest.approx(20.0)

    def test_double_threshold_gain_uses_k2(self):
        # Theorem 2: K0 = 1/K2.
        p = DoubleThresholdParams(k1=30.0, k2=50.0)
        assert p.characteristic_gain == pytest.approx(1.0 / 50.0)

    def test_double_threshold_allows_equal_thresholds(self):
        # K1 = K2 degenerates to the single threshold.
        p = DoubleThresholdParams(k1=40.0, k2=40.0)
        assert p.gap == 0.0

    def test_double_threshold_rejects_inverted(self):
        with pytest.raises(ValueError):
            DoubleThresholdParams(k1=50.0, k2=30.0)

    def test_double_threshold_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DoubleThresholdParams(k1=0.0, k2=10.0)

    def test_paper_defaults(self):
        assert paper_dctcp().k == 40.0
        dt = paper_dt_dctcp()
        assert (dt.k1, dt.k2) == (30.0, 50.0)
        # The paper chose the DT pair to average DCTCP's K.
        assert dt.setpoint == paper_dctcp().setpoint
