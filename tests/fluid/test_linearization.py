"""Linearisation: the fluid model's own Jacobian against Eq. 10-12 and Eq. 17.

About the operating point ``W0 = R0 C/N``, ``alpha0 = p0 = sqrt(2/W0)``,
``q0`` (the marking setpoint) the paper linearises Eq. (1)-(3) into
Eq. (10)-(12).  With state ``x = (dW, dalpha, dq)`` and delayed input
``u = dp(t - R0)``, ``dx/dt = A x + B u`` with

    A = [[-N/(R0^2 C), -sqrt(C/(2 N R0)),    0    ],
         [     0,          -g/R0,            0    ],
         [   N/R0,            0,          -1/R0  ]]

    B = [ -sqrt(C/(2 N R0)),  g/R0,  0 ]^T

The model keeps the RTT's queue dependence ``R(q) = d + q/C`` in every
equation, while the paper writes the W and alpha rows with a constant
``R0``.  The extra ``d/dq`` terms are proportional to ``1 - W alpha p/2``
and ``p - alpha``, both zero at the operating point, so the model's
numeric Jacobian must reproduce ``(A, B)`` exactly.
"""

import numpy as np
import pytest

from repro.core.parameters import paper_dctcp, paper_network
from repro.core.transfer_function import plant, plant_poles
from repro.fluid.model import fluid_model

FLOW_COUNTS = (5, 10, 20, 30)


def paper_matrices(net):
    """Eq. (10)-(12)'s ``(A, B)`` in closed form."""
    r0 = net.rtt
    coupling = np.sqrt(net.capacity / (2.0 * net.n_flows * r0))
    a = np.array(
        [
            [-net.n_flows / (r0**2 * net.capacity), -coupling, 0.0],
            [0.0, -net.g / r0, 0.0],
            [net.n_flows / r0, 0.0, -1.0 / r0],
        ]
    )
    b = np.array([-coupling, net.g / r0, 0.0])
    return a, b


def numeric_jacobian(net, setpoint=40.0):
    """Central differences of the one-class model's RHS at the fixed point."""
    model = fluid_model(net, paper_dctcp())
    rhs = model.class_rhs(0)
    op = net.operating_point(setpoint)
    x0 = np.array([op.window, op.alpha, op.queue])

    def f(x, p):
        dw, da, inflow = rhs(x[0], x[1], x[2], p)
        return np.array([dw, da, model.queue_rate(inflow, x[2])])

    a = np.zeros((3, 3))
    for j in range(3):
        h = 1e-6 * max(1.0, abs(x0[j]))
        plus, minus = x0.copy(), x0.copy()
        plus[j] += h
        minus[j] -= h
        a[:, j] = (f(plus, op.p) - f(minus, op.p)) / (2 * h)
    h = 1e-7
    b = (f(x0, op.p + h) - f(x0, op.p - h)) / (2 * h)
    return a, b


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def queue_response(s, a, b):
    """Transfer function ``dq(s)/dp(s)`` of ``(A, B)`` without the delay."""
    resolvent = np.linalg.solve(s * np.eye(3) - a.astype(complex), b.astype(complex))
    return complex(resolvent[2])


@pytest.fixture
def net():
    return paper_network(30)


class TestMatrices:
    def test_a_matches_numeric_jacobian(self):
        for n in FLOW_COUNTS:
            net = paper_network(n)
            a_num, _ = numeric_jacobian(net)
            assert relative_error(a_num, paper_matrices(net)[0]) <= 1e-8, n

    def test_b_matches_numeric_jacobian(self):
        for n in FLOW_COUNTS:
            net = paper_network(n)
            _, b_num = numeric_jacobian(net)
            assert relative_error(b_num, paper_matrices(net)[1]) <= 1e-8, n

    def test_matrix_entries_match_eq10_12(self, net):
        """The terms Eq. 10-11 drop vanish; Eq. 12's -dq/R0 is the queue
        dependence of R(q) alone."""
        a_num, b_num = numeric_jacobian(net)
        scale = 1.0 / net.rtt
        assert abs(a_num[0, 2]) / scale < 1e-8
        assert abs(a_num[1, 2]) / scale < 1e-8
        assert a_num[2, 2] == pytest.approx(-1.0 / net.rtt, rel=1e-8)
        assert b_num[2] == 0.0

    def test_plant_is_stable(self, net):
        assert np.all(np.linalg.eigvals(paper_matrices(net)[0]).real < 0.0)

    def test_eigenvalues_are_the_plant_poles(self, net):
        eigs = sorted(-np.linalg.eigvals(paper_matrices(net)[0]).real)
        poles = sorted(plant_poles(net))
        assert np.allclose(eigs, poles, rtol=1e-9)


class TestQueueResponse:
    @pytest.mark.parametrize("w", [100.0, 3000.0, 50000.0])
    def test_equals_minus_plant(self, net, w):
        """Eq. 16's negative feedback: ``dq/dp = -P(s)``."""
        s = 1j * w
        assert queue_response(s, *paper_matrices(net)) == pytest.approx(
            -complex(plant(s, net)), rel=1e-9
        )

    def test_negative_dc_gain(self, net):
        # More marking drains the queue: Eq. 16's negative feedback.
        assert queue_response(1e-9, *paper_matrices(net)).real < 0.0
