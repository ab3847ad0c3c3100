"""The convergence/fairness extension experiment, as ``figure
convergence`` runs it: the marking change must not break DCTCP's
TCP-friendliness (Section II-A background)."""

import pytest

from repro.experiments.convergence import run_protocol
from repro.experiments.protocols import dctcp_sim, dt_dctcp_sim


class TestConvergence:
    @pytest.fixture(scope="class", params=["dctcp", "dt-dctcp"])
    def result(self, request):
        protocol = dctcp_sim() if request.param == "dctcp" else dt_dctcp_sim()
        return run_protocol(protocol)

    def test_steady_fairness_high(self, result):
        assert result.steady_fairness > 0.95

    def test_late_joiner_converges_to_fair_share(self, result):
        assert 0.5 < result.joiner_relative_share < 1.5

    def test_full_utilisation_maintained(self, result):
        assert result.utilisation > 0.9
