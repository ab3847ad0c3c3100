"""The protocol table is the only place a protocol name is bound."""

import dataclasses

import pytest

from repro.campaign.grid import CampaignGrid
from repro.cli import build_parser, main
from repro.core.marking import (
    DoubleThresholdMarker,
    NullMarker,
    SingleThresholdMarker,
)
from repro.exec.cases import execute_case
from repro.experiments.config import quick_scale
from repro.experiments.protocols import paper_config
from repro.experiments.queue_sweep import run_point
from repro.sim.protocols import PROTOCOLS, Protocol, marker_factory
from repro.sim.tcp.sender import RenoSender

#: A 2 ms dumbbell run.
TINY = dataclasses.replace(quick_scale(), sim_duration=0.002, warmup=0.0005)


def tiny_grid(sender):
    return CampaignGrid(
        thresholds=((40.0,),), senders=(sender,), loads=(0.2,), fan_ins=(0,),
        seeds=(1,), n_leaves=2, n_spines=1, hosts_per_leaf=1,
        duration=0.004, warmup=0.001,
    )


class TestMarkerFactory:
    def test_exact_marker_classes(self):
        # The link's fused send keys on ``type(marker) is
        # SingleThresholdMarker``: the table must hand out the concrete
        # classes, never a subclass or wrapper.
        assert type(marker_factory(())()) is NullMarker
        assert type(marker_factory((40.0,))()) is SingleThresholdMarker
        assert type(marker_factory((30.0, 50.0))()) is DoubleThresholdMarker

    def test_fresh_marker_per_call(self):
        factory = marker_factory((30.0, 50.0))
        assert factory() is not factory()

    def test_deadband_rule_and_override(self):
        assert marker_factory((30.0, 50.0))().deadband == 2.0
        assert marker_factory((30.0, 34.0))().deadband == 0.5
        assert marker_factory((30.0, 50.0), deadband=0.25)().deadband == 0.25


def test_toy_protocol_is_reachable_everywhere(monkeypatch):
    """One ``setitem`` adds a scheme to the CLI, the paper configurations
    (hence every experiment rig) and campaigns."""
    monkeypatch.setitem(PROTOCOLS, "toy", Protocol(RenoSender, 0))

    args = build_parser().parse_args(["simulate", "--protocol", "toy"])
    assert args.protocol == "toy"

    point = run_point(paper_config("toy"), 2, TINY)
    assert point.marks == 0 and point.goodput_bps > 0

    [case] = tiny_grid("toy").expand()
    assert case.params["sender"] == "toy"
    assert execute_case(case)["flows_started"] > 0


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
class TestEveryNameRuns:
    """Deriving ``choices=`` from the table widened what each command
    accepts; every accepted name must actually run."""

    def test_simulate(self, name, capsys):
        assert main(["simulate", "--protocol", name, "--flows", "2",
                     "--duration", "0.002"]) == 0
        assert name.upper() in capsys.readouterr().out

    def test_incast(self, name, capsys):
        assert main(["incast", "--protocol", name, "--flows", "4",
                     "--queries", "1"]) == 0
        assert name.upper() in capsys.readouterr().out

    def test_run_point(self, name):
        point = run_point(paper_config(name), 2, TINY)
        assert point.protocol == name.upper() and point.goodput_bps > 0

    def test_campaign_cell(self, name):
        [case] = tiny_grid(name).expand()
        assert execute_case(case)["flows_started"] > 0


def test_analyze_takes_the_dctcp_loop_protocols(capsys):
    for name in ("dctcp", "dt-dctcp"):
        assert main(["analyze", "--flows", "30", "--protocol", name]) == 0
    for name in ("reno", "cubic", "ecn-reno"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--protocol", name])
