"""The protocol table is the only place a protocol name is bound, and a
scheme class the only place a marking scheme is described: a third
scheme defined in this file runs through analysis, fluid model, packets,
campaign and CLI without an edit anywhere else."""

import dataclasses
import math

import pytest

from repro.campaign.grid import CampaignGrid
from repro.cli import build_parser, main
from repro.core.describing_function import df_single_threshold
from repro.core.marking import (
    DoubleThresholdMarker,
    NullMarker,
    SingleThresholdMarker,
    scheme_for,
)
from repro.core.parameters import paper_dctcp, paper_network
from repro.core.stability import analyze, stability_margin
from repro.exec.cases import execute_case
from repro.experiments.config import quick_scale
from repro.experiments.protocols import paper_config
from repro.experiments.queue_sweep import run_point
from repro.fluid.integrator import simulate
from repro.fluid.model import fluid_model
from repro.sim.protocols import PROTOCOLS, Protocol
from repro.sim.tcp.sender import DctcpSender, RenoSender
from tests.sim.test_datapath_differential import _run_dumbbell

#: A 2 ms dumbbell run.
TINY = dataclasses.replace(quick_scale(), sim_duration=0.002, warmup=0.0005)


def tiny_grid(sender):
    return CampaignGrid(
        thresholds=((40.0,),), senders=(sender,), loads=(0.2,), fan_ins=(0,),
        seeds=(1,), n_leaves=2, n_spines=1, hosts_per_leaf=1,
        duration=0.004, warmup=0.001,
    )


class ToyMarker:
    """Marks at or above ``level`` and counts how often it was asked.

    Declares no ``fused_threshold``, so a queue has to call it."""

    def __init__(self, level):
        self.level = level
        self.calls = 0

    def should_mark(self, queue_length):
        self.calls += 1
        return queue_length >= self.level

    def reset(self):
        return None


class FusedToyMarker(ToyMarker):
    """The same rule with the promise declared: a queue may inline it."""

    @property
    def fused_threshold(self):
        return self.level


@dataclasses.dataclass(frozen=True)
class ToyParams:
    """A third scheme: a relay at a fraction of the switch buffer.

    Everything the tree asks of a scheme, and nothing else - no base
    class to inherit, no registry to join."""

    buffer_packets: float
    fraction: float = 0.5
    marker_cls: type = FusedToyMarker

    @property
    def level(self):
        return self.fraction * self.buffer_packets

    @property
    def thresholds(self):
        return (self.level,)

    @property
    def label(self):
        return f"TOY={self.level:g}"

    @property
    def setpoint(self):
        return self.level

    @property
    def characteristic_gain(self):
        return 1.0 / self.level

    @property
    def amplitude_floor(self):
        return self.level

    def df(self, amplitude, bias=0.0):
        return df_single_threshold(amplitude, self.level, bias)

    def rightmost(self):
        return complex(-math.pi, 0.0)

    def worst_case_amplitude(self):
        return self.level * math.sqrt(2.0)

    def marker(self, deadband=None):
        return self.marker_cls(self.level)


TOY = ToyParams(buffer_packets=80.0)


class TestToyScheme:
    """``TOY`` marks like ``K = 40``, so every layer must give it
    DCTCP's numbers - reached through the object alone."""

    def test_analysis(self):
        net = paper_network(55)
        assert stability_margin(net, TOY, 5.6) == stability_margin(
            net, paper_dctcp(), 5.6
        )
        report = analyze(net, TOY, loop_gain_scale=5.6)
        assert report.params is TOY
        assert report.margin == analyze(net, paper_dctcp(), 5.6).margin

    def test_fluid_model(self):
        net = paper_network(10)
        toy = simulate(fluid_model(net, TOY), duration=0.004)
        dctcp = simulate(fluid_model(net, paper_dctcp()), duration=0.004)
        assert toy.queue.tolist() == dctcp.queue.tolist()
        assert toy.marking.max() == 1.0

    def test_both_send_lanes_agree(self):
        """The inlined compare, the pre-bound call and the queue's own
        ``enqueue`` take the same decisions: same marks, same delivery
        trace on every interface."""
        general = dataclasses.replace(TOY, marker_cls=ToyMarker)
        *compared, iface = _run_dumbbell(TOY.marker)
        *called, called_iface = _run_dumbbell(general.marker)
        *method, method_iface = _run_dumbbell(TOY.marker, tracked=True)
        assert compared == called == method
        assert compared[1]["marked"] > 0
        # Each run really took the lane it stands for.
        assert iface._q_fused and iface.queue.marker.calls == 0
        assert called_iface._q_fused and called_iface.queue.marker.calls > 0
        assert not method_iface._q_fused
        # ... and the toy is DCTCP at K = 40 packet for packet.
        *dctcp, _ = _run_dumbbell(paper_dctcp().marker)
        assert compared == dctcp

    def test_one_table_row_reaches_every_command(self, monkeypatch, capsys):
        monkeypatch.setitem(PROTOCOLS, "toy", Protocol(DctcpSender, TOY))

        assert main(["simulate", "--protocol", "toy", "--flows", "2",
                     "--duration", "0.002"]) == 0
        toy_out = capsys.readouterr().out
        assert main(["simulate", "--protocol", "dctcp", "--flows", "2",
                     "--duration", "0.002"]) == 0
        assert toy_out == capsys.readouterr().out.replace("DCTCP", "  TOY")

        [case] = tiny_grid("toy").expand()
        assert case.params["sender"] == "toy"
        assert execute_case(case)["flows_started"] > 0

        assert main(["analyze", "--protocol", "toy", "--flows", "30"]) == 0
        toy_out = capsys.readouterr().out
        assert main(["analyze", "--protocol", "dctcp", "--flows", "30"]) == 0
        assert toy_out == capsys.readouterr().out.replace("dctcp", "toy")


class TestMarkerFactory:
    def test_exact_marker_classes(self):
        assert paper_config("reno").marker_factory is NullMarker
        assert type(scheme_for((40.0,)).marker()) is SingleThresholdMarker
        assert type(scheme_for((30.0, 50.0)).marker()) is DoubleThresholdMarker

    def test_fresh_marker_per_call(self):
        factory = scheme_for((30.0, 50.0)).marker
        assert factory() is not factory()

    def test_deadband_rule_and_override(self):
        assert scheme_for((30.0, 50.0)).marker().deadband == 2.0
        assert scheme_for((30.0, 34.0)).marker().deadband == 0.5
        assert scheme_for((30.0, 50.0)).marker(deadband=0.25).deadband == 0.25

    def test_only_one_or_two_thresholds_name_a_scheme(self):
        for thresholds in ((), (10.0, 20.0, 30.0)):
            with pytest.raises(ValueError, match="must be"):
                scheme_for(thresholds)


def test_toy_protocol_is_reachable_everywhere(monkeypatch):
    """One ``setitem`` adds a scheme to the CLI, the paper configurations
    (hence every experiment rig) and campaigns."""
    monkeypatch.setitem(PROTOCOLS, "toy", Protocol(RenoSender, None))

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
