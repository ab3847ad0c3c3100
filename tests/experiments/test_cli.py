"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.flows == 55
        assert args.protocol == "dctcp"

    def test_protocol_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--protocol", "cubic"])

    def test_every_eval_figure_mapped(self):
        for fig in ("1", "2", "4", "6", "7", "8", "9", "10", "11", "12",
                    "13", "14", "15"):
            assert fig in FIGURES


class TestCommands:
    def test_analyze_runs(self, capsys):
        assert main(["analyze", "--flows", "30"]) == 0
        out = capsys.readouterr().out
        assert "stability margin" in out

    def test_analyze_dt_protocol(self, capsys):
        assert main(["analyze", "--flows", "30", "--protocol",
                     "dt-dctcp"]) == 0
        assert "dt-dctcp" in capsys.readouterr().out

    def test_analyze_custom_gain(self, capsys):
        assert main(["analyze", "--flows", "60", "--gain-scale", "7.0"]) == 0
        out = capsys.readouterr().out
        assert "oscillation predicted" in out

    def test_simulate_runs(self, capsys):
        assert main([
            "simulate", "--flows", "4", "--duration", "0.005",
        ]) == 0
        out = capsys.readouterr().out
        assert "goodput (Gbps)" in out

    def test_incast_runs(self, capsys):
        assert main(["incast", "--flows", "8", "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "goodput (Mbps)" in out

    def test_figure_13_runs(self, capsys):
        assert main(["figure", "13"]) == 0
        assert "testbed topology" in capsys.readouterr().out

    def test_figure_2_runs(self, capsys):
        assert main(["figure", "2"]) == 0
        assert "marking strategies" in capsys.readouterr().out

    def test_unknown_figure_rejected(self, capsys):
        assert main(["figure", "99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_simulate_invariants_flag(self, capsys):
        assert main([
            "simulate", "--flows", "4", "--duration", "0.005",
            "--invariants",
        ]) == 0
        assert "goodput (Gbps)" in capsys.readouterr().out

    def test_campaign_space_dc_preset(self, capsys):
        args = build_parser().parse_args(["campaign", "--scenario",
                                          "space-dc"])
        assert args.scenario == "space-dc"
        # Shrink the preset's satellite-grade scale (200 ms RTT, 10 s
        # windows) down to test size; everything left unset — the
        # protocol axis in particular — must come from the preset.
        assert main([
            "campaign", "--scenario", "space-dc",
            "--leaves", "2", "--spines", "1", "--hosts-per-leaf", "1",
            "--per-hop-delay", "2e-4", "--duration", "0.02",
            "--warmup", "0.004", "--seeds", "1",
            "--jitter", "1e-4", "--flap-period", "0.01",
            "--flap-down", "0.002", "--flap-count", "1",
            "--loads", "0.1", "--fan-ins", "1", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        # The preset's three-protocol comparison: Fixed-K DCTCP,
        # DT-DCTCP and the CUBIC baseline, one row each.
        assert "K=65" in out
        assert "K1=50,K2=80" in out
        assert "CUBIC" in out
        assert "space-dc" in out

    def test_figure_parser_accepts_executor_flags(self):
        args = build_parser().parse_args(
            ["figure", "10", "--quick", "--jobs", "4",
             "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.jobs == 4
        assert str(args.cache_dir) == "/tmp/x"
        assert args.no_cache

    def test_scaled_figure_reports_cache_hits_on_rerun(self, tmp_path, capsys):
        argv = ["figure", "1", "--quick", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "queue oscillation" in cold.out
        assert "Executor report" in cold.err

        assert "0 cache hits" in cold.err

        assert main(argv) == 0
        warm = capsys.readouterr()
        # Identical table, telemetry confirming the simulations were
        # skipped the second time round.
        assert warm.out == cold.out
        assert "2 cache hits, 0 executed" in warm.err


class TestFigureAll:
    """Regression: ``figure all`` parsed the supervision flags, dropped
    them on the floor (a skip policy silently became ``raise``) and
    returned 0 whatever the report said."""

    @staticmethod
    def stub_run_all(monkeypatch, failures=()):
        from repro.exec.report import RunReport

        calls = []

        def run_all(**kwargs):
            calls.append(kwargs)
            report = RunReport()
            for record in failures:
                report.add_failure(record)
            return report

        monkeypatch.setattr("repro.experiments.runner.run_all", run_all)
        return calls

    def test_supervision_flags_reach_run_all(self, monkeypatch):
        calls = self.stub_run_all(monkeypatch)
        assert main([
            "figure", "all", "--quick", "--jobs", "3", "--no-cache",
            "--timeout", "7.5", "--retries", "2",
            "--failure-policy", "retry-then-skip",
        ]) == 0
        assert calls == [dict(
            quick=True, jobs=3, cache_dir=None, use_cache=False,
            timeout=7.5, retries=2, failure_policy="retry-then-skip",
        )]

    def test_recorded_failures_exit_3(self, monkeypatch, capsys):
        from repro.exec.report import FailureRecord

        failure = FailureRecord(
            stage="Figure 10", experiment="fig10", label="N=10",
            case_key="0" * 16, kind="timeout", message="deadline",
            attempts=1,
        )
        self.stub_run_all(monkeypatch, failures=[failure])
        assert main(["figure", "all", "--failure-policy", "skip"]) == 3
        assert "1 case(s) failed" in capsys.readouterr().err

    def test_chunk_size_is_rejected_not_eaten(self, monkeypatch, capsys):
        calls = self.stub_run_all(monkeypatch)
        assert main(["figure", "all", "--chunk-size", "4"]) == 2
        assert calls == []
        assert "--chunk-size" in capsys.readouterr().err
