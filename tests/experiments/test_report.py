"""The report and the runner walk the one experiment index."""

import contextlib
import importlib
import io

import pytest

from repro.exec import SweepExecutor
from repro.exec.report import FailureRecord
from repro.experiments import STAGES, queue_sweep, quick_scale, report
from repro.experiments.report import generate_report
from repro.experiments.runner import run_all


@pytest.fixture
def stub_printers(monkeypatch):
    """Every indexed printer just prints its own stage id."""
    for stage in STAGES:
        module = importlib.import_module(f"repro.experiments.{stage.module}")

        def printer(_id=stage.id, **kwargs):
            print(f"stage {_id}")

        monkeypatch.setattr(module, stage.printer, printer)


class TestReportStructure:
    def test_report_sections_are_the_index(self, stub_printers):
        """Regression: the report kept its own stage list, which missed
        the two stages added after it was written."""
        lines = generate_report(quick=True).splitlines()
        titles = [line[3:] for line in lines if line.startswith("## ")]
        assert titles == [stage.title for stage in STAGES]
        assert "Deadline awareness (D2TCP)" in titles
        assert "Bias-corrected DF" in titles
        # Each section holds its own stage's output.
        assert [line for line in lines if line.startswith("stage ")] == [
            f"stage {stage.id}" for stage in STAGES
        ]

    def test_runner_prints_the_same_stage_sequence(
        self, stub_printers, capsys
    ):
        run_all(quick_scale(), SweepExecutor())
        lines = capsys.readouterr().out.splitlines()
        banners = [
            line.strip("= ") for line in lines
            if line.startswith("===== ") and "Executor report" not in line
        ]
        assert banners == [stage.title for stage in STAGES]
        assert [line for line in lines if line.startswith("stage ")] == [
            f"stage {stage.id}" for stage in STAGES
        ]

    def test_stage_capture_mechanism(self):
        """The capture idiom the generator relies on works for a main()."""
        from repro.experiments import fig02_marking

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            fig02_marking.main()
        text = buffer.getvalue()
        assert "marking strategies" in text
        assert "DT-DCTCP" in text


class TestFailedStage:
    def test_report_finishes_its_walk_and_exits_3(
        self, stub_printers, monkeypatch, tmp_path, capsys
    ):
        """Regression: the report called ``stage.run`` bare, so under a
        skip policy a stage that could not tabulate around its failed
        case killed the report with that stage's traceback, and a run
        that did finish exited 0 whatever had failed."""

        def cannot_tabulate(scale, executor):
            executor.report.add_failure(FailureRecord(
                stage="Figure 10", experiment=queue_sweep.EXPERIMENT,
                label="dctcp-sim/N=10", case_key="0" * 16, kind="timeout",
                message="deadline", attempts=1,
            ))
            raise TypeError("SweepPoint(**None): the skipped cell's hole")

        monkeypatch.setattr(queue_sweep, "main_fig10", cannot_tabulate)
        output = tmp_path / "report.md"
        monkeypatch.setattr("sys.argv", [
            "report", "--quick", "--no-cache", "--failure-policy", "skip",
            "-o", str(output),
        ])
        assert report.main() == 3
        lines = output.read_text().splitlines()
        assert [line[3:] for line in lines if line.startswith("## ")] == [
            stage.title for stage in STAGES
        ]
        # Every other stage still printed; Figure 10 says why it did not.
        assert [line for line in lines if line.startswith("stage ")] == [
            f"stage {stage.id}" for stage in STAGES if stage.id != "10"
        ]
        assert lines.count("*incomplete: 1 failed case(s)*") == 1
        err = capsys.readouterr().err
        assert "the skipped cell's hole" in err  # the traceback, on stderr
        assert "1 case(s) failed" in err


def test_unwritable_output_is_a_usage_error_before_any_stage(
    monkeypatch, capsys
):
    """Regression: ``-o`` was opened after the walk, so a path that could
    not be written cost all 19 stages and ended in a
    ``FileNotFoundError`` traceback."""

    def no_stage_may_run(*args, **kwargs):
        raise AssertionError("a stage ran before the output was checked")

    monkeypatch.setattr(report, "run_stage", no_stage_may_run)
    monkeypatch.setattr(
        "sys.argv", ["report", "--quick", "--no-cache", "-o", "/nonexistent/x.md"]
    )
    with pytest.raises(SystemExit) as exit_info:
        report.main()
    assert exit_info.value.code == 2
    assert "argument -o/--output: must be a writable" in capsys.readouterr().err
