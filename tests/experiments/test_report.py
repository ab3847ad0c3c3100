"""The report and the runner walk the one experiment index."""

import contextlib
import importlib
import io

import pytest

from repro.exec import SweepExecutor
from repro.experiments import STAGES, quick_scale
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
