"""Tests for the command-line interface."""

import contextlib
import signal

import pytest

from repro.cli import build_parser, main
from repro.experiments import STAGES, quick_scale, stage_by_id


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
            assert stage_by_id(fig) in STAGES


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

    def test_analyze_at_the_tangency_says_the_loci_touch(self, capsys):
        """At the calibration point the margin is closed but there is no
        transversal root; the table must not contradict itself."""
        assert main(["analyze", "--flows", "60"]) == 0
        out = capsys.readouterr().out
        (verdict,) = [ln for ln in out.splitlines() if "oscillation predicted" in ln]
        assert verdict.split()[-1] == "yes"
        assert "loci touch, no transversal root" in out
        assert "limit-cycle amplitude" not in out

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

    def test_figure_parser_accepts_executor_flags(self, tmp_path):
        root = tmp_path / "cache" / "root"
        args = build_parser().parse_args(
            ["figure", "10", "--quick", "--jobs", "4",
             "--cache-dir", str(root), "--no-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == root
        # Created while parsing, so a root that cannot be is a usage
        # error before the first cell and not a traceback after it.
        assert root.is_dir()
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
        calls = []

        def run_all(scale, executor):
            calls.append((scale, executor))
            for record in failures:
                executor.report.add_failure(record)
            return executor.report

        monkeypatch.setattr("repro.experiments.runner.run_all", run_all)
        return calls

    def test_supervision_flags_reach_run_all(self, monkeypatch):
        calls = self.stub_run_all(monkeypatch)
        assert main([
            "figure", "all", "--quick", "--jobs", "3", "--no-cache",
            "--timeout", "7.5", "--retries", "2",
            "--failure-policy", "skip",
        ]) == 0
        [(scale, executor)] = calls
        assert scale == quick_scale()
        assert dict(
            jobs=executor.jobs, cache=executor.cache,
            timeout=executor.timeout, retries=executor.retries,
            failure_policy=executor.failure_policy,
        ) == dict(
            jobs=3, cache=None, timeout=7.5, retries=2,
            failure_policy="skip",
        )

    def test_recorded_failures_exit_3(self, monkeypatch, capsys):
        from repro.exec.report import FailureRecord

        failure = FailureRecord(
            stage="Figure 10", experiment="fig10", label="N=10",
            case_key="0" * 16, kind="timeout", message="deadline",
            attempts=1,
        )
        self.stub_run_all(monkeypatch, failures=[failure])
        assert main([
            "figure", "all", "--failure-policy", "skip", "--no-cache",
        ]) == 3
        assert "1 case(s) failed" in capsys.readouterr().err

    def test_chunk_size_reaches_the_executor(self, monkeypatch):
        """``figure all`` used to refuse the flag because its own copy of
        the executor construction had no ``chunk_size``."""
        calls = self.stub_run_all(monkeypatch)
        assert main([
            "figure", "all", "--chunk-size", "4", "--no-cache",
        ]) == 0
        [(_, executor)] = calls
        assert executor.chunk_size == 4

    def test_runner_module_is_figure_all(self, monkeypatch):
        """``python -m repro.experiments.runner`` has no parser of its
        own: its argv goes to ``figure all`` verbatim."""
        from repro.experiments import runner

        calls = self.stub_run_all(monkeypatch)
        monkeypatch.setattr(
            "sys.argv", ["runner", "--quick", "--jobs", "2", "--no-cache"]
        )
        with pytest.raises(SystemExit) as exit_info:
            runner.main()
        assert exit_info.value.code == 0
        [(scale, executor)] = calls
        assert scale == quick_scale()
        assert executor.jobs == 2 and executor.cache is None


_SMALL_CAMPAIGN = [
    "campaign", "--k", "40", "--loads", "0.2", "--fan-ins", "4",
    "--seeds", "1", "--duration", "0.002", "--no-cache",
]

#: ROADMAP 4(d): each of these reached a library ``ValueError`` /
#: ``ZeroDivisionError`` traceback instead of a usage error.
BAD_ARGV = [
    ["campaign", "--k1k2", "30,abc"],
    ["simulate", "--duration", "0"],
    ["simulate", "--flows", "0"],
    ["incast", "--flows", "0"],
    ["incast", "--queries", "0"],
    ["analyze", "--flows", "0"],
    ["analyze", "--g", "0"],
    ["figure", "10", "--retries", "-1"],
    ["figure", "10", "--timeout", "0"],
    ["figure", "10", "--chunk-size", "0"],
    ["simulate", "--rtt", "-1"],
    ["analyze", "--gain-scale", "-1"],
    ["cache", "gc", "--older-than", "-5"],
    # Non-finite and out-of-range numbers used to reach the library:
    # the first and fourth never returned, the second and the last two
    # were tracebacks, the third ran every cell with a threshold that
    # never marks.
    ["simulate", "--duration", "inf"],
    ["simulate", "--rtt", "inf"],
    ["campaign", "--k", "nan"],
    ["campaign", "--duration", "nan"],
    ["campaign", "--host-bandwidth", "0"],
    ["campaign", "--per-hop-delay", "-1"],
    # A warm-up (0.4 x duration) that discards every queue sample used
    # to print ``nan`` statistics under five numpy RuntimeWarnings.
    ["simulate", "--duration", "1e-7"],
    # Destinations that cannot be written used to fail *after* the work:
    # every cell run and then a FileNotFoundError traceback from
    # ``open()``, ``cache.put`` or the profiler's ``finally``.
    [*_SMALL_CAMPAIGN, "--output", "/nonexistent/x.json"],
    ["figure", "10", "--quick", "--cache-dir", "/proc/nope"],
    ["figure", "2", "--profile", "--profile-out", "/nonexistent/p"],
    # Without ``--profile`` nothing is ever written there: the path
    # used to be truncated while the flags were parsed, then ignored.
    ["simulate", "--profile-out", "/dev/null"],
]


@contextlib.contextmanager
def _deadline(seconds):
    """Cut a call off: two of the values below used to run for ever."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_bad_value_is_a_usage_error(argv, capsys, recwarn):
    with pytest.raises(SystemExit) as exit_info, _deadline(5.0):
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert f"repro {argv[0]}: error: argument {argv[-2]}" in err
    assert "Traceback" not in err
    # Nothing was tabulated - no cell ran first, no ``nan`` was printed.
    assert out == ""
    assert not recwarn.list


def test_measured_window_shorter_than_two_samples_is_a_bad_grid(capsys):
    """Each flag is valid alone; together the warm-up eats the window.
    Every cell used to run, report ``queue (pkts) 0.0, queue std 0.0``
    for a downlink with four bulk flows pinned on it, and cache that."""
    with _deadline(5.0):
        assert main([*_SMALL_CAMPAIGN, "--warmup", "0.00199"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("invalid campaign grid: warmup 0.00199 s leaves")
    assert out == ""


class TestDestinationSurvivesFailure:
    """``--output`` is checked while the flags are parsed, and that
    check used to be ``write_bytes(b"")``: whatever stopped the command
    short of its result had already emptied the file it would have
    replaced."""

    PRECIOUS = b'{"precious": 1}\n'
    #: One 2 ms cell that does run (the bare list's default warm-up
    #: outlasts its duration).
    ONE_CELL = [*_SMALL_CAMPAIGN, "--warmup", "0.0005"]

    @pytest.fixture
    def output(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(self.PRECIOUS)
        return path

    def test_bad_grid(self, output, capsys):
        argv = [*self.ONE_CELL, "--loads", "abc", "--output", str(output)]
        assert main(argv) == 2
        assert "invalid campaign grid" in capsys.readouterr().err
        assert output.read_bytes() == self.PRECIOUS

    def test_first_cell_raises(self, output, monkeypatch):
        def broken_cell(case):
            raise RuntimeError("first cell")

        monkeypatch.setattr("repro.campaign.cells.run_case", broken_cell)
        with pytest.raises(RuntimeError, match="first cell"):
            main([*self.ONE_CELL, "--output", str(output)])
        assert output.read_bytes() == self.PRECIOUS

    def test_a_finished_campaign_replaces_it(self, output):
        assert main([*self.ONE_CELL, "--output", str(output)]) == 0
        assert output.read_bytes().startswith(b"{\n")
        assert b"precious" not in output.read_bytes()
