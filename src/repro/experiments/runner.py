"""Run every experiment in sequence: ``python -m repro.experiments.runner``.

This is ``python -m repro.cli figure all`` under its historical name: it
takes the same flags (``--quick``, ``--jobs N``, ``--cache-dir`` /
``--no-cache``, ``--timeout``, ``--retries``, ``--failure-policy``,
``--chunk-size``) and walks the experiment index
(:data:`repro.experiments.STAGES`) with one shared executor.  Results
are deterministic: the tables are identical whatever the job count, and
a warm-cache re-run skips the simulations entirely (the executor report
at the end shows per-stage cache hits and timing).

Fault tolerance: under a skip policy a crashed or hung cell is recorded
(and the process exits with code 3) instead of aborting the whole run;
every completed cell is cached the moment it finishes, so re-running the
same command executes only the cells without a valid cache entry — the
holes.
"""

from __future__ import annotations

import sys
import time
import traceback

from repro.exec import RunReport, SweepExecutor
from repro.experiments import STAGES, Scale, Stage

__all__ = ["run_stage", "run_all", "exit_code", "main"]


def run_stage(stage: Stage, scale: Scale, executor: SweepExecutor) -> int:
    """Print one stage's table.

    Returns 0, or the number of failed cases that kept the stage from
    tabulating.  Under a skip policy a stage may be unable to tabulate
    around the holes; its completed cells are already durably cached, so
    the traceback goes to stderr and the report tells the story.  Only
    *this stage's* failures justify swallowing — an exception in a stage
    that recorded none (the report is shared across stages) is a real
    bug and propagates.
    """
    failures_before = len(executor.report.failures)
    try:
        stage.run(scale, executor)
    except Exception:
        new_failures = len(executor.report.failures) - failures_before
        if new_failures == 0:
            raise
        traceback.print_exc(file=sys.stderr)
        return new_failures
    return 0


def run_all(scale: Scale, executor: SweepExecutor) -> RunReport:
    for stage in STAGES:
        name = stage.title
        # repro-lint: disable=DET001 -- operator-facing stage timing on
        # stderr/stdout only; simulation results never see wall time.
        start = time.time()
        print(f"===== {name} " + "=" * max(0, 60 - len(name)))
        failed = run_stage(stage, scale, executor)
        if failed:
            print(f"[{name} incomplete: {failed} failed case(s)]")
        # repro-lint: disable=DET001 -- ditto: display-only elapsed time
        print(f"[{name} finished in {time.time() - start:.1f}s]\n")
    print(executor.report.render())
    return executor.report


def exit_code(report: RunReport) -> int:
    """3, with a resume hint on stderr, when any case failed; else 0."""
    if not report.failures:
        return 0
    print(
        f"{len(report.failures)} case(s) failed; re-run the same "
        "command to execute only the cases without a cache entry",
        file=sys.stderr,
    )
    return 3


def main() -> None:
    from repro.cli import main as cli_main

    raise SystemExit(cli_main(["figure", "all", *sys.argv[1:]]))


if __name__ == "__main__":
    main()
