"""Run every experiment in sequence: ``python -m repro.experiments.runner``.

Accepts ``--quick`` for the benchmark-scale sweeps, ``--jobs N`` to fan
the sweep-shaped stages (Figures 1, 10-12, 14, 15 and the fluid
validation) across worker processes, and ``--cache-dir``/``--no-cache``
to control the on-disk result cache.  Results are deterministic: the
tables are identical whatever the job count, and a warm-cache re-run
skips the simulations entirely (the executor report at the end shows
per-stage cache hits and timing).

Fault tolerance: ``--timeout``, ``--retries``, and ``--failure-policy``
configure per-case supervision for the executor-managed stages.  Under
a skip policy a crashed or hung cell is recorded (and the process exits
with code 3) instead of aborting the whole run; every completed cell is
cached the moment it finishes, so re-running the same command resumes
from the stage manifests and executes only the holes.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from repro.exec import ResultCache, RunReport, SweepExecutor, default_cache_dir
from repro.experiments import (
    buffer_pressure,
    convergence,
    deadlines,
    df_bias,
    fig01_oscillation,
    fig02_marking,
    fig04_criterion,
    fig06_08_df,
    fig07_nyquist_loci,
    fig09_critical_n,
    fig10_avg_queue,
    fig11_std_dev,
    fig12_alpha,
    fig13_topology,
    fig14_incast,
    fig15_completion_time,
    fluid_validation,
    queue_buildup,
    sensitivity,
)
from repro.experiments.config import full_scale, quick_scale

__all__ = ["run_all", "main"]


def run_all(
    quick: bool = False,
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    use_cache: bool = True,
    timeout: Optional[float] = None,
    retries: int = 0,
    failure_policy: str = "raise",
) -> RunReport:
    scale = quick_scale() if quick else full_scale()
    cache = (
        ResultCache(cache_dir if cache_dir is not None else default_cache_dir())
        if use_cache
        else None
    )
    executor = SweepExecutor(
        jobs=jobs,
        cache=cache,
        timeout=timeout,
        retries=retries,
        failure_policy=failure_policy,
    )
    ex = executor
    stages = [
        ("Figure 1", lambda: fig01_oscillation.main(scale, executor=ex)),
        ("Figure 2", fig02_marking.main),
        ("Figure 4", fig04_criterion.main),
        ("Figures 6/8", fig06_08_df.main),
        ("Figure 7", fig07_nyquist_loci.main),
        ("Figure 9", fig09_critical_n.main),
        ("Figure 10", lambda: fig10_avg_queue.main(scale, executor=ex)),
        ("Figure 11", lambda: fig11_std_dev.main(scale, executor=ex)),
        ("Figure 12", lambda: fig12_alpha.main(scale, executor=ex)),
        ("Figure 13", fig13_topology.main),
        ("Figure 14", lambda: fig14_incast.main(scale, executor=ex)),
        ("Figure 15", lambda: fig15_completion_time.main(scale, executor=ex)),
        ("Fluid validation", lambda: fluid_validation.main(scale, executor=ex)),
        ("Convergence & fairness", convergence.main),
        ("Queue buildup", queue_buildup.main),
        ("Buffer pressure", buffer_pressure.main),
        ("Design sensitivity", sensitivity.main),
        ("Deadline awareness (D2TCP)", deadlines.main),
        ("Bias-corrected DF", lambda: df_bias.main(scale)),
    ]
    for name, stage in stages:
        # repro-lint: disable=DET001 -- operator-facing stage timing on
        # stderr/stdout only; simulation results never see wall time.
        start = time.time()
        print(f"===== {name} " + "=" * max(0, 60 - len(name)))
        failures_before = len(executor.report.failures)
        try:
            stage()
        except Exception:
            # Under a skip policy a stage may be unable to tabulate
            # around failed cells; its completed cells are already
            # cached, so press on and let the report tell the story.
            # Only *this stage's* failures justify swallowing — an
            # exception in a stage that recorded none (the report is
            # shared across stages) is a real bug and propagates.
            new_failures = len(executor.report.failures) - failures_before
            if failure_policy == "raise" or new_failures == 0:
                raise
            traceback.print_exc(file=sys.stderr)
            print(f"[{name} incomplete: {new_failures} failed case(s)]")
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
        "command to resume from the stage manifests",
        file=sys.stderr,
    )
    return 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="benchmark-scale sweeps (seconds instead of minutes)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for the sweep-shaped stages (default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="result cache directory (default $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run every sweep cell even if a cached result exists",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-case deadline for executor-managed stages",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="bounded retries per case (exponential backoff)",
    )
    parser.add_argument(
        "--failure-policy",
        choices=["raise", "skip", "retry-then-skip"],
        default="raise",
        help="abort on a terminal case failure, or record it and keep "
             "the partial sweep (exit code 3; re-run to resume)",
    )
    args = parser.parse_args()
    report = run_all(
        quick=args.quick,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        timeout=args.timeout,
        retries=args.retries,
        failure_policy=args.failure_policy,
    )
    raise SystemExit(exit_code(report))


if __name__ == "__main__":
    main()
