"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``analyze``   — DF stability work-up for one configuration
                  (margin, sufficient condition, predicted limit cycle);
* ``figure``    — print one stage of the experiment index
                  (:data:`repro.experiments.STAGES`: a figure number or
                  an extension study's name), or ``all``;
* ``simulate``  — one dumbbell run with chosen protocol and flow count,
                  printing queue statistics;
* ``incast``    — one incast point on the testbed;
* ``campaign``  — an FCT grid campaign on the leaf–spine fabric:
                  K / (K1, K2) × offered load × incast fan-in ×
                  scenario × seeds, run through the fault-tolerant
                  executor with censoring-aware p50/p95/p99 aggregation
                  (see :mod:`repro.campaign`);
* ``cache``     — result-cache maintenance: ``stats``, ``verify``
                  (quarantine damaged entries), ``gc``.

``--protocol`` and ``--senders`` take names from the protocol table
(:data:`repro.sim.protocols.PROTOCOLS`).  ``figure`` and ``simulate``
accept ``--profile`` to wrap the run in cProfile (top-20 cumulative
table on stderr, raw pstats via ``--profile-out``).  ``figure`` and
``campaign`` share one set of executor flags: ``--jobs``,
``--cache-dir``/``--no-cache``, ``--timeout``, ``--retries`` and
``--failure-policy`` for fault-tolerant execution, plus ``--chunk-size``
to batch several cases per worker round trip; with a skip policy the
exit code is 3 when a sweep completed partially (re-run the same command
to resume the holes).

Examples::

    python -m repro.cli analyze --flows 55 --protocol dt-dctcp
    python -m repro.cli figure 14 --quick
    python -m repro.cli figure deadlines
    python -m repro.cli figure all --quick --jobs 4
    python -m repro.cli figure 10 --quick --profile
    python -m repro.cli figure 10 --jobs 8 --timeout 600 --retries 2 \\
        --failure-policy skip
    python -m repro.cli simulate --flows 20 --protocol dctcp --duration 0.03
    python -m repro.cli incast --flows 35 --protocol dctcp
    python -m repro.cli campaign --k 40 --k 65 --k1k2 30,50 \\
        --loads 0.2,0.4 --fan-ins 0,8 --scenarios buildup,incast \\
        --seeds 1,2,3 --jobs 8 --output campaign.json
    python -m repro.cli cache stats
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.exec import ResultCache, SweepExecutor
from repro.experiments import STAGES, full_scale, quick_scale, stage_by_id
from repro.experiments.protocols import paper_config
from repro.experiments.tables import print_table
from repro.sim.protocols import PROTOCOLS
from repro.sim.tcp.sender import DctcpSender

__all__ = ["add_executor_args", "executor_from_args", "main", "output_file"]


def _analyzable() -> list:
    """``analyze`` models the DCTCP alpha loop around a marking scheme,
    so it takes the table's DCTCP-sender protocols only."""
    return sorted(
        name
        for name, protocol in PROTOCOLS.items()
        if protocol.sender_cls is DctcpSender and protocol.scheme is not None
    )


def _checked(cast: Callable, ok: Callable, wants: str) -> Callable:
    """An argparse ``type=``: ``cast(text)``, which must satisfy ``ok``."""

    def convert(text: str):
        try:
            value = cast(text)
        except (ValueError, OSError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wants}, got {text!r}")
        return value

    return convert


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_non_negative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
# ``0 < v < inf`` is false for NaN and for infinity: a horizon of either
# kind never ends, and a NaN threshold never marks.
_positive_float = _checked(
    float, lambda v: 0 < v < math.inf, "a finite number > 0"
)
_non_negative_float = _checked(
    float, lambda v: 0 <= v < math.inf, "a finite number >= 0"
)
_open_unit_interval = _checked(
    float, lambda v: 0 < v < 1, "a number in (0, 1)"
)


def _probed_file(text: str) -> Path:
    # Append mode creates an absent file and leaves an existing one's
    # bytes alone: the command overwrites them when it has a result.
    with open(text, "ab"):
        pass
    return Path(text)


def _new_dir(text: str) -> Path:
    Path(text).mkdir(parents=True, exist_ok=True)
    return Path(text)


# Destinations are probed while the flags are parsed: one that cannot be
# written is a usage error before the work, not a traceback after it.
output_file = _checked(_probed_file, Path.exists, "a writable file path")
_cache_root = _checked(_new_dir, Path.is_dir, "a creatable directory path")


def _k1k2(text: str) -> Tuple[float, float]:
    try:
        k1, k2 = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"wants 'K1,K2', got {text!r}"
        ) from None
    return (k1, k2)


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.parameters import paper_dctcp, paper_network
    from repro.core.stability import analyze, calibrate_gain_scale

    net = paper_network(args.flows, g=args.g)
    params = PROTOCOLS[args.protocol].scheme
    scale = (
        args.gain_scale
        if args.gain_scale is not None
        else calibrate_gain_scale(paper_network(10), paper_dctcp(), 60)
    )
    report = analyze(net, params, loop_gain_scale=scale)
    rows = [
        ("flows", args.flows),
        ("gain scale", scale),
        ("sufficient condition (Thm 1/2)", report.sufficient_condition),
        ("stability margin", report.margin),
        ("oscillation predicted", report.oscillation_predicted),
    ]
    if report.intersections:
        rows.append(("limit-cycle amplitude (pkts)", report.predicted_amplitude))
        rows.append(("limit-cycle frequency (rad/s)", report.predicted_frequency))
    elif report.oscillation_predicted:
        # Tangency (the onset itself): the margin is closed but the
        # double root has no transversal crossing to read (X, w) from.
        rows.append(("limit cycle", "loci touch, no transversal root"))
    print_table(["quantity", "value"], rows,
                title=f"DF stability analysis - {args.protocol}")
    return 0


@contextlib.contextmanager
def _maybe_profiled(args: argparse.Namespace) -> Iterator[None]:
    """``--profile``: cProfile the run, top-20 cumulative table on stderr
    (stdout carries the tables), raw pstats to ``--profile-out``."""
    if not getattr(args, "profile", False):
        if getattr(args, "profile_out", None) is not None:
            args.usage_error("argument --profile-out: needs --profile")
        yield
        return
    import cProfile
    import pstats

    profile = cProfile.Profile()
    profile.enable()
    try:
        yield
    finally:
        profile.disable()
        if args.profile_out is not None:
            profile.dump_stats(args.profile_out)
            print(f"[profile] raw pstats written to {args.profile_out}",
                  file=sys.stderr)
        stats = pstats.Stats(profile, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.runner import exit_code, run_all, run_stage

    scale = quick_scale() if args.quick else full_scale()
    executor = executor_from_args(args)
    if args.id == "all":
        return exit_code(run_all(scale, executor))
    stage = stage_by_id(args.id)
    if stage is None:
        print(f"unknown figure {args.id!r}; choose from "
              f"{[s.id for s in STAGES]} or 'all'", file=sys.stderr)
        return 2
    run_stage(stage, scale, executor)
    if "executor" in stage.takes:
        # Telemetry on stderr so the figure table on stdout stays
        # byte-identical to a plain sequential run.
        print(executor.report.render(), file=sys.stderr)
    return exit_code(executor.report)


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.apps.bulk import launch_bulk_flows
    from repro.sim.topology import dumbbell
    from repro.sim.trace import QueueMonitor

    protocol = paper_config(args.protocol)
    network = dumbbell(args.flows, protocol.marker_factory, rtt=args.rtt)
    flows = launch_bulk_flows(network, sender_cls=protocol.sender_cls)
    monitor = QueueMonitor(network.sim, network.bottleneck_queue, 20e-6)
    monitor.start()
    watchdog = None
    if args.invariants:
        from repro.sim.invariants import InvariantWatchdog

        watchdog = InvariantWatchdog(network.network)
        watchdog.start(args.duration / 16.0)
    network.sim.run(until=args.duration)
    if watchdog is not None:
        watchdog.check()
    try:
        mean_queue, std_queue = monitor.steady_state(args.duration * 0.4)
    except ValueError as exc:
        args.usage_error(f"argument --duration: {exc}")
    delivered = sum(f.receiver.packets_received for f in flows)
    # Baseline senders keep no congestion-extent estimate.
    alphas = [
        f.sender.alpha for f in flows if isinstance(f.sender, DctcpSender)
    ]
    rows = [
        ("protocol", protocol.name),
        ("flows", args.flows),
        ("mean queue (pkts)", mean_queue),
        ("std queue (pkts)", std_queue),
        ("mean alpha", sum(alphas) / len(alphas) if alphas else "n/a"),
        ("goodput (Gbps)", delivered * 1500 * 8 / args.duration / 1e9),
        ("marks", network.bottleneck_queue.stats.marked),
        ("drops", network.bottleneck_queue.stats.dropped),
        ("events processed", network.sim.events_processed),
    ]
    if watchdog is not None:
        rows.append(("invariant checks passed", watchdog.checks_run))
    print_table(["quantity", "value"], rows, title="dumbbell simulation")
    return 0


def cmd_incast(args: argparse.Namespace) -> int:
    from repro.experiments.fig14_incast import run_incast_point

    point = run_incast_point(
        paper_config(args.protocol, testbed=True),
        args.flows,
        n_queries=args.queries,
    )
    print_table(
        ["quantity", "value"],
        [
            ("protocol", point.protocol),
            ("flows", point.n_flows),
            ("goodput (Mbps)", point.goodput_bps / 1e6),
            ("queries", point.queries),
            ("queries with timeouts", point.queries_with_timeouts),
            ("total timeouts", point.total_timeouts),
        ],
        title="incast point",
    )
    return 0


def _csv(text: str, cast):
    return tuple(cast(part) for part in text.split(",") if part)


#: ``campaign --scenario`` presets: defaults a preset supplies for every
#: flag the user left unset.  ``space-dc`` is the chaos stress regime —
#: a satellite-grade fabric (200 ms base RTT over 8 hops, 1 Gbps access)
#: with per-packet jitter and a deterministic link-flap train, comparing
#: DCTCP, DT-DCTCP and CUBIC.
_CAMPAIGN_PRESETS = {
    "space-dc": {
        "scenarios": "space-dc",
        "loads": "0.1",
        "fan_ins": "2",
        "host_bandwidth": 1e9,
        "fabric_bandwidth": 4e9,
        "per_hop_delay": 25e-3,
        "duration": 10.0,
        "warmup": 1.0,
        "thresholds": ((65.0,), (50.0, 80.0), (65.0,)),
        "senders": "dctcp,dctcp,cubic",
    },
}

#: Defaults used when no preset (and no explicit flag) applies.
_CAMPAIGN_DEFAULTS = {
    "scenarios": "buildup",
    "loads": "0.2,0.4",
    "fan_ins": "0,8",
    "host_bandwidth": 10e9,
    "fabric_bandwidth": 40e9,
    "per_hop_delay": 5e-6,
    "duration": 0.04,
    "warmup": 0.008,
    # The paper's Fixed-K and DT-DCTCP simulation settings.
    "thresholds": ((40.0,), (30.0, 50.0)),
    "senders": None,
}


def _campaign_grid(args: argparse.Namespace):
    """The grid the ``campaign`` flags describe (``ValueError`` if invalid)."""
    from repro.campaign import CampaignGrid

    preset = _CAMPAIGN_PRESETS.get(args.scenario or "", {})
    # ``--k`` occurrences, then ``--k1k2`` occurrences.
    thresholds = tuple([(k,) for k in args.k or []] + (args.k1k2 or []))
    senders = args.senders
    if not thresholds:
        # Only when the user named no marking config at all may the
        # preset pick the protocol axis (thresholds + paired senders).
        thresholds = preset.get(
            "thresholds", _CAMPAIGN_DEFAULTS["thresholds"]
        )
        if senders is None:
            senders = preset.get("senders", _CAMPAIGN_DEFAULTS["senders"])

    def setting(key: str):
        """Explicit flag > preset value > global default, per setting."""
        value = getattr(args, key)
        if value is not None:
            return value
        return preset.get(key, _CAMPAIGN_DEFAULTS[key])

    return CampaignGrid(
        thresholds=thresholds,
        loads=_csv(setting("loads"), float),
        fan_ins=_csv(setting("fan_ins"), int),
        scenarios=_csv(setting("scenarios"), str),
        seeds=_csv(args.seeds, int),
        n_leaves=args.leaves,
        n_spines=args.spines,
        hosts_per_leaf=args.hosts_per_leaf,
        host_bandwidth_bps=setting("host_bandwidth"),
        fabric_bandwidth_bps=setting("fabric_bandwidth"),
        per_hop_delay=setting("per_hop_delay"),
        flow_bytes=args.flow_bytes,
        duration=setting("duration"),
        warmup=setting("warmup"),
        senders=_csv(senders, str) if senders is not None else None,
        jitter_s=args.jitter,
        flap_period=args.flap_period,
        flap_down=args.flap_down,
        flap_count=args.flap_count,
    )


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run one declarative FCT grid campaign on the leaf-spine fabric."""
    import json

    from repro.campaign import run_campaign
    from repro.experiments.runner import exit_code

    try:
        grid = _campaign_grid(args)
    except ValueError as exc:
        print(f"invalid campaign grid: {exc}", file=sys.stderr)
        return 2
    executor = executor_from_args(args)
    result = run_campaign(grid, executor)
    print_table(
        [
            "protocol",
            "scenario",
            "load",
            "fan-in",
            "flows",
            "censored",
            "FCT p50",
            "FCT p95",
            "FCT p99",
            "slowdown p99",
            "queue (pkts)",
            "queue std",
        ],
        result.table_rows(),
        title=(
            f"campaign - {grid.n_leaves}x{grid.n_spines} leaf-spine, "
            f"{grid.n_cells} cells x {len(grid.seeds)} seeds"
        ),
    )
    if args.output is not None:
        with open(args.output, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        print(f"written: {args.output}")
    print(executor.report.render(), file=sys.stderr)
    return exit_code(executor.report)


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        rows = [
            ("root", stats["root"]),
            ("entries", stats["entries"]),
            ("bytes", stats["bytes"]),
            ("quarantined", stats["quarantined"]),
        ] + [
            (f"  {name}", count)
            for name, count in stats["experiments"].items()
        ]
        print_table(["quantity", "value"], rows, title="result cache")
        return 0
    if args.action == "verify":
        outcome = cache.verify()
        print(
            f"checked {outcome['checked']} entries: {outcome['ok']} ok, "
            f"{outcome['corrupt']} corrupt (quarantined), "
            f"{outcome['stale']} stale"
        )
        return 1 if outcome["corrupt"] else 0
    if args.action == "gc":
        outcome = cache.gc(max_age_days=args.older_than)
        print(
            f"removed {outcome['removed_entries']} entries and "
            f"{outcome['removed_quarantine']} quarantined files"
        )
        return 0
    print(f"unknown cache action {args.action!r}", file=sys.stderr)
    return 2


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import LintEngine, default_rules, render_json, render_text

    rules = default_rules()
    findings = LintEngine(rules).lint_tree()
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings, rules=rules))
    return 1 if findings else 0


_CACHE_DIR_HELP = (
    "result cache directory (default $REPRO_CACHE_DIR or .repro-cache)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="DF stability work-up")
    p.add_argument("--flows", type=_positive_int, default=55)
    p.add_argument("--protocol", choices=_analyzable(), default="dctcp")
    p.add_argument("--g", type=_open_unit_interval, default=1 / 16)
    p.add_argument("--gain-scale", type=_positive_float, default=None,
                   help="loop gain scale (default: Figure 9 calibration)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("figure", help="print one experiment stage, or all")
    p.add_argument("id", help="stage id (a figure number, an extension "
                              "study's name) or 'all'")
    p.add_argument("--quick", action="store_true")
    add_executor_args(p)
    _add_profile_args(p)
    p.set_defaults(func=cmd_figure, usage_error=p.error)

    p = sub.add_parser("simulate", help="one dumbbell run")
    p.add_argument("--flows", type=_positive_int, default=10)
    p.add_argument("--protocol", choices=sorted(PROTOCOLS), default="dctcp")
    p.add_argument("--duration", type=_positive_float, default=0.03)
    p.add_argument("--rtt", type=_positive_float, default=100e-6)
    p.add_argument("--invariants", action="store_true",
                   help="audit packet conservation / queue "
                        "invariants during and after the run")
    _add_profile_args(p)
    p.set_defaults(func=cmd_simulate, usage_error=p.error)

    p = sub.add_parser("incast", help="one incast point on the testbed")
    p.add_argument("--flows", type=_positive_int, default=32)
    p.add_argument("--protocol", choices=sorted(PROTOCOLS), default="dctcp")
    p.add_argument("--queries", type=_positive_int, default=10)
    p.set_defaults(func=cmd_incast)

    p = sub.add_parser(
        "campaign",
        help="FCT grid campaign on the leaf-spine fabric",
    )
    p.add_argument("--scenario", choices=sorted(_CAMPAIGN_PRESETS),
                   default=None,
                   help="named preset filling every flag left unset "
                        "(space-dc: 200 ms-RTT chaos stress, "
                        "DCTCP vs DT-DCTCP vs CUBIC)")
    p.add_argument("--k", type=_positive_float, action="append", metavar="K",
                   help="one Fixed-K config in packets (repeatable)")
    p.add_argument("--k1k2", type=_k1k2, action="append", metavar="K1,K2",
                   help="one DT-DCTCP config in packets (repeatable); "
                        "default grid when neither flag is given: "
                        "--k 40 --k1k2 30,50")
    p.add_argument("--senders", type=str, default=None, metavar="CSV",
                   help="sender per marking config, zip-paired (from "
                        f"{{{', '.join(sorted(PROTOCOLS))}}}; "
                        "default all-dctcp)")
    p.add_argument("--loads", type=str, default=None,
                   help="comma-separated offered loads "
                        "(fraction of the client's access rate; "
                        "default 0.2,0.4)")
    p.add_argument("--fan-ins", type=str, default=None,
                   help="comma-separated disturbance sizes (bulk flows / "
                        "incast burst width; 0 = none; default 0,8)")
    p.add_argument("--scenarios", type=str, default=None,
                   help="comma-separated from {buildup, incast, space-dc} "
                        "(default buildup)")
    p.add_argument("--seeds", type=str, default="1,2,3",
                   help="comma-separated replicate seeds "
                        "(also salt ECMP placement)")
    p.add_argument("--leaves", type=_positive_int, default=3)
    p.add_argument("--spines", type=_positive_int, default=2)
    p.add_argument("--hosts-per-leaf", type=_positive_int, default=2)
    p.add_argument("--host-bandwidth", type=_positive_float, default=None,
                   metavar="BPS", help="access-link rate (default 10e9)")
    p.add_argument("--fabric-bandwidth", type=_positive_float, default=None,
                   metavar="BPS", help="fabric-link rate (default 40e9)")
    p.add_argument("--per-hop-delay", type=_non_negative_float, default=None,
                   metavar="SECONDS",
                   help="propagation delay per hop (default 5e-6; "
                        "space-dc preset: 25e-3)")
    p.add_argument("--flow-bytes", type=_positive_int, default=20 * 1024,
                   help="short-flow transfer size")
    p.add_argument("--duration", type=_positive_float, default=None,
                   help="simulated window per cell (seconds; default 0.04)")
    p.add_argument("--warmup", type=_non_negative_float, default=None,
                   help="queue statistics discard this prefix "
                        "(seconds; default 0.008)")
    p.add_argument("--jitter", type=_non_negative_float, default=2e-3,
                   metavar="SECONDS",
                   help="space-dc cells: per-packet propagation jitter "
                        "amplitude on every fabric link")
    p.add_argument("--flap-period", type=_non_negative_float, default=2.0,
                   help="space-dc cells: seconds between link flaps")
    p.add_argument("--flap-down", type=_non_negative_float, default=0.5,
                   help="space-dc cells: outage length per flap")
    p.add_argument("--flap-count", type=int, default=3,
                   help="space-dc cells: flaps in the train (0 disables)")
    p.add_argument("--output", type=output_file, default=None, metavar="PATH",
                   help="also write the full aggregates as JSON")
    add_executor_args(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("cache", help="result-cache maintenance")
    p.add_argument("action", choices=["stats", "verify", "gc"])
    p.add_argument("--cache-dir", type=Path, default=None,
                   help=_CACHE_DIR_HELP)
    p.add_argument("--older-than", type=_non_negative_float, default=None,
                   metavar="DAYS",
                   help="gc: also remove valid entries older than DAYS")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "lint",
        help="determinism static analysis over src/",
    )
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (default text)")
    p.set_defaults(func=cmd_lint)
    return parser


def add_executor_args(p: argparse.ArgumentParser) -> None:
    """Declare the flags :func:`executor_from_args` reads."""
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for the sweep executor")
    p.add_argument("--cache-dir", type=_cache_root, default=None,
                   help=_CACHE_DIR_HELP)
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and bypass the result cache")
    p.add_argument("--timeout", type=_positive_float, default=None,
                   metavar="SECONDS",
                   help="per-case deadline; a hung worker is torn down "
                        "and the case retried or failed")
    p.add_argument("--retries", type=_non_negative_int, default=0,
                   help="bounded retries per case (exponential backoff)")
    p.add_argument("--failure-policy",
                   choices=["raise", "skip"],
                   default="raise",
                   help="what a terminal case failure does: abort the "
                        "stage, or record it and keep the partial sweep "
                        "(exit code 3; re-run to resume)")
    p.add_argument("--chunk-size", type=_positive_int, default=None,
                   metavar="N",
                   help="ship up to N cases per worker round trip "
                        "(amortises pickle/IPC for grids of sub-second "
                        "cells; results are identical to unchunked)")


def executor_from_args(args: argparse.Namespace) -> SweepExecutor:
    """The sweep executor the parsed :func:`add_executor_args` flags ask for."""
    return SweepExecutor(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        timeout=args.timeout,
        retries=args.retries,
        failure_policy=args.failure_policy,
        chunk_size=args.chunk_size,
    )


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", action="store_true",
                   help="wrap the run in cProfile "
                        "(top-20 cumulative table on stderr)")
    p.add_argument("--profile-out", type=output_file, default=None,
                   metavar="PATH", help="also dump raw pstats to PATH")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _maybe_profiled(args):
        return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
