#!/usr/bin/env python3
"""Performance ledger: six end-to-end workloads, layer-attributed.

Three ways in, one file:

``python benchmarks/ledger/run.py [--seed S] [--out FILE]``
    The whole ledger: 3 interleaved untraced repeats of every workload
    (A B C … A B C …; each repeat a fresh child running two passes), then
    one traced pass each.  Prints every metric
    by name with its unit, writes one result JSON, exits non-zero iff
    any operation failed.

``python benchmarks/ledger/run.py --workload W --seed S --seconds N --trace 0|1``
    One workload, the way a benchmark driver calls it.  ``--trace 0``
    starts fresh children (two passes each) until at least N seconds
    have been measured, never fewer than 3, and reports the end-to-end
    metrics; ``--trace 1`` runs one untraced and one traced child and
    reports the per-layer metrics.  The last stdout line is one JSON
    object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``python benchmarks/ledger/run.py compare A.json B.json``
    Verdict per (workload, end-to-end metric) between two result files.

``src/`` is put on the import path from this file's location, so
``PYTHONPATH=src`` is accepted but not required.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
# Import the harness as the package ``ledger``: this directory itself
# must not be on the path, or ``trace.py`` would shadow the stdlib's.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
sys.path.insert(0, str(_HERE.parent))
if str(_HERE.parents[1] / "src") not in sys.path:
    sys.path.insert(1, str(_HERE.parents[1] / "src"))

from ledger import compare as cmp  # noqa: E402
from ledger import harness  # noqa: E402

def _child_main(request_json: str) -> int:
    """Child entry point: one JSON line on the real stdout."""
    request = json.loads(request_json)
    stdout, sys.stdout = sys.stdout, sys.stderr  # stray prints stay off the wire
    result = harness.run_child(**request)
    stdout.write(json.dumps(result) + "\n")
    stdout.flush()
    return 0


def _print_checks(checks) -> None:
    """One line per distinct check; every child repeats the same ones."""
    grouped = {}
    for name, ok, detail in checks:
        entry = grouped.setdefault(name, [0, 0, detail])
        entry[0] += 1
        entry[1] += not ok
        if not ok:
            entry[2] = detail
    for name, (count, failed, detail) in grouped.items():
        mark = "FAIL" if failed else "ok  "
        times = f" x{count}" if count > 1 else ""
        print(f"  [{mark}] {name}{times}" + (f" ({detail})" if detail else ""))


def _untraced_child(name: str, args: argparse.Namespace) -> dict:
    """One of the ``CHILDREN`` repeats: it measures for its share of
    ``--seconds`` (at least two passes), so a run pays set-up a fixed
    three times whatever the workload's speed."""
    return harness.spawn_child(
        name, args.seed, passes=harness.PASSES_PER_CHILD,
        seconds=args.seconds / harness.CHILDREN,
    )


def _driver_main(args: argparse.Namespace) -> int:
    """One workload for a benchmark driver; result JSON on the last line."""
    from ledger import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    children = []
    if args.trace:
        children.append(harness.spawn_child(args.workload, args.seed))
        traced = harness.spawn_child(args.workload, args.seed, traced=True)
        untraced_wall = harness.summarise(children)["wall_s"]["value"]
        metrics = harness.layer_metrics(traced, untraced_wall)
        children.append(traced)
    else:
        for _ in range(harness.CHILDREN):
            children.append(_untraced_child(args.workload, args))
        metrics = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in harness.summarise(children).items()
        }
    attempted, failed, checks = harness.tally(children)
    print(f"{args.workload}  seed {args.seed}  {len(children)} children")
    for name, entry in metrics.items():
        print(f"  {name:<42} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  result_digest {children[0]['result_digest']}")
    _print_checks(checks)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _layer_table(traced: dict) -> None:
    layers = traced["trace"]["layers"]
    root = layers["ledger.workload"][1]
    print(f"  {'layer':<28}{'calls':>12}{'self ms':>12}{'share':>8}")
    rows = sorted(
        (
            (total - child, name, calls)
            for name, (calls, total, child) in layers.items()
            if calls
        ),
        reverse=True,
    )
    for self_ns, name, calls in rows:
        print(f"  {name:<28}{calls:>12}{self_ns / 1e6:>12.1f}{self_ns / root:>8.1%}")


def _ledger_main(args: argparse.Namespace) -> int:
    """All six workloads; prints the ledger and writes one result JSON."""
    from ledger import workloads

    names = list(workloads.WORKLOADS)
    untraced = {name: [] for name in names}
    for repeat in range(harness.CHILDREN):
        for name in names:
            print(f"[repeat {repeat + 1}/{harness.CHILDREN}] {name}", file=sys.stderr)
            untraced[name].append(_untraced_child(name, args))
    report = {"stamp": harness.stamp(args.seed), "workloads": {}}
    any_failed = False
    for name in names:
        print(f"[traced] {name}", file=sys.stderr)
        traced = harness.spawn_child(name, args.seed, traced=True)
        summary = harness.summarise(untraced[name])
        layers = harness.layer_metrics(traced, summary["wall_s"]["value"])
        attempted, failed, checks = harness.tally(untraced[name] + [traced])
        any_failed = any_failed or failed > 0
        unit = traced["work_unit"]
        print(f"\n== {name} == ({workloads.WORKLOADS[name][1]})")
        print("  end-to-end (host time, tracing off): value | per-child median [min .. max] n")
        for metric, entry in summary.items():
            label = f"{entry['unit']}" if metric != "work_per_s" else f"{unit}/s"
            print(
                f"  {metric:<14}{entry['value']:>14.6g} {label:<8}| {entry['median']:.6g} "
                f"[{entry['min']:.6g} .. {entry['max']:.6g}] n={entry['n']}"
            )
        print(f"  {'failed_frac':<14}{failed / attempted:>14.6g} {'frac':<8}({failed} of {attempted} operations)")
        print(f"  result_digest {traced['result_digest']}")
        _print_checks(checks)
        print("  per-layer (traced pass; host self time):")
        _layer_table(traced)
        for metric, entry in layers.items():
            print(f"  {metric:<42} {entry['value']:>16.6g} {entry['unit']}")
        report["workloads"][name] = {
            "why": workloads.WORKLOADS[name][1],
            "sizes": traced["sizes"],
            "work_unit": unit,
            "work": traced["work"],
            "result_digest": traced["result_digest"],
            "end_to_end": summary,
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "checks": checks,
            "per_layer": layers,
            "layers": traced["trace"]["layers"],
            "counters": traced["trace"]["counters"],
            "spans": traced["trace"]["spans"],
        }
    out = Path(args.out) if args.out else harness.SCRATCH / f"ledger-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwritten: {out}")
    return 1 if any_failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_child"]:
        return _child_main(argv[1])
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return cmp.main(args.a, args.b)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seconds", type=float, default=9.0,
                        help="host seconds of timed section per workload "
                             "(split over the 3 untraced children)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 reports per-layer metrics")
    parser.add_argument("--out", help="whole-ledger mode: result JSON path")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return _driver_main(args)
    return _ledger_main(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ModuleNotFoundError as exc:
        if exc.name != "repro":
            raise
        # No result line: there is nothing to measure without the program.
        sys.exit(f"cannot import repro (looked in {_HERE.parents[1] / 'src'}): "
                 "run the ledger from a checkout of the repository")
