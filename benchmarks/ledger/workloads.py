"""The six ledger workloads: inputs from a seed, public calls only.

Each workload is a function ``(seed, scale) -> Plan``.  A :class:`Plan`
is the workload with its inputs already generated: ``sizes`` says what
will run, ``setup`` prepares scratch state (counted in ``setup_s``),
``units`` is the timed section — named callables run in order, each a
case or a whole campaign, each returning its results and rendered tables
as plain JSON data — ``check`` turns that output into pass/fail output
checks, and ``work`` counts what ``work_per_s`` divides by time.

``scale`` multiplies simulated durations and repetition counts; 1.0 is
the size the benchmark is run and gated at (see ``SIZES`` and the
README), and the harness tests pass a few percent.  It is a function
argument on purpose — there is no CLI flag for it.

Every workload is a **closed loop with one client**: cases run one
after another in this process.  Only ``sweep-replay`` phase (a) fans
out, over the executor's own pool with ``jobs = 2``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.campaign import CampaignGrid, run_campaign
from repro.campaign import cells as _cells  # noqa: F401  (executor imports it by name; load it in set-up, not in the first timed case)
from repro.exec import ResultCache, SweepExecutor, execute_case
from repro.exec import faults
from repro.experiments import (
    fig04_criterion,
    fig09_critical_n,
    fig14_incast,
    fluid_validation,
    queue_sweep,
    sensitivity,
)
from repro.experiments.config import Scale

__all__ = ["Check", "Plan", "WORKLOADS", "SIZES", "build"]

#: (name, passed, detail) — one output check; each is one operation in
#: ``failed_frac``.
Check = Tuple[str, bool, str]

#: What runs at ``scale = 1.0``.  The ISSUE's sizes (≈ 60 s per pass of
#: all six on the 2-vCPU reference box) were scaled down uniformly in
#: simulated duration / repetition count so that the driver's
#: 4 + 22 × 6 runs — each three fresh children of two passes — fit its
#: time cap; every driver run still measures ≥ 10 s of timed section.
SIZES: Dict[str, Dict[str, Any]] = {
    "dumbbell-steady": {
        "sim_duration": 0.015, "warmup": 0.006, "sample_interval": 20e-6,
        "flow_counts": (10, 40, 70, 100),
    },
    "incast-burst": {"n_queries": 6, "flows": (16, 30, 34, 36, 40)},
    "fabric-cold": {"duration": 0.008, "warmup": 0.0016},
    "spacedc-chaos": {
        "duration": 1.2, "warmup": 0.2, "flap_period": 0.3,
        "flap_down": 0.1, "flap_count": 3,
    },
    "sweep-replay": {"demo_cases": 250, "warm_passes": 100, "jobs": 2, "chunk_size": 16},
    "theory-fluid": {
        "fig09_step": 45, "fluid_duration": 0.03, "fluid_flows": (10, 20, 30, 40),
    },
}


@dataclasses.dataclass
class Plan:
    """One workload with its inputs generated and nothing yet run."""

    name: str
    #: Everything that determines the run, JSON-serialisable.  Two plans
    #: with equal ``sizes`` do identical work.
    sizes: Dict[str, Any]
    #: Unit of ``work_per_s``.
    work_unit: str
    #: The timed section: ``(name, callable)`` in run order.  The harness
    #: times each unit on its own, because on a shared vCPU a burst of
    #: contention spoils one case, not a whole pass.
    units: List[Tuple[str, Callable[[], Any]]]
    #: ``{unit name: unit output} -> checks``.
    check: Callable[[Dict[str, Any]], List[Check]]
    #: ``(output, data packets received by TcpReceivers) -> units``.
    work: Callable[[Dict[str, Any], int], int]
    #: Cases / stages in the timed section (operations attempted, before
    #: output checks are added).
    operations: int
    setup: Callable[[Path], None] = lambda scratch: None

    def __post_init__(self) -> None:
        names = [name for name, _ in self.units]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: unit names must be unique: {names}")


def _case_units(cases, experiment) -> List[Tuple[str, Callable[[], Any]]]:
    """One unit per case.  ``run_case`` is looked up on the experiment
    module at call time, like the executor does, so a traced pass sees
    its case wrapper."""
    return [
        (case.label, lambda case=case: experiment.run_case(case))
        for case in cases
    ]


def _scale(**fields: Any) -> Scale:
    """A :class:`Scale` carrying only the fields one experiment reads;
    the rest are placeholders that satisfy its validation."""
    base = dict(
        sim_duration=1.0, warmup=0.5, sample_interval=1.0, flow_counts=(),
        n_queries=1, incast_flows=(), completion_flows=(), fluid_duration=1.0,
    )
    return Scale(**{**base, **fields})


def _packets(output: Dict[str, Any], received: int) -> int:
    return received


def _scaled(value: float, scale: float) -> float:
    # Rounded so the sizes recorded in a result file read as intended.
    return round(value * scale, 9)


def _count(value: int, scale: float) -> int:
    return max(1, round(value * scale))


# ---------------------------------------------------------------------
# dumbbell-steady
# ---------------------------------------------------------------------


def dumbbell_steady(seed: int, scale: float = 1.0) -> Plan:
    """Saturated single bottleneck, the paper's Figures 10-12 regime.

    ``queue_sweep.run_case`` takes no seed (bulk flows start together,
    nothing is drawn), so the seed moves the three flow counts the
    claim check does not pin: a zero-sum shift, because host time per
    case is linear in N and the pass should cost the same on every seed.
    """
    size = SIZES["dumbbell-steady"]
    rng = random.Random(f"dumbbell-steady/{seed}")
    a, b = rng.randint(-5, 5), rng.randint(-5, 5)
    n10, n40, n70, n100 = size["flow_counts"]
    flow_counts = (n10, n40 + a, n70 + b, n100 - a - b)
    cases = queue_sweep.cases(
        _scale(
            sim_duration=_scaled(size["sim_duration"], scale),
            warmup=_scaled(size["warmup"], scale),
            sample_interval=size["sample_interval"],
            flow_counts=flow_counts,
        )
    )

    def check(output: Dict[str, Any]) -> List[Check]:
        std = {
            (r["protocol"], r["n_flows"]): r["std_queue"]
            for r in output.values()
        }
        dc, dt = std[("DCTCP", n10)], std[("DT-DCTCP", n10)]
        return [
            (
                f"DT-DCTCP queue std < DCTCP's at N={n10}",
                dt < dc,
                f"{dt:.3f} vs {dc:.3f} pkts",
            )
        ]

    return Plan(
        name="dumbbell-steady",
        sizes={"cases": [dict(c.params, label=c.label) for c in cases]},
        work_unit="pkts",
        units=_case_units(cases, queue_sweep),
        check=check, work=_packets, operations=len(cases),
    )


# ---------------------------------------------------------------------
# incast-burst
# ---------------------------------------------------------------------


def incast_burst(seed: int, scale: float = 1.0) -> Plan:
    """Fan-in bursts into the 128 KB testbed port: drops, RTOs, churn.

    ``fig14_incast.run_case`` exposes no jitter seed, so the seed moves
    the two flow counts below the collapse region, zero-sum for the
    same reason as ``dumbbell-steady`` (host time is linear in fan-in).
    """
    size = SIZES["incast-burst"]
    shift = random.Random(f"incast-burst/{seed}").randint(-3, 3)
    low, mid, *collapse = size["flows"]
    flows = (low + shift, mid - shift, *collapse)
    cases = fig14_incast.cases(
        _scale(n_queries=_count(size["n_queries"], scale), incast_flows=flows)
    )
    line_rate = cases[0].params["bandwidth_bps"]

    def collapse_point(output: Dict[str, Any], protocol: str) -> float:
        for r in output.values():
            if r["protocol"] == protocol and r["goodput_bps"] < 0.5 * line_rate:
                return r["n_flows"]
        return float("inf")

    def check(output: Dict[str, Any]) -> List[Check]:
        dc = collapse_point(output, "DCTCP")
        dt = collapse_point(output, "DT-DCTCP")
        return [
            (
                "DT-DCTCP incast collapse point >= DCTCP's",
                dt >= dc,
                f"{dt} vs {dc} flows",
            )
        ]

    return Plan(
        name="incast-burst",
        sizes={"cases": [dict(c.params, label=c.label) for c in cases]},
        work_unit="pkts",
        units=_case_units(cases, fig14_incast),
        check=check, work=_packets, operations=len(cases),
    )


# ---------------------------------------------------------------------
# fabric-cold / spacedc-chaos / sweep-replay: campaigns
# ---------------------------------------------------------------------


def _fabric_grid(seed: int, scale: float) -> CampaignGrid:
    """The ``repro.cli campaign`` default grid, one seed, scaled window."""
    size = SIZES["fabric-cold"]
    return CampaignGrid(
        thresholds=((40.0,), (30.0, 50.0)),
        loads=(0.2, 0.4),
        fan_ins=(0, 8),
        scenarios=("buildup", "incast"),
        seeds=(seed,),
        duration=_scaled(size["duration"], scale),
        warmup=_scaled(size["warmup"], scale),
    )


def _campaign_output(result) -> Dict[str, Any]:
    """A campaign's JSON payload and rendered table rows, as the CLI
    would write and print them."""
    return {
        "json": json.dumps(result.to_dict(), sort_keys=True),
        "table": [list(row) for row in result.table_rows()],
    }


def _campaign_checks(output: Dict[str, Any]) -> List[Check]:
    cells = json.loads(output["campaign"]["json"])["cells"]
    censored = [
        c for c in cells if c["fct"]["n_completed"] > c["fct"]["n_started"]
    ]
    missing = [c for c in cells if c["missing_seeds"]]
    return [
        ("every cell landed (no missing seeds)", not missing, f"{len(missing)} missing"),
        ("flows_completed <= flows_started per cell", not censored, f"{len(censored)} bad"),
    ]


def fabric_cold(seed: int, scale: float = 1.0) -> Plan:
    """Cold 16-cell leaf-spine campaign into an empty cache."""
    grid = _fabric_grid(seed, scale)
    state: Dict[str, Path] = {}

    def setup(scratch: Path) -> None:
        state["scratch"] = scratch

    def campaign() -> Dict[str, Any]:
        # A new directory every pass: the cache must be empty each time.
        cache = ResultCache(tempfile.mkdtemp(prefix="cold-", dir=state["scratch"]))
        return _campaign_output(
            run_campaign(grid, SweepExecutor(jobs=1, cache=cache))
        )

    return Plan(
        name="fabric-cold",
        sizes={"grid": dataclasses.asdict(grid)},
        work_unit="pkts",
        units=[("campaign", campaign)],
        check=_campaign_checks, work=_packets,
        operations=grid.n_cases, setup=setup,
    )


def spacedc_chaos(seed: int, scale: float = 1.0) -> Plan:
    """The ``space-dc`` preset: jitter, a flap train, CUBIC, 200 ms RTT."""
    size = SIZES["spacedc-chaos"]
    grid = CampaignGrid(
        thresholds=((65.0,), (50.0, 80.0), (65.0,)),
        senders=("dctcp", "dctcp", "cubic"),
        loads=(0.1,),
        fan_ins=(2,),
        scenarios=("space-dc",),
        seeds=(seed,),
        host_bandwidth_bps=1e9,
        fabric_bandwidth_bps=4e9,
        per_hop_delay=25e-3,
        duration=_scaled(size["duration"], scale),
        warmup=_scaled(size["warmup"], scale),
        jitter_s=2e-3,
        flap_period=_scaled(size["flap_period"], scale),
        flap_down=_scaled(size["flap_down"], scale),
        flap_count=size["flap_count"],
    )

    def campaign() -> Dict[str, Any]:
        return _campaign_output(run_campaign(grid, SweepExecutor(jobs=1)))

    return Plan(
        name="spacedc-chaos",
        sizes={"grid": dataclasses.asdict(grid)},
        work_unit="pkts",
        units=[("campaign", campaign)],
        check=_campaign_checks, work=_packets,
        operations=grid.n_cases,
    )


def sweep_replay(seed: int, scale: float = 1.0) -> Plan:
    """Executor, cache and aggregation with the simulator idle.

    ``demo-cold``: sub-millisecond demo cases through the pool into an
    empty cache — dispatch, pickle, cache put, manifest append.
    ``warm-replay``: warm passes of the ``fabric-cold`` grid against the
    cache ``setup`` wrote — cache get, manifest load, expand, aggregate,
    render.
    """
    size = SIZES["sweep-replay"]
    n_demo = _count(size["demo_cases"], scale)
    n_warm = _count(size["warm_passes"], scale)
    # The demo cells are arithmetic on their index; the seed picks which
    # window of indices (hence which cache keys) this run uses.
    offset = random.Random(f"sweep-replay/{seed}").randrange(1000)
    demo = faults.demo_cases(offset + n_demo)[offset:]
    grid = _fabric_grid(seed, scale)
    state: Dict[str, Any] = {}

    def setup(scratch: Path) -> None:
        state["scratch"] = scratch
        state["warm"] = scratch / "warm"
        executor = SweepExecutor(jobs=1, cache=ResultCache(state["warm"]))
        state["reference"] = _campaign_output(run_campaign(grid, executor))

    def demo_cold() -> Dict[str, Any]:
        cache = ResultCache(tempfile.mkdtemp(prefix="demo-", dir=state["scratch"]))
        executor = SweepExecutor(
            jobs=size["jobs"], chunk_size=size["chunk_size"], cache=cache
        )
        results = executor.run(demo, stage="sweep-replay")
        return {
            "results": results,
            "executed": sum(s.executed for s in executor.report.stages),
        }

    def warm_replay() -> Dict[str, Any]:
        outputs, hits, executed = [], [], []
        for _ in range(n_warm):
            replay = SweepExecutor(jobs=1, cache=ResultCache(state["warm"]))
            outputs.append(_campaign_output(run_campaign(grid, replay)))
            hits.append(sum(s.cache_hits for s in replay.report.stages))
            executed.append(sum(s.executed for s in replay.report.stages))
        return {
            # Every pass renders the same bytes; keep one copy of each
            # distinct rendering so the digest still covers them all.
            "distinct": [outputs[0]] + [o for o in outputs[1:] if o != outputs[0]],
            "hits": hits,
            "executed": executed,
        }

    def check(output: Dict[str, Any]) -> List[Check]:
        cold, warm = output["demo-cold"], output["warm-replay"]
        inline = [execute_case(case) for case in demo]
        all_hits = all(h == grid.n_cases for h in warm["hits"])
        return [
            ("pooled demo results equal inline execution", cold["results"] == inline, ""),
            (
                "every demo case executed (cold cache)",
                cold["executed"] == n_demo,
                f"{cold['executed']} of {n_demo}",
            ),
            (
                "warm tables/JSON byte-equal to the cold campaign's",
                warm["distinct"] == [state["reference"]],
                f"{len(warm['distinct'])} distinct warm output(s)",
            ),
            (
                "every warm pass all hits / 0 executed",
                all_hits and not any(warm["executed"]),
                f"hits {sorted(set(warm['hits']))}, executed {sorted(set(warm['executed']))}",
            ),
        ]

    def work(output: Dict[str, Any], received: int) -> int:
        return n_demo + n_warm * grid.n_cases

    return Plan(
        name="sweep-replay",
        sizes={
            "demo_cases": n_demo, "demo_offset": offset, "warm_passes": n_warm,
            "jobs": size["jobs"], "chunk_size": size["chunk_size"],
            "grid": dataclasses.asdict(grid),
        },
        work_unit="cases",
        units=[("demo-cold", demo_cold), ("warm-replay", warm_replay)],
        check=check, work=work,
        operations=n_demo + n_warm, setup=setup,
    )


# ---------------------------------------------------------------------
# theory-fluid
# ---------------------------------------------------------------------


def theory_fluid(seed: int, scale: float = 1.0) -> Plan:
    """Describing-function analysis and the fluid DDE: no packet moves.

    Pure analysis has no randomness; the seed shifts the Figure 9 flow
    grid by 0-4 flows (same number of points on every seed).
    """
    size = SIZES["theory-fluid"]
    shift = random.Random(f"theory-fluid/{seed}").randrange(5)
    flow_counts = tuple(range(10 + shift, 101 + shift, size["fig09_step"]))
    fluid_cases = fluid_validation.cases(
        _scale(fluid_duration=_scaled(size["fluid_duration"], scale)),
        flow_counts=size["fluid_flows"],
    )

    def fig09() -> Dict[str, Any]:
        return dataclasses.asdict(fig09_critical_n.run(flow_counts=flow_counts))

    def fig04() -> List[Dict[str, Any]]:
        return [dataclasses.asdict(c) for c in fig04_criterion.run()]

    def design_grid() -> List[List[float]]:
        margins = sensitivity.run().margins
        return [[g, gap, margin] for (g, gap), margin in margins.items()]

    def check(output: Dict[str, Any]) -> List[Check]:
        result = output["fig09"]
        worse = [
            n
            for n, dc, dt in zip(
                result["flow_counts"], result["dc_margins"], result["dt_margins"]
            )
            if not dt > dc
        ]
        return [
            (
                "DT-DCTCP margin > DCTCP margin at every N",
                not worse,
                f"fails at N={worse}" if worse else f"{len(flow_counts)} points",
            )
        ]

    def work(output: Dict[str, Any], received: int) -> int:
        # Analysis points: every (mechanism, N) margin of Figure 9, the
        # Figure 4 gains, the sensitivity grid, two fluid trajectories
        # per fluid case.
        return (
            2 * len(flow_counts)
            + len(output["fig04"])
            + len(output["sensitivity"])
            + 2 * len(fluid_cases)
        )

    units = [("fig09", fig09), ("fig04", fig04), ("sensitivity", design_grid)]
    units += _case_units(fluid_cases, fluid_validation)
    return Plan(
        name="theory-fluid",
        sizes={
            "fig09_flow_counts": list(flow_counts),
            "fluid": [dict(c.params, label=c.label) for c in fluid_cases],
        },
        work_unit="points",
        units=units, check=check, work=work, operations=len(units),
    )


#: name -> (builder, why) in ledger order.
WORKLOADS: Dict[str, Tuple[Callable[..., Plan], str]] = {
    "dumbbell-steady": (
        dumbbell_steady,
        "saturated bottleneck, in-order ACK clocking: engine, link, queue+marker, TCP fast paths",
    ),
    "incast-burst": (
        incast_burst,
        "tail drops, full-window loss, RTOs, per-query flow churn: the recovery paths",
    ),
    "fabric-cold": (
        fabric_cold,
        "cold 16-cell leaf-spine campaign: 4 switch hops, ECMP memo, short-flow churn, cache writes",
    ),
    "spacedc-chaos": (
        spacedc_chaos,
        "chaos pins links to two-event, jitter defeats fused send, CUBIC, 200 ms RTT horizon",
    ),
    "sweep-replay": (
        sweep_replay,
        "executor dispatch, cache put beside get, manifest, aggregation; simulator idle",
    ),
    "theory-fluid": (
        theory_fluid,
        "describing-function analysis and fluid DDE only; control for every sim/exec change",
    ),
}


def build(name: str, seed: int, scale: float = 1.0) -> Plan:
    """The named workload's plan for ``seed``."""
    try:
        builder, _ = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {list(WORKLOADS)}"
        ) from None
    return builder(seed, scale)
