"""Measuring one workload: fresh child interpreters, reduced in the parent.

``run_child`` is the child side: build the plan, set up, time every
unit of every pass, check the output.  ``spawn_child`` / ``summarise``
are the parent side: start children (each a fresh interpreter, so
``setup_s`` and ``peak_rss_mb`` belong to one workload alone) and reduce
their numbers.  Everything here is **host time**; simulated seconds
appear only inside workload sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
SRC = ROOT / "src"
#: Scratch caches live here (inside the checkout, git-ignored), one
#: ``tempfile`` directory per child, removed when the child is done —
#: never ``.repro-cache``.
SCRATCH = ROOT / ".ledger-scratch"

#: glibc malloc settings every child runs under: serve large blocks from
#: the heap and never trim it, so memory freed by one case is reused by
#: the next instead of being unmapped and faulted in again.  The
#: analysis code builds ~180 MB temporaries per call; on the reference VM
#: first-touch faults on fresh mappings stall for 0.5-3 s at random
#: (all ``sys`` time), which is the hypervisor's cost, not the
#: program's, and made ``theory-fluid`` unmeasurable.  Same on both sides
#: of every comparison; ``peak_rss_mb`` still sees every allocation.
MALLOC_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "MALLOC_TOP_PAD_": str(256 << 20),
}

#: Untraced children behind every reported number, and the fewest passes
#: each of them runs after its one set-up.
CHILDREN = 3
PASSES_PER_CHILD = 2

#: (name, unit, better, regression bound as a share of the parent's
#: value).  The three time-based bounds are three times the run-to-run
#: spread measured on the reference box (README, "Steadiness"), not the
#: 10 % one would like: minute-long slow phases of the shared host move
#: a whole run by up to 10 %.  Finer claims need interleaved pairs.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Trace:
    """Read-side view of one traced child's accumulators and counters."""

    def __init__(self, trace: Dict[str, Any], overhead_frac: float):
        self.layers = trace["layers"]
        self.counters = trace["counters"]
        self.overhead_frac = overhead_frac

    def n(self, key: str) -> int:
        return self.counters.get(key, 0)

    def calls(self, *layers: str) -> int:
        return sum(self.layers.get(layer, (0, 0, 0))[0] for layer in layers)

    def total(self, *layers: str) -> int:
        return sum(self.layers.get(layer, (0, 0, 0))[1] for layer in layers)

    def self_ns(self, *layers: str) -> int:
        return sum(
            self.layers.get(layer, (0, 0, 0))[1]
            - self.layers.get(layer, (0, 0, 0))[2]
            for layer in layers
        )


def _count(key: str) -> Callable[[_Trace], float]:
    return lambda t: t.n(key)


def _self_per_call(scale: float, *layers: str) -> Callable[[_Trace], float]:
    return lambda t: _ratio(t.self_ns(*layers), t.calls(*layers)) / scale


def _total_per_call(scale: float, *layers: str) -> Callable[[_Trace], float]:
    return lambda t: _ratio(t.total(*layers), t.calls(*layers)) / scale


_QUEUE = ("sim.queues.enqueue", "sim.queues.dequeue")

#: (name, unit, better, value from a traced pass).  Counts are exact and
#: repeat run to run; times are self times of the traced pass.
PER_LAYER: Tuple[Tuple[str, str, str, Callable[[_Trace], float]], ...] = (
    ("sim.engine.events", "count", "lower", _count("sim.engine.events")),
    ("sim.engine.events_per_pkt", "ev/pkt", "lower",
     lambda t: _ratio(t.n("sim.engine.events"), t.n("sim.tcp.receiver.pkts_received"))),
    ("sim.engine.self_ns_per_event", "ns", "lower",
     lambda t: _ratio(t.self_ns("sim.engine"), t.n("sim.engine.events"))),
    ("sim.link.pkts_delivered", "count", "lower", _count("sim.link.pkts_delivered")),
    ("sim.link.self_ns_per_pkt", "ns", "lower", _self_per_call(1, "sim.link")),
    ("sim.link.fused_frac", "frac", "higher",
     lambda t: 1.0 - _ratio(
         t.calls("sim.queues.enqueue"),
         t.n("sim.queues.enqueued") + t.n("sim.queues.dropped"),
     ) if t.n("sim.queues.enqueued") else 0.0),
    ("sim.queues.enqueued", "count", "lower", _count("sim.queues.enqueued")),
    ("sim.queues.marked", "count", "lower", _count("sim.queues.marked")),
    ("sim.queues.dropped", "count", "lower", _count("sim.queues.dropped")),
    ("sim.queues.mark_frac", "frac", "lower",
     lambda t: _ratio(t.n("sim.queues.marked"), t.n("sim.queues.enqueued"))),
    ("sim.queues.drop_frac", "frac", "lower",
     lambda t: _ratio(
         t.n("sim.queues.dropped"),
         t.n("sim.queues.enqueued") + t.n("sim.queues.dropped"),
     )),
    ("sim.queues.self_ns_per_pkt", "ns", "lower",
     lambda t: _ratio(t.self_ns(*_QUEUE), t.calls("sim.queues.enqueue"))),
    ("sim.node.forwarded", "count", "lower", _count("sim.node.forwarded")),
    ("sim.node.unroutable", "count", "lower", _count("sim.node.unroutable")),
    ("sim.node.switch_self_ns_per_pkt", "ns", "lower", _self_per_call(1, "sim.node.switch")),
    ("sim.node.host_self_ns_per_pkt", "ns", "lower", _self_per_call(1, "sim.node.host")),
    ("sim.tcp.sender.pkts_sent", "count", "lower", _count("sim.tcp.sender.pkts_sent")),
    ("sim.tcp.sender.retransmits", "count", "lower", _count("sim.tcp.sender.retransmits")),
    ("sim.tcp.sender.timeouts", "count", "lower", _count("sim.tcp.sender.timeouts")),
    ("sim.tcp.sender.retransmit_frac", "frac", "lower",
     lambda t: _ratio(t.n("sim.tcp.sender.retransmits"), t.n("sim.tcp.sender.pkts_sent"))),
    ("sim.tcp.sender.self_ns_per_ack", "ns", "lower", _self_per_call(1, "sim.tcp.sender")),
    ("sim.tcp.receiver.pkts_received", "count", "higher", _count("sim.tcp.receiver.pkts_received")),
    ("sim.tcp.receiver.duplicates", "count", "lower", _count("sim.tcp.receiver.duplicates")),
    ("sim.tcp.receiver.acks_sent", "count", "lower", _count("sim.tcp.receiver.acks_sent")),
    ("sim.tcp.receiver.self_ns_per_pkt", "ns", "lower", _self_per_call(1, "sim.tcp.receiver")),
    ("sim.apps.flows_started", "count", "higher", _count("sim.apps.flows_started")),
    ("sim.apps.flows_completed", "count", "higher", _count("sim.apps.flows_completed")),
    ("sim.apps.flow_open_us", "us", "lower", _self_per_call(1e3, "sim.apps")),
    ("sim.topology.build_ms_per_case", "ms", "lower", _self_per_call(1e6, "sim.topology")),
    ("sim.trace.monitor_samples", "count", "lower", _count("sim.trace.monitor_samples")),
    ("sim.trace.series_ms_per_case", "ms", "lower",
     lambda t: _ratio(t.self_ns("sim.trace"), t.n("sim.cases")) / 1e6),
    ("sim.chaos.drops", "count", "lower", _count("sim.chaos.drops")),
    ("sim.chaos.install_ms_per_case", "ms", "lower", _self_per_call(1e6, "sim.chaos")),
    ("sim.invariants.audit_ms_per_case", "ms", "lower", _self_per_call(1e6, "sim.invariants")),
    ("exec.executor.cases", "count", "higher", _count("exec.executor.cases")),
    ("exec.executor.cache_hits", "count", "higher", _count("exec.executor.cache_hits")),
    ("exec.executor.executed", "count", "lower", _count("exec.executor.executed")),
    ("exec.executor.retried", "count", "lower", _count("exec.executor.retried")),
    ("exec.executor.failed", "count", "lower", _count("exec.executor.failed")),
    ("exec.executor.dispatch_us_per_case", "us", "lower",
     lambda t: _ratio(t.self_ns("exec.executor"), t.n("exec.executor.cases")) / 1e3),
    ("exec.cache.put_us_per_case", "us", "lower", _total_per_call(1e3, "exec.cache.put")),
    ("exec.cache.get_us_per_case", "us", "lower", _total_per_call(1e3, "exec.cache.get")),
    ("exec.cache.entries", "count", "lower", _count("exec.cache.entries")),
    ("exec.cache.bytes_per_entry", "B", "lower",
     lambda t: _ratio(t.n("exec.cache.bytes"), t.n("exec.cache.entries"))),
    ("exec.manifest.record_us_per_case", "us", "lower", _self_per_call(1e3, "exec.manifest.record")),
    ("exec.manifest.load_ms_per_stage", "ms", "lower", _self_per_call(1e6, "exec.manifest.load")),
    ("campaign.expand_us_per_case", "us", "lower",
     lambda t: _ratio(t.self_ns("campaign.expand"), t.n("campaign.cases_expanded")) / 1e3),
    ("campaign.aggregate_us_per_call", "us", "lower", _self_per_call(1e3, "campaign.aggregate")),
    ("core.stability.margin_ms_per_point", "ms", "lower", _total_per_call(1e6, "core.stability.margin")),
    ("core.stability.calibrate_ms", "ms", "lower", _total_per_call(1e6, "core.stability.calibrate")),
    ("core.nyquist.intersections_ms_per_call", "ms", "lower", _total_per_call(1e6, "core.nyquist")),
    ("fluid.integrator.steps", "count", "lower", _count("fluid.integrator.steps")),
    ("fluid.integrator.us_per_step", "us", "lower",
     lambda t: _ratio(t.self_ns("fluid.integrator"), t.n("fluid.integrator.steps")) / 1e3),
    ("trace.overhead_frac", "frac", "lower", lambda t: t.overhead_frac),
)


#: Written down before measuring: the workloads on which a change to a
#: layer should move ``wall_s`` (and ``cpu_s`` / ``work_per_s`` with it).
#: On every other workload the prediction for that change is *no move*.
LAYER_MAP: Dict[str, List[str]] = {
    "sim.engine": ["dumbbell-steady", "incast-burst", "fabric-cold", "spacedc-chaos"],
    "sim.link": ["dumbbell-steady", "fabric-cold", "spacedc-chaos"],
    "sim.queues": ["dumbbell-steady", "incast-burst", "spacedc-chaos"],
    "sim.node": ["fabric-cold"],
    "sim.tcp.sender": ["dumbbell-steady", "incast-burst"],
    "sim.tcp.receiver": ["dumbbell-steady", "incast-burst"],
    "sim.apps": ["fabric-cold", "incast-burst"],
    "sim.topology": ["fabric-cold"],
    "sim.trace": ["dumbbell-steady", "spacedc-chaos"],
    "sim.chaos": ["spacedc-chaos"],
    "sim.invariants": [],
    "exec.executor": ["sweep-replay"],
    "exec.cache": ["sweep-replay", "fabric-cold"],
    "exec.manifest": ["sweep-replay"],
    "campaign": ["sweep-replay"],
    "core.stability": ["theory-fluid"],
    "core.nyquist": ["theory-fluid"],
    "fluid.integrator": ["theory-fluid"],
}


# ---------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------


def digest_of(output: Any) -> str:
    """sha256 of the canonical JSON of every case result and table."""
    canonical = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _cpu_seconds() -> float:
    """User+sys CPU of this process and of every child it has reaped
    (pool workers are reaped when the executor shuts its pool down)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped worker."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def run_child(
    workload: str,
    seed: int,
    scale: float = 1.0,
    traced: bool = False,
    passes: int = 1,
    seconds: float = 0.0,
    spawned_at: Optional[float] = None,
    scratch_root: Path = SCRATCH,
) -> Dict[str, Any]:
    """Set up once, then run the workload in *this* process until both
    ``passes`` passes and ``seconds`` of timed section are behind it;
    the child's whole job.

    ``spawned_at`` is the parent's ``time.monotonic()`` just before it
    started this interpreter (the clock is system-wide on Linux), so
    ``setup_s`` covers interpreter start, ``import repro``, input
    generation and scratch-cache preparation.  Each unit of each pass is
    timed on its own (``unit_wall_s[name]`` has one entry per pass).
    """
    from ledger import trace as tr
    from ledger import workloads

    if spawned_at is None:
        spawned_at = time.monotonic()
    plan = workloads.build(workload, seed, scale)
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root))
    census = tr.Census()
    tracer = tr.Tracer() if traced else None
    problems: List[str] = []
    unit_wall: Dict[str, List[float]] = {name: [] for name, _ in plan.units}
    unit_cpu: Dict[str, List[float]] = {name: [] for name, _ in plan.units}
    first_output: Dict[str, Any] = {}
    digests: List[str] = []
    try:
        plan.setup(scratch)
        hooks = (
            tr.install_tracing(tracer, census, problems)
            if tracer is not None
            else tr.install_work_count(census)
        )
        try:
            start = time.monotonic()
            while len(digests) < passes or time.monotonic() - start < seconds:
                output: Dict[str, Any] = {}
                with (
                    tracer.span("ledger.workload", workload)
                    if tracer is not None
                    else contextlib.nullcontext()
                ):
                    for name, unit in plan.units:
                        cpu0, t0 = _cpu_seconds(), time.perf_counter()
                        output[name] = unit()
                        unit_wall[name].append(time.perf_counter() - t0)
                        unit_cpu[name].append(_cpu_seconds() - cpu0)
                # Later passes are kept as digests only: holding every
                # pass's results would show up in peak_rss_mb.
                digests.append(digest_of(output))
                first_output = first_output or output
        finally:
            hooks.remove()
        problems.extend(census.drain())
        for cache in census.caches.values():
            stats = cache.stats()
            census.add("exec.cache.entries", stats["entries"])
            census.add("exec.cache.bytes", stats["bytes"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = len(digests)
    checks = [list(check) for check in plan.check(first_output)]
    if passes > 1:
        checks.append(
            ["result_digest identical on every pass of this child",
             len(set(digests)) == 1, f"{len(set(digests))} distinct"]
        )
    received = census.totals.get("sim.tcp.receiver.pkts_received", 0)
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "passes": passes,
        "sizes": plan.sizes,
        "setup_s": start - spawned_at,
        "unit_wall_s": unit_wall,
        "unit_cpu_s": unit_cpu,
        "peak_rss_mb": _peak_rss_mb(),
        # Counters accumulate over the passes; every pass does the same.
        "work": plan.work(first_output, received // passes),
        "work_unit": plan.work_unit,
        "operations": plan.operations * passes,
        "result_digest": digests[0],
    }
    if tracer is not None:
        root_ns = tracer.total_ns("ledger.workload")
        lost = abs(tracer.self_ns_total() - root_ns) / root_ns
        checks.append(
            ["per-layer self times sum to the traced root span within 1%",
             lost < 0.01, f"off by {lost:.2e}"]
        )
        checks.append(
            ["conservation + audit_network clean on every simulator case",
             not problems, "; ".join(problems[:3])]
        )
        result["trace"] = {
            "layers": tracer.layers,
            "counters": census.totals,
            "spans": tracer.spans,
        }
    result["checks"] = checks
    return result


# ---------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------


def spawn_child(
    workload: str,
    seed: int,
    scale: float = 1.0,
    traced: bool = False,
    passes: int = 1,
    seconds: float = 0.0,
) -> Dict[str, Any]:
    """Run one child in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(MALLOC_ENV)
    request = {
        "workload": workload, "seed": seed, "scale": scale, "traced": traced,
        "passes": passes, "seconds": seconds, "spawned_at": time.monotonic(),
    }
    proc = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "_child", json.dumps(request)],
        env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} (seed {seed}) child exited with code {proc.returncode}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _best_sum(children: Sequence[Dict[str, Any]], key: str) -> float:
    """Best-of-N per unit over every pass of every child, summed.

    On the shared vCPUs this runs on, interference comes in bursts of a
    second or so and only ever *adds* time: it spoils single cases, in
    every repeat a different one.  The fastest observation of each unit
    is the one the bursts missed; the median of whole passes is not —
    it moves by several percent between two sets of runs of one commit.
    """
    return sum(
        min(t for child in children for t in child[key][name])
        for name in children[0][key]
    )


def summarise(children: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric over the untraced ``children``.

    ``value`` is what is reported and gated: best-of-N per unit, summed,
    for the two times (and the rate built on them); the median over
    children for memory and set-up.  ``runs`` holds the same statistic
    taken over each child alone, and ``median``/``min``/``max``/``n``
    describe those runs, so the spread is on record next to the value
    (and ``compare`` can tell an unresolved difference from a real one).
    """
    work = children[0]["work"]
    runs = {
        "wall_s": [_best_sum([child], "unit_wall_s") for child in children],
        "cpu_s": [_best_sum([child], "unit_cpu_s") for child in children],
        "peak_rss_mb": [child["peak_rss_mb"] for child in children],
        "setup_s": [child["setup_s"] for child in children],
    }
    runs["work_per_s"] = [work / wall for wall in runs["wall_s"]]
    value = {
        "wall_s": _best_sum(children, "unit_wall_s"),
        "cpu_s": _best_sum(children, "unit_cpu_s"),
        "peak_rss_mb": statistics.median(runs["peak_rss_mb"]),
        "setup_s": statistics.median(runs["setup_s"]),
    }
    value["work_per_s"] = work / value["wall_s"]
    return {
        name: {
            "unit": unit,
            "value": value[name],
            "median": statistics.median(runs[name]),
            "min": min(runs[name]),
            "max": max(runs[name]),
            "n": len(runs[name]),
            "runs": runs[name],
        }
        for name, unit, _, _ in END_TO_END
    }


def layer_metrics(
    traced: Dict[str, Any], untraced_wall_s: float
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of one traced (single-pass) child."""
    traced_wall_s = sum(times[0] for times in traced["unit_wall_s"].values())
    view = _Trace(traced["trace"], traced_wall_s / untraced_wall_s - 1.0)
    return {
        name: {"value": value(view), "unit": unit}
        for name, unit, _, value in PER_LAYER
    }


def tally(
    children: Sequence[Dict[str, Any]]
) -> Tuple[int, int, List[List[Any]]]:
    """(attempted, failed, checks) over the children of one workload.

    An operation is one case of the timed section or one output check;
    a case that raises aborts its child (and the run), so failures
    counted here are failed checks — plus the cross-child check that
    every child, traced or not, produced the same ``result_digest``.
    """
    digests = sorted({child["result_digest"] for child in children})
    checks = [
        ["result_digest identical across all children",
         len(digests) == 1, f"{len(digests)} distinct"]
    ]
    for child in children:
        checks.extend(child["checks"])
    attempted = sum(child["operations"] for child in children) + len(checks)
    failed = sum(1 for _, ok, _ in checks if not ok)
    return attempted, failed, checks


# ---------------------------------------------------------------------
# Stamps
# ---------------------------------------------------------------------


def stamp(seed: int) -> Dict[str, Any]:
    """Where, on what, and under which kernels a result was measured.

    Kernel selections are read through the ``repro.sim.kernels``
    registry and *recorded, never refused*: the same ledger can be run
    under an oracle kernel and ``compare`` will flag the difference.
    """
    from ledger import workloads
    from repro.sim import kernels

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "sizes": workloads.SIZES,
        "kernels": {
            switch.env: kernels.env_default(switch.env)
            for switch in kernels.kernel_switches()
        },
        "repro_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
    }
