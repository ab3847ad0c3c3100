"""One campaign cell: a leaf–spine FCT measurement as a pure function.

The measured workload is always the same: Poisson short flows (the
latency-sensitive traffic whose FCT the campaign studies) from one
source host on every non-client leaf to the client host ``h0-0``, at an
aggregate arrival rate offering ``load`` × the client's access rate.
The ``scenario`` axis selects the disturbance they contend with:

* ``buildup`` — ``fan_in`` long-lived bulk flows pinned on the client's
  downlink (the paper's queue-buildup microbenchmark, at fabric scale);
* ``incast`` — repeated synchronized ``fan_in``-wide bursts into the
  client (the partition/aggregate pattern).

``run_case`` builds its own fabric (ECMP seeded by the cell's ``seed``),
runs the window, and returns a JSON dict with the per-flow FCT sample
*and* its censoring bookkeeping — flows still in flight at window close
are counted, never silently dropped (see
:mod:`repro.sim.apps.short_flows`).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.campaign.grid import QUEUE_SAMPLE_INTERVAL
from repro.core.marking import scheme_for
from repro.exec.cases import Case
from repro.sim.apps.incast import FanInApp
from repro.sim.apps.short_flows import ShortFlowGenerator
from repro.sim.chaos import ChaosController, ChaosSchedule
from repro.sim.invariants import InvariantWatchdog
from repro.sim.node import Host, Switch
from repro.sim.protocols import PROTOCOLS
from repro.sim.tcp.flow import Flow, open_flow
from repro.sim.topology import LeafSpineNetwork, leaf_spine
from repro.sim.trace import QueueMonitor

__all__ = ["run_case", "run_cell"]

#: Minimum RTO for campaign workloads: the paper's 200 ms testbed RTO
#: would freeze any timed-out flow far past the tens-of-milliseconds
#: campaign window, so cells use a 10 ms floor (still ~100 RTTs).
CAMPAIGN_MIN_RTO = 0.01

#: Backoff cap for chaos cells: with half-second outages inside a
#: seconds-long window, the default 60 s cap would let one unlucky
#: doubling sleep through the rest of the run; 2 s still clears every
#: flap (0.5 s) with margin.
SPACE_DC_MAX_RTO = 2.0

#: Initial window of the latency-sensitive short flows.
SHORT_FLOW_CWND = 10.0


def _disturbance_hosts(fabric: LeafSpineNetwork) -> List[Host]:
    """Hosts carrying the disturbance, spread round-robin over the
    non-client leaves; short-flow source hosts (index 0) are avoided
    whenever the leaves have more than one host."""
    start = 1 if len(fabric.hosts[0]) > 1 else 0
    pool = [
        fabric.host(leaf_idx, host_idx)
        for host_idx in range(start, len(fabric.hosts[0]))
        for leaf_idx in range(1, len(fabric.leaves))
    ]
    return pool or [
        fabric.host(leaf_idx, 0)
        for leaf_idx in range(1, len(fabric.leaves))
    ]


def _fabric_totals(fabric: LeafSpineNetwork) -> Dict[str, int]:
    """Marks/drops summed over every switch egress queue in the fabric."""
    marked = dropped = 0
    for node in fabric.network.nodes:
        if isinstance(node, Switch):
            for interface in node.interfaces:
                marked += interface.queue.stats.marked
                dropped += interface.queue.stats.dropped
    return {"marked": marked, "dropped": dropped}


def _install_chaos(
    fabric: LeafSpineNetwork, params: Dict[str, Any], warmup: float
) -> ChaosController:
    """The ``space-dc`` fault plan: fabric-wide jitter + one flap train.

    Jitter perturbs every leaf↔spine link symmetrically; the flap train
    hits the last source leaf's uplink to spine 0 once warmup ends, so
    the measured window contains every outage.  Everything derives from
    the cell seed, so replicate cells replay byte-identically.
    """
    schedule = ChaosSchedule(seed=int(params["seed"]))
    jitter_s = float(params["jitter_s"])
    leaves = [leaf.name for leaf in fabric.leaves]
    spines = [spine.name for spine in fabric.spines]
    if jitter_s > 0:
        for leaf in leaves:
            for spine in spines:
                schedule.jitter(leaf, spine, amplitude=jitter_s)
    flap_count = int(params["flap_count"])
    if flap_count > 0:
        schedule.flap_train(
            leaves[-1],
            spines[0],
            t0=warmup,
            period=float(params["flap_period"]),
            down_time=float(params["flap_down"]),
            count=flap_count,
        )
    return schedule.install(fabric.network)


def run_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one campaign cell from its flat parameter dict."""
    scheme = scheme_for([float(k) for k in params["thresholds"]])
    scenario = params["scenario"]
    load = float(params["load"])
    fan_in = int(params["fan_in"])
    seed = int(params["seed"])
    flow_bytes = int(params["flow_bytes"])
    duration = float(params["duration"])
    warmup = float(params["warmup"])
    sender_cls = PROTOCOLS[params.get("sender", "dctcp")].sender_cls

    fabric = leaf_spine(
        n_leaves=int(params["n_leaves"]),
        n_spines=int(params["n_spines"]),
        hosts_per_leaf=int(params["hosts_per_leaf"]),
        marker_factory=scheme.marker,
        host_bandwidth_bps=float(params["host_bandwidth_bps"]),
        fabric_bandwidth_bps=float(params["fabric_bandwidth_bps"]),
        per_hop_delay=float(params["per_hop_delay"]),
        fabric_buffer_bytes=float(params["fabric_buffer_bytes"]),
        ecmp_seed=seed,
    )
    chaos = None
    if scenario == "space-dc":
        # Before traffic, so targeted interfaces pin to the two-event
        # link model while their transmitters have never run.
        chaos = _install_chaos(fabric, params, warmup)
    client = fabric.host(0, 0)
    sources = [
        fabric.host(leaf_idx, 0) for leaf_idx in range(1, len(fabric.leaves))
    ]

    # RTO floors/caps: the min must clear the fabric's base RTT (8 hops)
    # — moot on datacenter delays, binding on the space-dc regime — and
    # chaos cells cap backoff so no flow sleeps past the window.
    rtt = 8.0 * float(params["per_hop_delay"])
    rto_kwargs: Dict[str, Any] = {
        "min_rto": max(CAMPAIGN_MIN_RTO, 2.0 * rtt)
    }
    if chaos is not None:
        rto_kwargs["max_rto"] = SPACE_DC_MAX_RTO

    # Offered load: aggregate short-flow arrival rate × flow size equals
    # ``load`` × the client's access capacity, split evenly per source.
    total_rate = (
        load * float(params["host_bandwidth_bps"]) / (flow_bytes * 8.0)
    )
    generators = [
        ShortFlowGenerator(
            src,
            client,
            flow_bytes=flow_bytes,
            arrival_rate=total_rate / len(sources),
            sender_cls=sender_cls,
            initial_cwnd=SHORT_FLOW_CWND,
            seed=seed * 1009 + idx,
            **rto_kwargs,
        )
        for idx, src in enumerate(sources)
    ]
    for generator in generators:
        generator.start()

    bulk_flows: List[Flow] = []
    incast_app = None
    if fan_in > 0:
        workers = _disturbance_hosts(fabric)
        if scenario == "incast":
            incast_app = FanInApp(
                client,
                workers,
                n_flows=fan_in,
                bytes_per_flow=int(params["incast_bytes_per_flow"]),
                n_queries=1_000_000,  # window-limited, never count-limited
                sender_cls=sender_cls,
                initial_cwnd=2,
                start_jitter=10e-6,
                jitter_seed=seed,
                **rto_kwargs,
            )
            incast_app.start()
        else:  # buildup and space-dc share the bulk disturbance
            for i in range(fan_in):
                flow = open_flow(
                    workers[i % len(workers)],
                    client,
                    sender_cls=sender_cls,
                    total_packets=None,
                    **rto_kwargs,
                )
                flow.start()
                bulk_flows.append(flow)

    monitor = QueueMonitor(
        fabric.sim, fabric.downlink_queue(client), QUEUE_SAMPLE_INTERVAL
    )
    monitor.start()
    fabric.sim.run(until=duration)
    # Post-run audit only: a periodic watchdog would add events and
    # perturb the cached ``events_processed`` count for nothing.
    InvariantWatchdog(fabric.network).check()

    mean_queue, std_queue = monitor.steady_state(warmup)
    totals = _fabric_totals(fabric)
    started = sum(g.flows_started for g in generators)
    fcts: List[float] = []
    for generator in generators:
        fcts.extend(generator.completion_times)
    return {
        "fcts": fcts,
        "flows_started": started,
        "flows_completed": sum(g.flows_completed for g in generators),
        "flows_incomplete": sum(g.flows_incomplete for g in generators),
        "mean_queue_pkts": mean_queue,
        "std_queue_pkts": std_queue,
        "fabric_marks": totals["marked"],
        "fabric_drops": totals["dropped"],
        "bulk_timeouts": sum(f.sender.timeouts for f in bulk_flows),
        "incast_queries": (
            len(incast_app.results) if incast_app is not None else 0
        ),
        "incast_timeouts": (
            sum(r.timeouts for r in incast_app.results)
            if incast_app is not None
            else 0
        ),
        "chaos_drops": chaos.packets_dropped if chaos is not None else 0,
        "events_processed": fabric.sim.events_processed,
    }


def run_case(case: Case) -> Dict[str, Any]:
    """Executor entry point; pure function of ``case.params``."""
    return run_cell(case.params)
