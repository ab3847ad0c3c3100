"""Harness-owned tracing: every layer is measured from outside.

Nothing under ``src/`` knows about the ledger.  A traced pass replaces
each layer's public entry points — class attributes for methods, module
globals for functions — with timing wrappers *before any network is
built*, and :meth:`Hooks.remove` puts the originals back.

Two kinds of wrapper share one shadow stack (:class:`Tracer`):

* **folded** — per-packet boundaries (``Interface.send``,
  ``Switch.receive``, ``TcpSender.on_packet`` …).  Around 10^7 calls per
  pass, so no record is kept per call; each call adds to its layer's
  ``(calls, total_ns, child_ns)`` accumulator.
* **recorded** — case-level and coarser boundaries (a case, a topology
  build, ``Simulator.run``, an executor run, a cache get/put).  These
  also fold, and additionally keep one span record each: name, layer,
  start, end, parent span id, case label.

A layer's self time is ``total_ns - child_ns``: whenever a frame closes,
its duration is added to the frame below it as child time.  Summed over
every layer, self time therefore equals the duration of the root
frames — the identity :func:`Tracer.self_ns_total` exposes and the
harness checks against the independently measured wall time.

All times here are **host** nanoseconds (``perf_counter_ns``); nothing
in this file reads or reports simulated time.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "Census", "Hooks", "install_tracing", "install_work_count"]


class Tracer:
    """Shadow-stack span folding plus a list of coarse span records."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: layer -> [calls, total_ns, child_ns]
        self.layers: Dict[str, List[int]] = {}
        #: Coarse spans, in closing order.
        self.spans: List[Dict[str, Any]] = []
        #: One ``[child_ns]`` cell per open frame, innermost last.
        self._stack: List[List[int]] = []
        #: Ids of the open *recorded* spans, innermost last.
        self._open: List[int] = []
        self._next_id = 0
        #: Label of the case being run, stamped on spans opened inside it.
        self.case: Optional[str] = None

    def _acc(self, layer: str) -> List[int]:
        return self.layers.setdefault(layer, [0, 0, 0])

    def fold(self, layer: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call folds into ``layer``'s accumulator.

        The body repeats :meth:`span`'s bookkeeping instead of sharing it:
        this runs ten million times a pass, and a helper call per frame
        would be most of what it measures.
        """
        acc = self._acc(layer)
        stack = self._stack
        clock = self.clock

        def folded(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed

        folded.__wrapped__ = fn
        return folded

    @contextmanager
    def span(self, layer: str, name: str = "") -> Iterator[None]:
        """Fold into ``layer`` and keep an individual span record."""
        acc = self._acc(layer)
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        frame = [0]
        stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            elapsed = end - start
            stack.pop()
            self._open.pop()
            acc[0] += 1
            acc[1] += elapsed
            acc[2] += frame[0]
            if stack:
                stack[-1][0] += elapsed
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "layer": layer,
                    "name": name or layer,
                    "case": self.case,
                    "start_ns": start,
                    "end_ns": end,
                }
            )

    def record(self, layer: str, fn: Callable, name: str = "") -> Callable:
        """Wrap ``fn`` so each call is one recorded span of ``layer``."""
        label = name or getattr(fn, "__qualname__", layer)

        def recorded(*args, **kwargs):
            with self.span(layer, label):
                return fn(*args, **kwargs)

        recorded.__wrapped__ = fn
        return recorded

    # -- reading ---------------------------------------------------------

    def calls(self, layer: str) -> int:
        return self.layers.get(layer, (0, 0, 0))[0]

    def total_ns(self, layer: str) -> int:
        return self.layers.get(layer, (0, 0, 0))[1]

    def self_ns(self, layer: str) -> int:
        _, total, child = self.layers.get(layer, (0, 0, 0))
        return total - child

    def self_ns_total(self) -> int:
        """Self time summed over every layer == duration of root frames."""
        return sum(total - child for _, total, child in self.layers.values())


class Census:
    """Objects whose *public counters* the ledger reads after a case.

    The simulator already counts everything the ledger wants (events,
    deliveries, marks, drops, retransmits …) on the objects themselves;
    the harness only needs to still hold a reference when the case ends.
    ``__init__`` wrappers append here; :meth:`drain` sums the counters
    into ``totals`` and drops the references so a traced pass does not
    keep every network of a campaign alive.
    """

    def __init__(self) -> None:
        self.networks: List[Any] = []
        self.senders: List[Any] = []
        self.receivers: List[Any] = []
        self.controllers: List[Any] = []
        #: cache root -> ResultCache, for on-disk stats after the pass.
        self.caches: Dict[str, Any] = {}
        self.totals: Dict[str, int] = {}

    def add(self, key: str, amount: int) -> None:
        self.totals[key] = self.totals.get(key, 0) + int(amount)

    def drain(self) -> List[str]:
        """Fold held objects into ``totals``; returns ledger violations.

        The conservation identity checked per queue is the one the
        simulator maintains under every link model: admitted packets are
        either out again or still resident (``enqueued == dequeued +
        resident``; drops are never admitted, so ``offered == dequeued +
        dropped + resident`` is the same statement).
        """
        from repro.sim.node import Switch

        problems: List[str] = []
        for network in self.networks:
            self.add("sim.engine.events", network.sim.events_processed)
            for iface in network.all_interfaces():
                stats = iface.queue.stats
                resident = iface.queue.len_packets
                self.add("sim.link.pkts_delivered", iface.packets_delivered)
                self.add("sim.queues.enqueued", stats.enqueued)
                self.add("sim.queues.marked", stats.marked)
                self.add("sim.queues.dropped", stats.dropped)
                if stats.enqueued != stats.dequeued + resident:
                    problems.append(
                        f"{iface.name}: enqueued {stats.enqueued} != dequeued "
                        f"{stats.dequeued} + resident {resident}"
                    )
            for node in network.nodes:
                if isinstance(node, Switch):
                    self.add("sim.node.forwarded", node.packets_forwarded)
                    self.add("sim.node.unroutable", node.packets_unroutable)
        for sender in self.senders:
            self.add("sim.tcp.sender.pkts_sent", sender.packets_sent)
            self.add("sim.tcp.sender.retransmits", sender.retransmits)
            self.add("sim.tcp.sender.timeouts", sender.timeouts)
            self.add("sim.apps.flows_completed", bool(sender.completed))
        self.add("sim.apps.flows_started", len(self.senders))
        for receiver in self.receivers:
            self.add("sim.tcp.receiver.pkts_received", receiver.packets_received)
            self.add("sim.tcp.receiver.duplicates", receiver.duplicates_received)
            self.add("sim.tcp.receiver.acks_sent", receiver.acks_sent)
        for controller in self.controllers:
            self.add("sim.chaos.drops", controller.packets_dropped)
        for held in (
            self.networks, self.senders, self.receivers, self.controllers
        ):
            held.clear()
        return problems


class Hooks:
    """Every attribute replaced by the harness, so all can be put back."""

    def __init__(self) -> None:
        #: (owner object, attribute name, original value)
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace_method(self, cls: type, name: str, make: Callable) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, make(original))

    def replace_function(self, module_name: str, name: str, make: Callable) -> None:
        """Rebind a module-level function wherever ``repro`` imported it.

        ``from x import f`` copies the binding, so the defining module
        alone is not enough; every already-imported ``repro`` module
        whose global *is* the original gets the wrapper.  (A module
        first imported *after* this call would copy the wrapper and keep
        it; :func:`install_tracing` imports every module it targets up
        front so that cannot happen to a ledger workload.)
        """
        original = getattr(importlib.import_module(module_name), name)
        wrapper = make(original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            if module.__dict__.get(name) is original:
                self._saved.append((module, name, original))
                setattr(module, name, wrapper)

    def remove(self) -> None:
        """Restore every original, innermost replacement last."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _capturing_init(original: Callable, sink: List[Any]) -> Callable:
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sink.append(self)

    init.__wrapped__ = original
    return init


def install_work_count(census: Census) -> Hooks:
    """The only hook of an *untraced* pass: remember each TcpReceiver.

    ``work_per_s`` for the simulator workloads is data packets received,
    a counter that lives on receivers the experiment code never hands
    back.  One extra Python call per flow opened (not per packet); the
    references are held until the pass ends.
    """
    from repro.sim.tcp.receiver import TcpReceiver

    hooks = Hooks()
    hooks.replace_method(
        TcpReceiver, "__init__",
        lambda orig: _capturing_init(orig, census.receivers),
    )
    return hooks


#: (layer, module, class, method, recorded?) — class-level entry points.
_METHODS = (
    ("sim.engine", "repro.sim.engine", "Simulator", "run", True),
    ("sim.link", "repro.sim.link", "Interface", "send", False),
    ("sim.queues.enqueue", "repro.sim.queues", "FifoQueue", "enqueue", False),
    ("sim.queues.dequeue", "repro.sim.queues", "FifoQueue", "dequeue", False),
    ("sim.node.switch", "repro.sim.node", "Switch", "receive", False),
    ("sim.node.host", "repro.sim.node", "Host", "receive", False),
    ("sim.node.host", "repro.sim.node", "Host", "send", False),
    ("sim.tcp.sender", "repro.sim.tcp.sender", "TcpSender", "on_packet", False),
    ("sim.tcp.receiver", "repro.sim.tcp.receiver", "TcpReceiver", "on_packet", False),
    ("sim.trace", "repro.sim.trace", "QueueMonitor", "series", True),
    ("sim.trace", "repro.sim.trace", "AlphaMonitor", "series", True),
    ("sim.chaos", "repro.sim.chaos", "ChaosSchedule", "install", True),
    ("exec.executor", "repro.exec.executor", "SweepExecutor", "run", True),
    ("exec.cache.get", "repro.exec.cache", "ResultCache", "get", True),
    ("exec.cache.put", "repro.exec.cache", "ResultCache", "put", True),
    ("exec.manifest.record", "repro.exec.manifest", "StageManifest", "record", False),
    ("exec.manifest.load", "repro.exec.manifest", "StageManifest", "load", True),
    ("campaign.expand", "repro.campaign.grid", "CampaignGrid", "expand", True),
)

#: (layer, module, function, recorded?) — module-level entry points.
_FUNCTIONS = (
    ("sim.apps", "repro.sim.tcp.flow", "open_flow", False),
    ("sim.topology", "repro.sim.topology", "dumbbell", True),
    ("sim.topology", "repro.sim.topology", "paper_testbed", True),
    ("sim.topology", "repro.sim.topology", "leaf_spine", True),
    ("campaign.aggregate", "repro.campaign.aggregate", "aggregate_fcts", False),
    ("core.stability.margin", "repro.core.stability", "stability_margin", False),
    ("core.stability.calibrate", "repro.core.stability", "calibrate_gain_scale", False),
    ("core.nyquist", "repro.core.nyquist", "find_intersections", False),
)

#: Experiment modules whose ``run_case`` opens a *case* span.
_CASE_MODULES = (
    "repro.experiments.queue_sweep",
    "repro.experiments.fig14_incast",
    "repro.experiments.fluid_validation",
    "repro.campaign.cells",
    "repro.exec.faults",
)


def install_tracing(tracer: Tracer, census: Census, problems: List[str]) -> Hooks:
    """Wrap every layer's entry points; returns the handle that undoes it.

    ``problems`` collects conservation and ``audit_network`` violations
    found when a simulator case closes (one string each).
    """
    from repro.sim.invariants import audit_network

    for module_name in _CASE_MODULES:
        importlib.import_module(module_name)
    hooks = Hooks()

    def wrap(layer: str, recorded: bool) -> Callable:
        maker = tracer.record if recorded else tracer.fold
        return lambda original: maker(layer, original)

    def cls(module_name: str, name: str) -> type:
        return getattr(importlib.import_module(module_name), name)

    for layer, module_name, cls_name, method, recorded in _METHODS:
        hooks.replace_method(cls(module_name, cls_name), method, wrap(layer, recorded))
    for layer, module_name, name, recorded in _FUNCTIONS:
        hooks.replace_function(module_name, name, wrap(layer, recorded))

    # Counter capture: references only, no timing.
    for module_name, cls_name, sink in (
        ("repro.sim.topology", "Network", census.networks),
        ("repro.sim.tcp.sender", "TcpSender", census.senders),
        ("repro.sim.tcp.receiver", "TcpReceiver", census.receivers),
    ):
        hooks.replace_method(
            cls(module_name, cls_name), "__init__",
            lambda orig, sink=sink: _capturing_init(orig, sink),
        )

    # Outermost wrappers on already-wrapped entry points that also feed
    # the census (outside the timed frame): the chaos controller a
    # schedule compiles to, the samples a monitor held, the stage an
    # executor just reported, the cases a grid expanded to, the
    # integrator's step count.
    def then(observe: Callable[[Any, Any], None]) -> Callable:
        def make(traced: Callable) -> Callable:
            def method(self, *args, **kwargs):
                result = traced(self, *args, **kwargs)
                observe(self, result)
                return result

            method.__wrapped__ = traced
            return method

        return make

    def note_stage(executor: Any, _results: Any) -> None:
        stage = executor.report.stages[-1]
        for field in ("cases", "cache_hits", "executed", "retried", "failed"):
            census.add(f"exec.executor.{field}", getattr(stage, field))
        if executor.cache is not None:
            census.caches[str(executor.cache.root)] = executor.cache

    def note_samples(monitor: Any, _series: Any) -> None:
        census.add("sim.trace.monitor_samples", monitor.times.to_numpy().size)

    def count_steps(original: Callable) -> Callable:
        folded = tracer.fold("fluid.integrator", original)

        def simulate(*args, **kwargs):
            trace = folded(*args, **kwargs)
            census.add(
                "fluid.integrator.steps",
                (len(trace.time) - 1) * kwargs.get("record_every", 1),
            )
            return trace

        simulate.__wrapped__ = original
        return simulate

    hooks.replace_method(
        cls("repro.sim.chaos", "ChaosSchedule"), "install",
        then(lambda _schedule, controller: census.controllers.append(controller)),
    )
    hooks.replace_method(
        cls("repro.campaign.grid", "CampaignGrid"), "expand",
        then(lambda _grid, cases: census.add("campaign.cases_expanded", len(cases))),
    )
    hooks.replace_method(
        cls("repro.exec.executor", "SweepExecutor"), "run", then(note_stage)
    )
    for monitor in ("QueueMonitor", "AlphaMonitor"):
        hooks.replace_method(cls("repro.sim.trace", monitor), "series", then(note_samples))
    hooks.replace_function("repro.fluid.integrator", "simulate", count_steps)

    def case_span(original: Callable) -> Callable:
        def run_case(case):
            tracer.case = case.label
            try:
                with tracer.span("case", case.label):
                    result = original(case)
                networks = list(census.networks)
                if networks:
                    census.add("sim.cases", 1)
                    with tracer.span("sim.invariants", "audit_network"):
                        for network in networks:
                            problems.extend(
                                f"{case.label}: {v}"
                                for v in audit_network(network)
                            )
                problems.extend(f"{case.label}: {v}" for v in census.drain())
                return result
            finally:
                tracer.case = None

        run_case.__wrapped__ = original
        return run_case

    for module_name in _CASE_MODULES:
        hooks.replace_function(module_name, "run_case", case_span)
    return hooks
