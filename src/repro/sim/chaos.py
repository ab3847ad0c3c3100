"""Deterministic, seeded fault injection for the simulated network.

A :class:`ChaosSchedule` is a declarative list of faults over *named*
links — outages, flap trains, seeded random loss, per-packet propagation
jitter, and ECN-mangling windows — plus one seed.  ``install(network)``
compiles the list into engine events and per-interface hooks:

    sched = ChaosSchedule(seed=7)
    sched.outage("leaf0", "spine0", t0=0.010, duration=0.005)
    sched.flap_train("leaf1", "spine0", t0=0.0, period=0.02,
                     down_time=0.004, count=5)
    sched.loss("h0-0", "leaf0", rate=0.01)
    sched.jitter("leaf0", "spine1", amplitude=2e-3)
    controller = sched.install(fabric.network)

Semantics
---------

* **Outage** — while a directed link is down, packets handed to it are
  dropped at admission and packets already on the wire are destroyed at
  their delivery instant (both counted on the hook).  If
  the sending node is a switch, the downed interface is withdrawn from
  every ECMP group of its FIB for the duration — flows re-resolve over
  the surviving members, or become unroutable when none remain — and
  the switch's memoized bound-``send`` cache is invalidated on
  the way down *and* on the way up (see
  :meth:`repro.sim.node.Switch.withdraw_route`).  Link-up restores the
  pristine FIB groups in their original member order, so ECMP
  re-resolution after recovery is deterministic.
* **Loss** — inside its ``[t0, t1)`` window each admitted packet is
  dropped with probability ``rate``, drawn from a splitmix64 stream
  derived from ``(schedule seed, interface name)``.  Draws are consumed
  only inside the window, in admission order, so traces are a pure
  function of (spec, seed).
* **Jitter** — inside its window each packet's propagation delay gains
  ``U[0, amplitude)`` extra seconds from its own derived stream; the
  delivery instant is clamped to be non-decreasing per interface (a
  FIFO wire with variable delay never reorders).
* **ECN window** — ``mode="clear"`` strips CE from delivered packets (a
  switch that silently lost its ECN marking — DCTCP senders go blind);
  ``mode="mark"`` sets CE on every ECT packet (pathological
  mis-marking).

Determinism contract
--------------------

Installation happens *before traffic* (enforced) and pins every
targeted interface to the two-event link model
(:meth:`repro.sim.link.Interface.pin_two_event`), so the busy-until
fast lane never pays a per-packet branch and an **empty schedule
installs nothing at all**: a zero-fault run is byte-identical to a
chaos-free run (the differential guarantee in
``tests/sim/test_chaos_differential.py``).  All randomness
flows from the schedule seed through :func:`derive_stream_seed` — this
module never touches :mod:`random` (rule DET002 enforces that the seed
provenance stays explicit).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.link import Interface
from repro.sim.node import Host, Node, Switch
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.topology import Network

__all__ = [
    "DIRECTIONS",
    "ECN_MODES",
    "Splitmix64",
    "derive_stream_seed",
    "ChaosSchedule",
    "ChaosController",
    "LinkChaos",
]

_MASK64 = (1 << 64) - 1

#: Which directed interfaces of the named ``a``/``b`` pair a fault hits.
DIRECTIONS = ("both", "a->b", "b->a")

#: ECN-window behaviours: strip CE marks vs mark everything ECT.
ECN_MODES = ("clear", "mark")


class Splitmix64:
    """The splitmix64 generator: 64-bit state, fixed constants.

    Chosen over ``random.Random`` for the fault layer because its output
    is a trivially portable pure function of the seed — the same stream
    on every platform and in every process, with nothing hidden in
    module-global state.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """The next 64-bit output word."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in ``[0, 1)`` with 53 random bits."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53


def derive_stream_seed(seed: int, *labels: object) -> int:
    """A substream seed: FNV-1a fold of ``labels`` onto ``seed``.

    Every RNG stream the fault layer owns is keyed by the schedule seed
    plus stable labels (fault kind, interface name), so streams are
    independent of each other and of the order faults were declared.
    """
    h = (seed ^ 0xCBF29CE484222325) & _MASK64
    for label in labels:
        for byte in str(label).encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class _Fault:
    """One declared fault (internal; built via the schedule methods)."""

    __slots__ = ("kind", "a", "b", "direction", "t0", "t1", "value", "mode")

    def __init__(
        self,
        kind: str,
        a: str,
        b: str,
        direction: str,
        t0: float,
        t1: float,
        value: float = 0.0,
        mode: str = "",
    ):
        if direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {direction!r}; choose from {DIRECTIONS}"
            )
        if not (0.0 <= t0 < t1):
            raise ValueError(
                f"fault window must satisfy 0 <= t0 < t1, got [{t0}, {t1})"
            )
        self.kind = kind
        self.a = a
        self.b = b
        self.direction = direction
        self.t0 = t0
        self.t1 = t1
        self.value = value
        self.mode = mode

    def to_spec(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {
            "kind": self.kind,
            "a": self.a,
            "b": self.b,
            "direction": self.direction,
            "t0": self.t0,
            "t1": self.t1,
        }
        if self.kind in ("loss", "jitter"):
            spec["value"] = self.value
        if self.kind == "ecn":
            spec["mode"] = self.mode
        return spec


class LinkChaos:
    """Per-interface fault state; installed as ``Interface.chaos``.

    The interface calls :meth:`admit` once per send attempt,
    :meth:`deliver_time_for` once per transmission completion, and
    :meth:`deliver` once per would-be delivery — see
    :meth:`repro.sim.link.Interface._send_two_event` and friends.
    """

    __slots__ = (
        "interface",
        "owner",
        "down_depth",
        "loss_windows",
        "loss_rng",
        "jitter_windows",
        "jitter_rng",
        "ecn_windows",
        "_last_deliver_at",
        "send_drops",
        "loss_drops",
        "wire_drops",
        "ecn_mangled",
    )

    def __init__(self, interface: Interface, owner: Node):
        self.interface = interface
        self.owner = owner
        #: Overlap-safe outage nesting: the link is down while > 0.
        self.down_depth = 0
        #: ``(t0, t1, rate)`` loss windows, declaration order; the first
        #: window containing ``now`` wins.
        self.loss_windows: List[Tuple[float, float, float]] = []
        self.loss_rng: Optional[Splitmix64] = None
        #: ``(t0, t1, amplitude)`` jitter windows, same convention.
        self.jitter_windows: List[Tuple[float, float, float]] = []
        self.jitter_rng: Optional[Splitmix64] = None
        #: ``(t0, t1, mode)`` ECN-mangling windows.
        self.ecn_windows: List[Tuple[float, float, str]] = []
        self._last_deliver_at = float("-inf")
        self.send_drops = 0
        self.loss_drops = 0
        self.wire_drops = 0
        self.ecn_mangled = 0

    @property
    def down(self) -> bool:
        """Whether the link is currently inside an outage."""
        return self.down_depth > 0

    @property
    def dropped(self) -> int:
        """Every packet this hook consumed, all causes."""
        return self.send_drops + self.loss_drops + self.wire_drops

    def admit(self, packet: Packet, now: float) -> bool:
        """Gate one send attempt; False consumes the packet."""
        if self.down_depth:
            self.send_drops += 1
            return False
        for t0, t1, rate in self.loss_windows:
            if t0 <= now < t1:
                if self.loss_rng.next_float() < rate:
                    self.loss_drops += 1
                    return False
                break
        return True

    def deliver_time_for(self, prop_delay: float, now: float) -> float:
        """Absolute delivery instant for a packet finishing transmission.

        Adds the jitter draw when a window is active and clamps against
        the previous delivery so the wire stays FIFO.
        """
        extra = 0.0
        for t0, t1, amplitude in self.jitter_windows:
            if t0 <= now < t1:
                extra = self.jitter_rng.next_float() * amplitude
                break
        at = now + prop_delay + extra
        if at < self._last_deliver_at:
            at = self._last_deliver_at
        self._last_deliver_at = at
        return at

    def deliver(self, packet: Packet, now: float) -> bool:
        """Gate one delivery; False means the wire ate the packet."""
        if self.down_depth:
            self.wire_drops += 1
            return False
        for t0, t1, mode in self.ecn_windows:
            if t0 <= now < t1:
                if mode == "clear":
                    if packet.ce:
                        packet.ce = False
                        self.ecn_mangled += 1
                elif packet.ecn_capable and not packet.ce:
                    packet.ce = True
                    self.ecn_mangled += 1
                break
        return True


class ChaosController:
    """The installed side of one schedule: hooks, FIB bookkeeping, stats."""

    def __init__(self, network: "Network", seed: int):
        self.network = network
        self.seed = seed
        #: Every installed hook, in deterministic (interface-name) order.
        self.hooks: List[LinkChaos] = []
        self._hooks_by_iface: Dict[int, LinkChaos] = {}
        #: Pristine FIB snapshot per outage-affected switch, taken at
        #: install time; link-state transitions rebuild the live FIB
        #: from it (pristine minus currently-down members), which makes
        #: overlapping outages on one switch commute.
        self._pristine_fib: Dict[int, Dict[int, Tuple[Interface, ...]]] = {}
        self._switches: Dict[int, Switch] = {}

    # -- hook management -------------------------------------------------

    def hook_for(self, interface: Interface) -> LinkChaos:
        """The hook on ``interface``, creating and installing on demand."""
        hook = self._hooks_by_iface.get(id(interface))
        if hook is None:
            owner = self._owner_of(interface)
            hook = LinkChaos(interface, owner)
            self._hooks_by_iface[id(interface)] = hook
            self.hooks.append(hook)
            interface.pin_two_event()
            interface.chaos = hook
        return hook

    def _owner_of(self, interface: Interface) -> Node:
        for node in self.network.nodes:
            if isinstance(node, Switch):
                if any(member is interface for member in node.interfaces):
                    return node
            elif isinstance(node, Host) and node.nic is interface:
                return node
        raise ValueError(
            f"interface {interface.name!r} belongs to no node of this network"
        )

    # -- link state ------------------------------------------------------

    def _transition(self, hooks: Tuple[LinkChaos, ...], delta: int) -> None:
        touched: List[Switch] = []
        for hook in hooks:
            hook.down_depth += delta
            owner = hook.owner
            if isinstance(owner, Switch) and owner not in touched:
                touched.append(owner)
        for switch in touched:
            self._rebuild_fib(switch)

    def _link_down(self, hooks: Tuple[LinkChaos, ...]) -> None:
        self._transition(hooks, +1)

    def _link_up(self, hooks: Tuple[LinkChaos, ...]) -> None:
        self._transition(hooks, -1)

    def _rebuild_fib(self, switch: Switch) -> None:
        """Re-derive the switch's FIB: pristine groups minus down links.

        Every ``set_routes``/``withdraw_route`` below clears the
        memoized route cache, so no bound ``egress.send`` for a downed
        interface can survive a transition — the guarantee memoized
        forwarding needs.  Surviving groups keep the pristine member
        order, so ECMP placement after full recovery is byte-identical
        to a network that never flapped.
        """
        pristine = self._pristine_fib[switch.node_id]
        down = [
            hook.interface
            for hook in self.hooks
            if hook.owner is switch and hook.down_depth > 0
        ]
        for dst, group in pristine.items():
            remaining = tuple(
                member
                for member in group
                if not any(member is iface for iface in down)
            )
            if remaining:
                switch.set_routes(dst, remaining)
            else:
                switch.withdraw_route(dst)

    # -- statistics ------------------------------------------------------

    @property
    def packets_dropped(self) -> int:
        """Packets the fault layer consumed, all hooks and causes."""
        return sum(hook.dropped for hook in self.hooks)

    def stats(self) -> Dict[str, int]:
        """Aggregate counters, one entry per drop/mangle cause."""
        return {
            "send_drops": sum(h.send_drops for h in self.hooks),
            "loss_drops": sum(h.loss_drops for h in self.hooks),
            "wire_drops": sum(h.wire_drops for h in self.hooks),
            "ecn_mangled": sum(h.ecn_mangled for h in self.hooks),
        }


class ChaosSchedule:
    """A declarative, seeded fault plan over named links.

    Builder methods validate and accumulate faults; nothing touches a
    network until :meth:`install`.  All builders return ``self`` so
    plans chain.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._faults: List[_Fault] = []

    @property
    def faults(self) -> Tuple[_Fault, ...]:
        return tuple(self._faults)

    def __len__(self) -> int:
        return len(self._faults)

    # -- builders --------------------------------------------------------

    def outage(
        self,
        a: str,
        b: str,
        t0: float,
        duration: float,
        direction: str = "both",
    ) -> "ChaosSchedule":
        """Take the ``a``–``b`` link down for ``duration`` from ``t0``."""
        if duration <= 0:
            raise ValueError(f"outage duration must be positive, got {duration}")
        self._faults.append(
            _Fault("outage", a, b, direction, t0, t0 + duration)
        )
        return self

    def flap_train(
        self,
        a: str,
        b: str,
        t0: float,
        period: float,
        down_time: float,
        count: int,
        direction: str = "both",
    ) -> "ChaosSchedule":
        """``count`` outages of ``down_time`` each, one per ``period``."""
        if count <= 0:
            raise ValueError(f"flap count must be positive, got {count}")
        if not 0 < down_time < period:
            raise ValueError(
                f"need 0 < down_time < period, got down_time={down_time}, "
                f"period={period}"
            )
        for i in range(count):
            self.outage(a, b, t0 + i * period, down_time, direction=direction)
        return self

    def loss(
        self,
        a: str,
        b: str,
        rate: float,
        t0: float = 0.0,
        t1: float = math.inf,
        direction: str = "both",
    ) -> "ChaosSchedule":
        """Drop each admitted packet with probability ``rate`` in the window."""
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"loss rate must lie in (0, 1], got {rate}")
        self._faults.append(_Fault("loss", a, b, direction, t0, t1, rate))
        return self

    def jitter(
        self,
        a: str,
        b: str,
        amplitude: float,
        t0: float = 0.0,
        t1: float = math.inf,
        direction: str = "both",
    ) -> "ChaosSchedule":
        """Add ``U[0, amplitude)`` propagation delay per packet in the window."""
        if amplitude <= 0:
            raise ValueError(f"jitter amplitude must be positive, got {amplitude}")
        self._faults.append(_Fault("jitter", a, b, direction, t0, t1, amplitude))
        return self

    def ecn_blackhole(
        self,
        a: str,
        b: str,
        t0: float,
        duration: float,
        direction: str = "both",
    ) -> "ChaosSchedule":
        """Strip CE marks from packets delivered inside the window."""
        return self._ecn_window(a, b, t0, duration, "clear", direction)

    def ecn_storm(
        self,
        a: str,
        b: str,
        t0: float,
        duration: float,
        direction: str = "both",
    ) -> "ChaosSchedule":
        """Mark every ECT packet delivered inside the window."""
        return self._ecn_window(a, b, t0, duration, "mark", direction)

    def _ecn_window(
        self,
        a: str,
        b: str,
        t0: float,
        duration: float,
        mode: str,
        direction: str,
    ) -> "ChaosSchedule":
        if duration <= 0:
            raise ValueError(f"ECN window duration must be positive, got {duration}")
        self._faults.append(
            _Fault("ecn", a, b, direction, t0, t0 + duration, mode=mode)
        )
        return self

    # -- serialisation ---------------------------------------------------

    def to_spec(self) -> Dict[str, Any]:
        """A JSON-serialisable description of this schedule."""
        return {
            "seed": self.seed,
            "faults": [fault.to_spec() for fault in self._faults],
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "ChaosSchedule":
        """Rebuild a schedule from :meth:`to_spec` output (e.g. JSON)."""
        schedule = cls(seed=int(spec["seed"]))
        for fault in spec.get("faults", ()):
            kind = fault["kind"]
            a, b = fault["a"], fault["b"]
            direction = fault.get("direction", "both")
            t0 = float(fault["t0"])
            t1 = float(fault["t1"])
            if kind == "outage":
                schedule.outage(a, b, t0, t1 - t0, direction=direction)
            elif kind == "loss":
                schedule.loss(
                    a, b, float(fault["value"]), t0, t1, direction=direction
                )
            elif kind == "jitter":
                schedule.jitter(
                    a, b, float(fault["value"]), t0, t1, direction=direction
                )
            elif kind == "ecn":
                schedule._ecn_window(
                    a, b, t0, t1 - t0, fault["mode"], direction
                )
            else:
                raise ValueError(f"unknown fault kind {kind!r}")
        return schedule

    # -- compilation -----------------------------------------------------

    def install(self, network: "Network") -> ChaosController:
        """Compile the plan onto ``network``: hooks, streams, events.

        Must run before traffic (``sim.now == 0`` and no events fired):
        targeted interfaces are pinned to the two-event link model at
        this moment, which is only trace-preserving while their
        transmitters have never run.  An empty schedule installs
        nothing — no hooks, no events, no RNG draws.
        """
        sim = network.sim
        if sim.now > 0.0 or sim.events_processed != 0:
            raise RuntimeError(
                "ChaosSchedule.install must run before the simulation "
                f"starts (now={sim.now}, events={sim.events_processed})"
            )
        controller = ChaosController(network, self.seed)
        names = {node.name: node for node in network.nodes}

        for fault in self._faults:
            hooks = tuple(
                controller.hook_for(iface)
                for iface in self._resolve(network, names, fault)
            )
            if fault.kind == "outage":
                for switch in {
                    hook.owner.node_id: hook.owner
                    for hook in hooks
                    if isinstance(hook.owner, Switch)
                }.values():
                    controller._pristine_fib.setdefault(
                        switch.node_id, dict(switch.fib)
                    )
                sim.schedule_at(fault.t0, controller._link_down, hooks)
                sim.schedule_at(fault.t1, controller._link_up, hooks)
            elif fault.kind == "loss":
                for hook in hooks:
                    if hook.loss_rng is None:
                        hook.loss_rng = Splitmix64(
                            derive_stream_seed(
                                self.seed, "loss", hook.interface.name
                            )
                        )
                    hook.loss_windows.append((fault.t0, fault.t1, fault.value))
            elif fault.kind == "jitter":
                for hook in hooks:
                    if hook.jitter_rng is None:
                        hook.jitter_rng = Splitmix64(
                            derive_stream_seed(
                                self.seed, "jitter", hook.interface.name
                            )
                        )
                    hook.jitter_windows.append(
                        (fault.t0, fault.t1, fault.value)
                    )
            else:  # ecn
                for hook in hooks:
                    hook.ecn_windows.append((fault.t0, fault.t1, fault.mode))
        return controller

    @staticmethod
    def _resolve(
        network: "Network", names: Dict[str, Node], fault: _Fault
    ) -> List[Interface]:
        """Every directed interface a fault targets (parallel links too)."""
        try:
            a = names[fault.a]
            b = names[fault.b]
        except KeyError as exc:
            known = ", ".join(sorted(names))
            raise ValueError(
                f"unknown node {exc.args[0]!r} in fault on "
                f"{fault.a!r}-{fault.b!r}; network nodes: {known}"
            ) from None
        interfaces: List[Interface] = []
        if fault.direction in ("both", "a->b"):
            interfaces.extend(network.interfaces_between(a.node_id, b.node_id))
        if fault.direction in ("both", "b->a"):
            interfaces.extend(network.interfaces_between(b.node_id, a.node_id))
        return interfaces
