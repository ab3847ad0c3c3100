"""Topology construction: the generic builder plus the paper's two setups.

:class:`Network` owns the simulator, the nodes, and every interface, and
offers ``connect`` to wire two nodes with a full-duplex link (two
independent :class:`~repro.sim.link.Interface` objects, each with its own
queue discipline).

Builders:

* :func:`dumbbell` — N sender hosts, one switch, one receiver host: the
  Section VI-A simulation scenario ("N servers send messages to one
  client"), with the marking queue on the switch's port toward the
  receiver.
* :func:`paper_testbed` — Figure 13: Switch 1 with the aggregator host
  and three leaf switches, each leaf with three worker hosts.  1 Gbps
  everywhere, 128 KB marking buffers on Switch 1, 512 KB DropTail on the
  leaves, ~100 us propagation RTT between hosts on the same leaf.
* :func:`leaf_spine` — a parametric N-leaves × M-spines Clos fabric
  with per-link rate overrides and seeded ECMP flow hashing across the
  spines: the multi-bottleneck setting of the campaign driver
  (:mod:`repro.campaign`).

Two nodes may be wired with *parallel* links: every ``connect`` call
appends to a per-pair link list (``interfaces_between``), and routing
spreads flows over parallel members exactly like over distinct
equal-cost neighbours.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.marking import Marker
from repro.sim.engine import Simulator
from repro.sim.link import Interface
from repro.sim.node import Host, Node, Switch, reset_node_ids
from repro.sim.queues import FifoQueue
from repro.sim.routing import populate_routes
from repro.sim.tcp.flow import reset_flow_ids

__all__ = [
    "Network",
    "DumbbellNetwork",
    "TestbedNetwork",
    "LeafSpineNetwork",
    "dumbbell",
    "paper_testbed",
    "leaf_spine",
]

#: A factory returning a fresh marker for one queue (markers are stateful).
MarkerFactory = Callable[[], Marker]


class Network:
    """A simulator plus its nodes and links."""

    def __init__(self, sim: Optional[Simulator] = None):
        self.sim = sim if sim is not None else Simulator()
        # Fresh flow-id and node-id epochs per network: a scenario's
        # ECMP flow placement, which hashes flow ids and node ids,
        # depends only on the scenario, never on earlier runs in this
        # process, so in-process replays reproduce fresh-process logs
        # exactly.
        reset_flow_ids()
        reset_node_ids()
        self.nodes: List[Node] = []
        #: (a_id, b_id) pairs, one per full-duplex link (both orders
        #: kept); parallel links contribute one entry per link.
        self.adjacency: List[Tuple[int, int]] = []
        #: Directed pair -> every interface from a toward b, in connect
        #: order.  Parallel links are first-class: each ``connect`` call
        #: appends, nothing is ever overwritten.
        self._interfaces: Dict[Tuple[int, int], List[Interface]] = {}

    def add_host(self, name: str = "") -> Host:
        host = Host(self.sim, name)
        self.nodes.append(host)
        return host

    def add_switch(self, name: str = "") -> Switch:
        switch = Switch(self.sim, name)
        self.nodes.append(switch)
        return switch

    def connect(
        self,
        a: Node,
        b: Node,
        bandwidth_bps: float,
        prop_delay: float,
        queue_a_to_b: FifoQueue,
        queue_b_to_a: FifoQueue,
    ) -> Tuple[Interface, Interface]:
        """Wire ``a`` and ``b`` with a full-duplex link.

        Each direction gets its own queue discipline — the paper's
        marking applies only on the congested direction (toward the
        client/aggregator), so callers typically pass a marking queue one
        way and a large DropTail queue the other.

        Calling ``connect`` again for the same pair adds a *parallel*
        link (interface names gain a ``#<k>`` suffix); all parallel
        members are kept in connect order and routing load-balances
        flows across them like any other equal-cost set.
        """
        existing = len(self._interfaces.get((a.node_id, b.node_id), ()))
        suffix = f"#{existing}" if existing else ""
        ab = Interface(
            self.sim, bandwidth_bps, prop_delay, queue_a_to_b,
            name=f"{a.name}->{b.name}{suffix}",
        )
        ba = Interface(
            self.sim, bandwidth_bps, prop_delay, queue_b_to_a,
            name=f"{b.name}->{a.name}{suffix}",
        )
        ab.connect(b)
        ba.connect(a)
        self._attach(a, ab)
        self._attach(b, ba)
        self._interfaces.setdefault((a.node_id, b.node_id), []).append(ab)
        self._interfaces.setdefault((b.node_id, a.node_id), []).append(ba)
        self.adjacency.append((a.node_id, b.node_id))
        self.adjacency.append((b.node_id, a.node_id))
        return ab, ba

    @staticmethod
    def _attach(node: Node, interface: Interface) -> None:
        if isinstance(node, Host):
            node.attach_nic(interface)
        elif isinstance(node, Switch):
            node.add_interface(interface)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot attach interface to {node!r}")

    def interface_between(self, a_id: int, b_id: int) -> Interface:
        """The sending interface from node ``a_id`` toward neighbour ``b_id``.

        With parallel links, the *first*-connected one; use
        :meth:`interfaces_between` for the whole link list.
        """
        return self.interfaces_between(a_id, b_id)[0]

    def interfaces_between(self, a_id: int, b_id: int) -> Tuple[Interface, ...]:
        """Every sending interface from ``a_id`` toward ``b_id``, in
        connect order (length > 1 iff the pair has parallel links)."""
        try:
            return tuple(self._interfaces[(a_id, b_id)])
        except KeyError:
            raise KeyError(f"no link between nodes {a_id} and {b_id}") from None

    def all_interfaces(self) -> Tuple[Interface, ...]:
        """Every sending interface of the network, in connect order.

        The invariant auditor (:mod:`repro.sim.invariants`) walks this to
        balance the packet-conservation ledger; fault installation
        (:mod:`repro.sim.chaos`) never needs it because faults name
        links, not the whole fabric.
        """
        return tuple(
            iface for group in self._interfaces.values() for iface in group
        )

    def finalize_routes(self, ecmp_seed: int = 0) -> None:
        """Install static shortest-path routes on all switches.

        Where several equal-cost next hops (or parallel links) exist,
        every switch receives the full set and spreads flows across it
        with a hash salted by ``ecmp_seed``.
        """
        populate_routes(self, ecmp_seed=ecmp_seed)


@dataclasses.dataclass
class DumbbellNetwork:
    """The Section VI-A simulation scenario, ready to attach flows to."""

    network: Network
    senders: List[Host]
    receiver: Host
    switch: Switch
    #: The marking queue all flows share (switch port toward the receiver).
    bottleneck_queue: FifoQueue

    @property
    def sim(self) -> Simulator:
        return self.network.sim


def dumbbell(
    n_senders: int,
    marker_factory: MarkerFactory,
    bandwidth_bps: float = 10e9,
    rtt: float = 100e-6,
    bottleneck_buffer_bytes: float = 4.0 * 1024 * 1024,
    edge_buffer_bytes: float = 16.0 * 1024 * 1024,
) -> DumbbellNetwork:
    """N senders -> switch -> one receiver, marking on the shared port.

    The propagation RTT budget is split evenly over the four directed
    hops (sender->switch, switch->receiver and the ACK path back), so
    the no-load RTT equals ``rtt``.  Edge and bottleneck links run at the
    same rate, which puts all contention on the switch's egress port —
    the paper's single-bottleneck assumption.

    The default bottleneck buffer is deliberately deep (ECN, not loss,
    should govern steady-state behaviour in Figures 10-12); the incast
    experiments use :func:`paper_testbed` with its shallow 128 KB port.
    """
    if n_senders <= 0:
        raise ValueError(f"n_senders must be positive, got {n_senders}")
    net = Network()
    switch = net.add_switch("switch")
    receiver = net.add_host("client")
    per_hop = rtt / 4.0

    senders = []
    for i in range(n_senders):
        sender = net.add_host(f"server{i}")
        net.connect(
            sender,
            switch,
            bandwidth_bps,
            per_hop,
            queue_a_to_b=FifoQueue(edge_buffer_bytes, name=f"{sender.name}-up"),
            queue_b_to_a=FifoQueue(edge_buffer_bytes, name=f"{sender.name}-down"),
        )
        senders.append(sender)

    bottleneck_queue = FifoQueue(
        bottleneck_buffer_bytes, marker=marker_factory(), name="bottleneck"
    )
    net.connect(
        switch,
        receiver,
        bandwidth_bps,
        per_hop,
        queue_a_to_b=bottleneck_queue,
        queue_b_to_a=FifoQueue(edge_buffer_bytes, name="client-up"),
    )
    net.finalize_routes()
    return DumbbellNetwork(
        network=net,
        senders=senders,
        receiver=receiver,
        switch=switch,
        bottleneck_queue=bottleneck_queue,
    )


@dataclasses.dataclass
class TestbedNetwork:
    """Figure 13's topology, ready for incast / partition-aggregate runs."""

    network: Network
    aggregator: Host
    workers: List[Host]
    core_switch: Switch
    leaf_switches: List[Switch]
    #: Switch 1's marking port toward the aggregator — the bottleneck.
    bottleneck_queue: FifoQueue

    @property
    def sim(self) -> Simulator:
        return self.network.sim


def paper_testbed(
    marker_factory: MarkerFactory,
    n_leaves: int = 3,
    hosts_per_leaf: int = 3,
    bandwidth_bps: float = 1e9,
    bottleneck_buffer_bytes: float = 128.0 * 1024,
    leaf_buffer_bytes: float = 512.0 * 1024,
    per_hop_delay: float = 25e-6,
) -> TestbedNetwork:
    """Figure 13: core switch + aggregator, three leaves of three hosts.

    Only the core switch's port toward the aggregator runs the marking
    mechanism and the shallow 128 KB buffer; everything else is DropTail
    with 512 KB, exactly as Section VI-B describes.  The default per-hop
    propagation delay makes the *propagation* RTT between two hosts on
    the same leaf (4 hops) the paper's ~100 us.
    """
    if n_leaves <= 0 or hosts_per_leaf <= 0:
        raise ValueError("testbed needs at least one leaf and one host per leaf")
    net = Network()
    core = net.add_switch("switch1")
    aggregator = net.add_host("aggregator")

    bottleneck_queue = FifoQueue(
        bottleneck_buffer_bytes, marker=marker_factory(), name="bottleneck"
    )
    net.connect(
        core,
        aggregator,
        bandwidth_bps,
        per_hop_delay,
        queue_a_to_b=bottleneck_queue,
        queue_b_to_a=FifoQueue(leaf_buffer_bytes, name="aggregator-up"),
    )

    leaves: List[Switch] = []
    workers: List[Host] = []
    for leaf_idx in range(n_leaves):
        leaf = net.add_switch(f"switch{leaf_idx + 2}")
        leaves.append(leaf)
        net.connect(
            leaf,
            core,
            bandwidth_bps,
            per_hop_delay,
            queue_a_to_b=FifoQueue(leaf_buffer_bytes, name=f"{leaf.name}-up"),
            queue_b_to_a=FifoQueue(leaf_buffer_bytes, name=f"{leaf.name}-down"),
        )
        for host_idx in range(hosts_per_leaf):
            worker = net.add_host(f"worker{leaf_idx}-{host_idx}")
            workers.append(worker)
            net.connect(
                worker,
                leaf,
                bandwidth_bps,
                per_hop_delay,
                queue_a_to_b=FifoQueue(leaf_buffer_bytes, name=f"{worker.name}-up"),
                queue_b_to_a=FifoQueue(
                    leaf_buffer_bytes, name=f"{worker.name}-down"
                ),
            )
    net.finalize_routes()
    return TestbedNetwork(
        network=net,
        aggregator=aggregator,
        workers=workers,
        core_switch=core,
        leaf_switches=leaves,
        bottleneck_queue=bottleneck_queue,
    )


@dataclasses.dataclass
class LeafSpineNetwork:
    """A parametric leaf–spine fabric, ready for campaign workloads."""

    network: Network
    leaves: List[Switch]
    spines: List[Switch]
    #: ``hosts[leaf_idx][host_idx]`` — every host, grouped by leaf.
    hosts: List[List[Host]]
    #: ECMP salt installed on every switch of the fabric.
    ecmp_seed: int

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    @property
    def all_hosts(self) -> List[Host]:
        return [host for leaf in self.hosts for host in leaf]

    def host(self, leaf_idx: int, host_idx: int) -> Host:
        return self.hosts[leaf_idx][host_idx]

    def downlink_queue(self, host: Host) -> FifoQueue:
        """The leaf egress queue toward ``host`` — the incast bottleneck."""
        leaf = self.leaves[self._leaf_of(host)]
        return self.network.interface_between(leaf.node_id, host.node_id).queue

    def _leaf_of(self, host: Host) -> int:
        for leaf_idx, group in enumerate(self.hosts):
            if host in group:
                return leaf_idx
        raise ValueError(f"host {host.name} is not part of this fabric")


def leaf_spine(
    n_leaves: int,
    n_spines: int,
    hosts_per_leaf: int,
    marker_factory: MarkerFactory,
    host_bandwidth_bps: float = 10e9,
    fabric_bandwidth_bps: float = 40e9,
    per_hop_delay: float = 5e-6,
    host_buffer_bytes: float = 16.0 * 1024 * 1024,
    fabric_buffer_bytes: float = 512.0 * 1024,
    fabric_rate_overrides: Optional[Dict[Tuple[int, int], float]] = None,
    ecmp_seed: int = 0,
) -> LeafSpineNetwork:
    """An N-leaves × M-spines Clos fabric with seeded ECMP.

    Every leaf connects to every spine; hosts hang off their leaf.  All
    switch egress ports — leaf downlinks toward hosts, leaf uplinks, and
    spine downlinks — run a fresh marker from ``marker_factory`` over a
    shallow ``fabric_buffer_bytes`` buffer, the datacenter-wide ECN
    configuration the Fixed-K studies assume; host NICs are deep
    DropTail (the sending host never ECN-throttles itself).

    ``fabric_rate_overrides`` maps ``(leaf_idx, spine_idx)`` to a rate
    in bps for that one leaf↔spine link (both directions), which is how
    asymmetric-bottleneck cases are expressed; all other fabric links
    run at ``fabric_bandwidth_bps``.

    ``ecmp_seed`` salts every switch's per-flow path hash: two builds
    with the same seed place every flow identically (across runs *and*
    processes), a different seed re-rolls the placement.
    """
    if n_leaves <= 0 or n_spines <= 0 or hosts_per_leaf <= 0:
        raise ValueError(
            "leaf_spine needs at least one leaf, one spine, and one host "
            f"per leaf, got {n_leaves}x{n_spines}x{hosts_per_leaf}"
        )
    overrides = dict(fabric_rate_overrides or {})
    for (leaf_idx, spine_idx), rate in overrides.items():
        if not (0 <= leaf_idx < n_leaves and 0 <= spine_idx < n_spines):
            raise ValueError(
                f"fabric_rate_overrides key ({leaf_idx}, {spine_idx}) is "
                f"outside the {n_leaves}x{n_spines} fabric"
            )
        if rate <= 0:
            raise ValueError(f"override rate must be positive, got {rate}")

    net = Network()
    spines = [net.add_switch(f"spine{j}") for j in range(n_spines)]
    leaves: List[Switch] = []
    hosts: List[List[Host]] = []
    for leaf_idx in range(n_leaves):
        leaf = net.add_switch(f"leaf{leaf_idx}")
        leaves.append(leaf)
        for spine_idx, spine in enumerate(spines):
            rate = overrides.get((leaf_idx, spine_idx), fabric_bandwidth_bps)
            net.connect(
                leaf,
                spine,
                rate,
                per_hop_delay,
                queue_a_to_b=FifoQueue(
                    fabric_buffer_bytes,
                    marker=marker_factory(),
                    name=f"{leaf.name}-up-{spine.name}",
                ),
                queue_b_to_a=FifoQueue(
                    fabric_buffer_bytes,
                    marker=marker_factory(),
                    name=f"{spine.name}-down-{leaf.name}",
                ),
            )
        group: List[Host] = []
        for host_idx in range(hosts_per_leaf):
            host = net.add_host(f"h{leaf_idx}-{host_idx}")
            group.append(host)
            net.connect(
                host,
                leaf,
                host_bandwidth_bps,
                per_hop_delay,
                queue_a_to_b=FifoQueue(
                    host_buffer_bytes, name=f"{host.name}-up"
                ),
                queue_b_to_a=FifoQueue(
                    fabric_buffer_bytes,
                    marker=marker_factory(),
                    name=f"{leaf.name}-down-{host.name}",
                ),
            )
        hosts.append(group)
    net.finalize_routes(ecmp_seed=ecmp_seed)
    return LeafSpineNetwork(
        network=net,
        leaves=leaves,
        spines=spines,
        hosts=hosts,
        ecmp_seed=ecmp_seed,
    )
