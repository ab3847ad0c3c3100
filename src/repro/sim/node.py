"""Network nodes: hosts (endpoints) and switches (forwarders).

A :class:`Host` owns exactly one NIC interface and a demux table from
flow id to transport endpoint; every packet it originates leaves through
the NIC, every packet it receives is handed to the matching endpoint.

A :class:`Switch` owns one interface per attached link and a forwarding
table from destination node id to a *next-hop set* — one or more egress
interfaces on equal-cost shortest paths (filled by
:mod:`repro.sim.routing`).  A single-member set forwards directly; a
multi-member set is ECMP: the egress is chosen by a deterministic,
seeded hash of the packet's flow identity, so one flow always follows
one path (no reordering) while distinct flows spread across the set.
Forwarding is store-and-forward with the marking/dropping behaviour
delegated to each egress interface's queue.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    TYPE_CHECKING,
    Tuple,
)

from repro.sim.link import Interface
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = [
    "Endpoint",
    "Node",
    "Host",
    "Switch",
    "flow_path_hash",
    "reset_node_ids",
]

_node_ids = itertools.count()


def reset_node_ids(start: int = 0) -> None:
    """Begin a fresh node-id epoch.

    Called by :class:`repro.sim.topology.Network` on construction: node
    ids enter the ECMP path hash (as packet ``src``/``dst``), so a
    scenario's flow placement must be a function of the scenario alone,
    not of how many nodes earlier simulations in this process created.
    Node ids are only ever compared *within* one network (FIB keys,
    demux), so concurrent networks restarting from 0 cannot collide.
    """
    global _node_ids
    _node_ids = itertools.count(start)

_MASK64 = (1 << 64) - 1


def flow_path_hash(flow_id: int, src: int, dst: int, salt: int) -> int:
    """Deterministic 64-bit mix of a packet's flow identity.

    Python's builtin ``hash`` is process-seeded for some types and
    therefore unusable for reproducible ECMP; this is a fixed
    splitmix64-style mix, so the same ``(flow, src, dst, salt)`` maps to
    the same value in every process and on every platform.  ``salt`` is
    the switch's ECMP seed — changing it re-shuffles flow placement
    without touching flow or topology construction.
    """
    h = (
        flow_id * 0x9E3779B97F4A7C15
        + src * 0xC2B2AE3D27D4EB4F
        + dst * 0x165667B19E3779F9
        + salt * 0x27D4EB2F165667C5
    ) & _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    return h ^ (h >> 33)


class Endpoint(Protocol):
    """Anything a host can demux packets to (TCP senders/receivers)."""

    def on_packet(self, packet: Packet) -> None:
        ...


class Node:
    """Common base: identity plus the receive hook."""

    __slots__ = ("sim", "node_id", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.node_id: int = next(_node_ids)
        self.name = name or f"node{self.node_id}"

    def receive(self, packet: Packet) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, id={self.node_id})"


class Host(Node):
    """End host: one NIC, many transport endpoints.

    :meth:`attach_nic` puts the NIC's bound ``send`` in the instance
    dict, shadowing :meth:`send`: an endpoint's send costs no host frame.
    Not a slot, so that tools wrapping the class's ``send`` still work.
    """

    __slots__ = ("nic", "_endpoints", "_demux_get", "packets_received", "__dict__")

    def __init__(self, sim: "Simulator", name: str = ""):
        super().__init__(sim, name)
        self.nic: Optional[Interface] = None
        self._endpoints: Dict[int, Endpoint] = {}
        #: ``_endpoints.get`` pre-bound: the demux runs once per
        #: delivered packet and the dict never changes identity
        #: (register/unregister mutate it in place).
        self._demux_get = self._endpoints.get
        self.packets_received = 0

    def attach_nic(self, nic: Interface) -> None:
        if self.nic is not None:
            raise RuntimeError(f"host {self.name} already has a NIC")
        self.nic = nic
        self.__dict__["send"] = nic.send

    def send(self, packet: Packet) -> bool:
        """Transmit out of the NIC (until :meth:`attach_nic`: raise)."""
        raise RuntimeError(f"host {self.name} has no NIC")

    def register_endpoint(self, flow_id: int, endpoint: Endpoint) -> None:
        """Bind ``endpoint`` to ``flow_id``; one endpoint per flow per host."""
        if flow_id in self._endpoints:
            raise ValueError(
                f"flow {flow_id} already registered on host {self.name}"
            )
        self._endpoints[flow_id] = endpoint

    def unregister_endpoint(self, flow_id: int) -> None:
        self._endpoints.pop(flow_id, None)

    def receive(self, packet: Packet) -> None:
        self.packets_received += 1
        endpoint = self._demux_get(packet.flow_id)
        if endpoint is not None:
            endpoint.on_packet(packet)
        # Unknown flows (late retransmits after teardown) are dropped
        # silently, like segments to a closed port.


class Switch(Node):
    """Output-queued store-and-forward switch with ECMP next-hop sets.

    The resolved egress — its bound ``send``, so a hit pays one dict
    lookup — is memoized per ``(flow_id, src, dst)``, and the ECMP path
    hash runs once per flow per switch instead of once per packet.
    Memoization is sound because :func:`flow_path_hash` is a pure
    function of the key plus the switch's FIB and seed — so the cache is
    invalidated whenever either changes (:meth:`set_routes`,
    :meth:`withdraw_route`, :attr:`ecmp_seed`, :meth:`reset`);
    :meth:`route_for` is the unmemoized resolution the tests compare
    every cached entry against.
    """

    __slots__ = (
        "interfaces",
        "fib",
        "_ecmp_seed",
        "_route_cache",
        "_route_get",
        "packets_forwarded",
        "packets_unroutable",
    )

    def __init__(self, sim: "Simulator", name: str = "", ecmp_seed: int = 0):
        super().__init__(sim, name)
        self.interfaces: List[Interface] = []
        #: destination node id -> equal-cost egress interface set (ECMP
        #: group); a single-member tuple is plain unipath forwarding.
        self.fib: Dict[int, Tuple[Interface, ...]] = {}
        #: Salt for the per-flow path hash; one seed per fabric keeps
        #: flow placement reproducible across runs and processes.
        #: Assigning it invalidates the memoized routes (the hash — and
        #: with it every multi-path choice — changes with the salt).
        self._ecmp_seed = ecmp_seed
        #: Memoized forwarding decisions: flow identity -> the *bound*
        #: ``egress.send`` (not the interface itself), so the cache hit
        #: costs one dict lookup and nothing else per packet.
        self._route_cache: Dict[
            Tuple[int, int, int], Callable[[Packet], bool]
        ] = {}
        #: ``_route_cache.get`` pre-bound; every invalidation site uses
        #: ``clear()``, never rebinds the dict, so the bound method
        #: stays valid for the switch's lifetime.
        self._route_get = self._route_cache.get
        self.packets_forwarded = 0
        self.packets_unroutable = 0

    @property
    def ecmp_seed(self) -> int:
        return self._ecmp_seed

    @ecmp_seed.setter
    def ecmp_seed(self, seed: int) -> None:
        # Routing helpers stamp the fabric seed after construction
        # (:func:`repro.sim.routing.populate_routes`); memoized egresses
        # computed under the old salt are stale the instant it changes.
        self._ecmp_seed = seed
        self._route_cache.clear()

    def add_interface(self, interface: Interface) -> Interface:
        self.interfaces.append(interface)
        return interface

    def set_route(self, dst_node_id: int, interface: Interface) -> None:
        """Install a single next hop toward ``dst_node_id``."""
        self.set_routes(dst_node_id, (interface,))

    def set_routes(
        self, dst_node_id: int, interfaces: Sequence[Interface]
    ) -> None:
        """Install an equal-cost next-hop set toward ``dst_node_id``."""
        if not interfaces:
            raise ValueError(
                f"next-hop set for node {dst_node_id} on {self.name} is empty"
            )
        for interface in interfaces:
            if interface not in self.interfaces:
                raise ValueError(
                    f"interface {interface.name!r} does not belong to "
                    f"{self.name}"
                )
        self.fib[dst_node_id] = tuple(interfaces)
        # Any memoized egress may now point at a replaced next-hop set;
        # drop them all rather than tracking per-destination validity.
        self._route_cache.clear()

    def withdraw_route(self, dst_node_id: int) -> None:
        """Remove every route toward ``dst_node_id`` (packets become
        unroutable until a new set is installed).

        The fault layer (:mod:`repro.sim.chaos`) withdraws destinations
        whose only next hop rides a downed link; like every other FIB
        mutation this invalidates the memoized bound-``send`` entries,
        or :meth:`receive` would keep forwarding into the dead interface
        from the cache.
        """
        self.fib.pop(dst_node_id, None)
        self._route_cache.clear()

    def reset(self) -> None:
        """Forget forwarding state: FIB, memoized routes, counters."""
        self.fib.clear()
        self._route_cache.clear()
        self.packets_forwarded = 0
        self.packets_unroutable = 0

    def route_for(self, packet: Packet) -> Optional[Interface]:
        """The egress ``packet`` takes, or None when unroutable.

        A multi-member next-hop set is resolved by the seeded flow hash:
        all packets of one flow (one direction) pick the same member, so
        ECMP never reorders within a flow.
        """
        group = self.fib.get(packet.dst)
        if group is None:
            return None
        if len(group) == 1:
            return group[0]
        index = flow_path_hash(
            packet.flow_id, packet.src, packet.dst, self._ecmp_seed
        ) % len(group)
        return group[index]

    def receive(self, packet: Packet) -> None:
        # Memoized forwarding: one hash per flow per switch.  Only
        # routable results are cached — an unroutable destination must
        # re-consult the FIB (a route may be installed later) and must
        # count every arrival.
        key = (packet.flow_id, packet.src, packet.dst)
        send = self._route_get(key)
        if send is None:
            egress = self.route_for(packet)
            if egress is None:
                self.packets_unroutable += 1
                return
            send = egress.send
            self._route_cache[key] = send
        self.packets_forwarded += 1
        send(packet)
