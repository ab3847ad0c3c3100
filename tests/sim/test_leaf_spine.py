"""Leaf–spine fabric, ECMP determinism, and the two topology bugfixes.

Covers the regression cases named by the PR issue:

* parallel links between one node pair used to overwrite each other in
  ``Network._interfaces`` (last ``connect`` won, the earlier link
  silently disappeared from routing);
* ``populate_routes`` promised id-ordered determinism but delegated to
  networkx's insertion-ordered BFS, so permuting ``connect`` calls
  could flip next hops.
"""

import subprocess
import sys
import textwrap

import pytest

from repro.core.marking import SingleThresholdMarker
from repro.sim.node import flow_path_hash
from repro.sim.packet import Packet
from repro.sim.queues import FifoQueue
from repro.sim.routing import fib_table
from repro.sim.tcp.flow import open_flow
from repro.sim.topology import Network, leaf_spine


def marker():
    return SingleThresholdMarker.from_threshold(40)


def small_fabric(**kwargs):
    defaults = dict(
        n_leaves=3, n_spines=2, hosts_per_leaf=2, marker_factory=marker
    )
    defaults.update(kwargs)
    return leaf_spine(**defaults)


class Recorder:
    def __init__(self):
        self.packets = []

    def on_packet(self, packet):
        self.packets.append(packet)


class TestLeafSpineTopology:
    def test_shape(self):
        fab = small_fabric()
        assert len(fab.leaves) == 3
        assert len(fab.spines) == 2
        assert len(fab.all_hosts) == 6
        # Each leaf: 2 spine uplinks + 2 host downlinks.
        for leaf in fab.leaves:
            assert len(leaf.interfaces) == 4
        # Each spine: one downlink per leaf.
        for spine in fab.spines:
            assert len(spine.interfaces) == 3

    def test_all_pairs_reachable(self):
        fab = small_fabric()
        hosts = fab.all_hosts
        flow_id, sent = 1, 0
        recorders = []
        for src in hosts:
            for dst in hosts:
                if src is dst:
                    continue
                rec = Recorder()
                dst.register_endpoint(flow_id, rec)
                src.send(
                    Packet(flow_id=flow_id, src=src.node_id,
                           dst=dst.node_id, seq=0, size_bytes=100)
                )
                recorders.append(rec)
                sent += 1
                flow_id += 1
        fab.sim.run()
        assert sum(len(r.packets) for r in recorders) == sent
        assert all(s.packets_unroutable == 0
                   for s in fab.leaves + fab.spines)

    def test_cross_leaf_fib_spans_all_spines(self):
        fab = small_fabric()
        leaf0 = fab.leaves[0]
        remote = fab.host(1, 0)
        group = leaf0.fib[remote.node_id]
        assert len(group) == 2  # one uplink per spine
        local = fab.host(0, 0)
        assert len(leaf0.fib[local.node_id]) == 1

    def test_fabric_rate_overrides_honored(self):
        fab = small_fabric(
            fabric_bandwidth_bps=40e9,
            fabric_rate_overrides={(1, 0): 10e9},
        )
        slow = fab.network.interfaces_between(
            fab.leaves[1].node_id, fab.spines[0].node_id
        )
        fast = fab.network.interfaces_between(
            fab.leaves[1].node_id, fab.spines[1].node_id
        )
        assert [i.bandwidth_bps for i in slow] == [10e9]
        assert [i.bandwidth_bps for i in fast] == [40e9]
        # Both directions of the overridden link are slowed.
        back = fab.network.interface_between(
            fab.spines[0].node_id, fab.leaves[1].node_id
        )
        assert back.bandwidth_bps == 10e9

    def test_override_outside_fabric_rejected(self):
        with pytest.raises(ValueError):
            small_fabric(fabric_rate_overrides={(7, 0): 1e9})
        with pytest.raises(ValueError):
            small_fabric(fabric_rate_overrides={(0, 0): -1.0})

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            small_fabric(n_leaves=0)
        with pytest.raises(ValueError):
            small_fabric(n_spines=0)
        with pytest.raises(ValueError):
            small_fabric(hosts_per_leaf=0)


class TestEcmpDeterminism:
    def test_flow_path_hash_is_pinned(self):
        """The mix must be a fixed function — these values may never
        change, or cached campaign cells go stale silently."""
        assert flow_path_hash(1, 2, 3, 0) == flow_path_hash(1, 2, 3, 0)
        assert flow_path_hash(1, 2, 3, 0) != flow_path_hash(1, 2, 3, 1)
        assert flow_path_hash(7, 5, 0, 13) == 7358677562591523056

    def test_hash_survives_process_boundary(self):
        """Same seed -> same spine assignment in a fresh interpreter
        (Python's builtin hash would be process-seeded; ours is not)."""
        code = textwrap.dedent(
            """
            from repro.sim.node import flow_path_hash
            print(flow_path_hash(7, 5, 0, 13))
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "7358677562591523056"

    def _spine_assignment(self, seed):
        fab = small_fabric(ecmp_seed=seed)
        src, dst = fab.host(1, 0), fab.host(0, 0)
        leaf = fab.leaves[1]
        assignment = []
        for flow_id in range(1, 33):
            packet = Packet(flow_id=flow_id, src=src.node_id,
                            dst=dst.node_id, seq=0, size_bytes=100)
            egress = leaf.route_for(packet)
            assignment.append(egress.name)
        return assignment

    def test_same_seed_same_assignment(self):
        assert self._spine_assignment(3) == self._spine_assignment(3)

    def test_seed_reshuffles_assignment(self):
        baseline = self._spine_assignment(3)
        assert any(
            self._spine_assignment(other) != baseline for other in (4, 5, 6)
        )

    def test_assignment_uses_every_spine(self):
        assignment = self._spine_assignment(3)
        assert len(set(assignment)) == 2

    def test_flows_never_reorder_across_spines(self):
        """All packets of one flow (one direction) take one spine."""
        fab = small_fabric()
        src, dst = fab.host(2, 1), fab.host(0, 1)
        leaf = fab.leaves[2]
        first = None
        for seq in range(10):
            packet = Packet(flow_id=9, src=src.node_id, dst=dst.node_id,
                            seq=seq, size_bytes=100)
            egress = leaf.route_for(packet)
            if first is None:
                first = egress
            assert egress is first

    def test_full_run_replay_identical(self):
        """Same fabric + same seed -> byte-identical FCTs, including
        in-process replays (node/flow/packet-id epochs all reset)."""

        def run_once():
            fab = small_fabric(ecmp_seed=11)
            done = []
            flows = [
                open_flow(fab.host(1, 0), fab.host(0, 0),
                          total_packets=15, on_complete=done.append)
                for _ in range(8)
            ]
            for flow in flows:
                flow.start()
            fab.sim.run(until=0.05)
            return done

        assert run_once() == run_once()


class TestParallelLinksRegression:
    def test_parallel_links_both_kept(self):
        """Regression: the second connect() used to overwrite the first
        in ``_interfaces`` — only the last link existed for routing."""
        net = Network()
        a = net.add_switch("a")
        b = net.add_switch("b")
        first_ab, _ = net.connect(a, b, 1e9, 1e-6,
                                  FifoQueue(1e6), FifoQueue(1e6))
        second_ab, _ = net.connect(a, b, 2e9, 1e-6,
                                   FifoQueue(1e6), FifoQueue(1e6))
        pair = net.interfaces_between(a.node_id, b.node_id)
        assert pair == (first_ab, second_ab)
        # interface_between keeps its historical single-link meaning:
        # the first-connected member.
        assert net.interface_between(a.node_id, b.node_id) is first_ab
        assert [i.bandwidth_bps for i in pair] == [1e9, 2e9]
        assert pair[0].name == "a->b"
        assert pair[1].name == "a->b#1"

    def test_parallel_links_form_ecmp_group(self):
        """Routing must spread flows over parallel links, not silently
        forward everything down the survivor."""
        net = Network()
        s1 = net.add_switch("s1")
        s2 = net.add_switch("s2")
        h1 = net.add_host("h1")
        h2 = net.add_host("h2")
        net.connect(h1, s1, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.connect(h2, s2, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.connect(s1, s2, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.connect(s1, s2, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.finalize_routes()
        group = s1.fib[h2.node_id]
        assert len(group) == 2
        chosen = set()
        for flow_id in range(1, 65):
            packet = Packet(flow_id=flow_id, src=h1.node_id,
                            dst=h2.node_id, seq=0, size_bytes=100)
            chosen.add(s1.route_for(packet).name)
        assert chosen == {"s1->s2", "s1->s2#1"}

    def test_parallel_links_deliver_traffic(self):
        net = Network()
        s1 = net.add_switch("s1")
        s2 = net.add_switch("s2")
        h1 = net.add_host("h1")
        h2 = net.add_host("h2")
        net.connect(h1, s1, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.connect(h2, s2, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.connect(s1, s2, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.connect(s1, s2, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.finalize_routes()
        rec = Recorder()
        h2.register_endpoint(1, rec)
        h1.send(Packet(flow_id=1, src=h1.node_id, dst=h2.node_id,
                       seq=0, size_bytes=100))
        net.sim.run()
        assert len(rec.packets) == 1


class TestRoutingDeterminismRegression:
    """Permuting ``connect`` order must leave the FIB byte-identical."""

    @staticmethod
    def _build(order):
        """Diamond: core and bottom each reach the other equally via
        left or right, so every cross fib entry is a genuine tie —
        exactly the case edge-insertion order used to corrupt."""
        net = Network()
        core = net.add_switch("core")
        left = net.add_switch("left")
        right = net.add_switch("right")
        bottom = net.add_switch("bottom")
        h_top = net.add_host("ht")
        h_bot = net.add_host("hb")
        links = {
            "core-left": (core, left),
            "core-right": (core, right),
            "left-bottom": (left, bottom),
            "right-bottom": (right, bottom),
            "core-ht": (core, h_top),
            "bottom-hb": (bottom, h_bot),
        }
        for name in order:
            a, b = links[name]
            net.connect(a, b, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.finalize_routes()
        return net

    def test_fib_independent_of_connect_order(self):
        order = [
            "core-left", "core-right", "left-bottom", "right-bottom",
            "core-ht", "bottom-hb",
        ]
        baseline = fib_table(self._build(order))
        for permuted in (
            list(reversed(order)),
            order[3:] + order[:3],
            [order[1], order[0], order[5], order[4], order[3], order[2]],
        ):
            assert fib_table(self._build(permuted)) == baseline

    def test_equal_cost_tie_lists_neighbours_by_node_id(self):
        """core's route to hb ties: via left or via right.  Both must
        be installed, ordered by neighbour node id (left was added
        first) even when the links were connected right-side first."""
        order = [
            "right-bottom", "bottom-hb", "core-right", "core-ht",
            "left-bottom", "core-left",
        ]
        table = fib_table(self._build(order))
        assert table["core"]["hb"] == ["core->left", "core->right"]
        assert table["bottom"]["ht"] == ["bottom->left", "bottom->right"]
