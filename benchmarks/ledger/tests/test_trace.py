"""Shadow-stack arithmetic and complete removal of the wrappers."""

from ledger import harness
from ledger.trace import Census, Hooks, Tracer, install_tracing


class FakeClock:
    """A clock the test advances by hand, in nanoseconds."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_time_on_a_synthetic_nested_tree():
    # root(10) -> a(20) -> b(5), b(5)   and   root -> b(7)
    #                  \-> c(3, recorded)
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf_b(ns):
        clock.advance(ns)

    def leaf_c():
        clock.advance(3)

    b = tracer.fold("b", leaf_b)
    c = tracer.record("c", leaf_c, name="c-span")

    def node_a():
        clock.advance(20)
        b(5)
        b(5)
        c()

    a = tracer.fold("a", node_a)
    with tracer.span("root", "root-span"):
        clock.advance(10)
        a()
        b(7)

    assert tracer.layers["b"] == [3, 17, 0]
    assert tracer.layers["c"] == [1, 3, 0]
    assert tracer.layers["a"] == [1, 33, 13]
    assert tracer.layers["root"] == [1, 50, 40]
    assert tracer.self_ns("a") == 20
    assert tracer.self_ns("root") == 10
    # Nothing is lost: self times add up to the root span exactly.
    assert tracer.self_ns_total() == tracer.total_ns("root") == 50
    # Recorded spans keep identity, parentage and interval; folded ones
    # leave no record.
    spans = {s["name"]: s for s in tracer.spans}
    assert set(spans) == {"root-span", "c-span"}
    assert spans["c-span"]["parent"] == spans["root-span"]["id"]
    assert spans["root-span"]["parent"] is None
    assert spans["c-span"]["end_ns"] - spans["c-span"]["start_ns"] == 3


def test_exception_unwinds_the_shadow_stack():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(4)
        raise ValueError("boom")

    wrapped = tracer.fold("x", boom)
    with tracer.span("root"):
        try:
            wrapped()
        except ValueError:
            pass
        clock.advance(1)
    assert tracer.layers["x"] == [1, 4, 0]
    assert tracer.self_ns_total() == tracer.total_ns("root") == 5


def test_hooks_replace_and_restore_functions_everywhere():
    import repro.sim.apps.bulk as bulk
    import repro.sim.tcp.flow as flow

    original = flow.open_flow
    assert bulk.open_flow is original
    hooks = Hooks()
    hooks.replace_function("repro.sim.tcp.flow", "open_flow", lambda f: (lambda *a, **k: f(*a, **k)))
    assert flow.open_flow is not original
    assert bulk.open_flow is flow.open_flow
    hooks.remove()
    assert flow.open_flow is original
    assert bulk.open_flow is original


def test_wrappers_fully_removed_after_a_traced_pass(tmp_path):
    from repro.sim.link import Interface
    from repro.sim.node import Switch
    from repro.sim.queues import FifoQueue
    from repro.sim.tcp.receiver import TcpReceiver
    from repro.sim.tcp.sender import TcpSender
    from repro.experiments import queue_sweep

    targets = [
        (Interface, "send"), (Switch, "receive"), (FifoQueue, "enqueue"),
        (TcpSender, "on_packet"), (TcpSender, "__init__"),
        (TcpReceiver, "__init__"), (queue_sweep, "run_case"),
    ]
    before = [vars(owner)[name] for owner, name in targets]
    result = harness.run_child(
        "dumbbell-steady", seed=1, scale=0.1, traced=True, scratch_root=tmp_path
    )
    after = [vars(owner)[name] for owner, name in targets]
    assert all(a is b for a, b in zip(after, before))
    assert result["trace"]["layers"]["sim.link"][0] > 0
    assert all(ok for _, ok, _ in result["checks"]), result["checks"]


def test_install_then_remove_without_running_anything():
    from repro.sim.engine import Simulator

    original = Simulator.run
    hooks = install_tracing(Tracer(), Census(), [])
    assert Simulator.run is not original
    hooks.remove()
    assert Simulator.run is original
