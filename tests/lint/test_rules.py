"""Per-rule fixtures: each rule fires, stays quiet, and suppresses.

Every rule gets at least one positive fixture (the hazard, caught), one
negative fixture (idiomatic deterministic code, not flagged), and one
suppressed fixture (the hazard plus an inline justification, silenced).
"""

import textwrap

import pytest

from repro.lint import LintEngine, default_rules


@pytest.fixture(scope="module")
def engine():
    return LintEngine(default_rules())


def lint(engine, source, module="repro.sim.fixture"):
    return engine.lint_source(textwrap.dedent(source), module=module)


def rules_fired(engine, source, module="repro.sim.fixture"):
    return sorted({f.rule for f in lint(engine, source, module)})


# ---------------------------------------------------------------------------
# DET001 — wall-clock reads
# ---------------------------------------------------------------------------


class TestWallClock:
    def test_fires_on_time_time(self, engine):
        findings = lint(engine, """\
            import time

            def stamp():
                return time.time()
            """)
        assert [f.rule for f in findings] == ["DET001"]
        assert findings[0].line == 4
        assert "time.time" in findings[0].message

    def test_fires_on_aliased_import(self, engine):
        assert rules_fired(engine, """\
            from time import perf_counter as clock

            def stamp():
                return clock()
            """) == ["DET001"]

    def test_fires_on_datetime_now(self, engine):
        assert rules_fired(engine, """\
            import datetime

            def stamp():
                return datetime.datetime.now()
            """) == ["DET001"]

    def test_quiet_on_simulated_time(self, engine):
        assert rules_fired(engine, """\
            def stamp(sim):
                return sim.now
            """) == []

    def test_quiet_on_time_sleep(self, engine):
        # Only clock *reads* are flagged; sleep is a different hazard.
        assert rules_fired(engine, """\
            import time

            def pause():
                time.sleep(0.1)
            """) == []

    def test_exempt_in_exec_only(self, engine):
        source = """\
            import time

            def stamp():
                return time.time()
            """
        assert rules_fired(engine, source, module="repro.exec.executor") == []
        assert rules_fired(engine, source, module="repro.cli") == ["DET001"]

    def test_suppressed_with_justification(self, engine):
        assert rules_fired(engine, """\
            import time

            def stamp():
                # repro-lint: disable=DET001 -- operator display only
                return time.time()
            """) == []


# ---------------------------------------------------------------------------
# DET002 — global-state / unseeded RNG
# ---------------------------------------------------------------------------


class TestUnseededRandom:
    def test_fires_on_module_global_random(self, engine):
        findings = lint(engine, """\
            import random

            def jitter():
                return random.random()
            """)
        assert [f.rule for f in findings] == ["DET002"]
        assert "process-global" in findings[0].message

    def test_fires_on_unseeded_random_instance(self, engine):
        assert rules_fired(engine, """\
            import random

            def make_rng():
                return random.Random()
            """) == ["DET002"]

    def test_fires_on_numpy_global_state(self, engine):
        assert rules_fired(engine, """\
            import numpy as np

            def jitter():
                return np.random.uniform(0.0, 1.0)
            """) == ["DET002"]

    def test_fires_on_unseeded_default_rng(self, engine):
        assert rules_fired(engine, """\
            import numpy as np

            def make_rng():
                return np.random.default_rng()
            """) == ["DET002"]

    def test_quiet_on_seeded_generators(self, engine):
        assert rules_fired(engine, """\
            import random
            import numpy as np

            def make(seed):
                return random.Random(seed), np.random.default_rng(seed)
            """) == []

    def test_chaos_scope_fires_on_literal_seed(self, engine):
        # Inside the fault layer a *seeded* constructor is still wrong
        # when the seed is a literal: every ChaosSchedule would replay
        # the same stream regardless of its own seed.
        findings = lint(engine, """\
            import random

            def make_stream():
                return random.Random(1234)
            """, module="repro.sim.chaos")
        assert [f.rule for f in findings] == ["DET002"]
        assert "ChaosSchedule seed" in findings[0].message

    def test_chaos_scope_fires_on_literal_numpy_seed(self, engine):
        assert rules_fired(engine, """\
            import numpy as np

            def make_stream():
                return np.random.default_rng(seed=7)
            """, module="repro.sim.chaos") == ["DET002"]

    def test_chaos_scope_quiet_on_derived_seed(self, engine):
        # The sanctioned shape: the stream seed flows from the schedule
        # seed through derive_stream_seed.
        assert rules_fired(engine, """\
            import random

            def make_stream(schedule_seed, name):
                seed = derive_stream_seed(schedule_seed, "loss", name)
                return random.Random(seed)
            """, module="repro.sim.chaos") == []

    def test_literal_seed_outside_chaos_scope_is_fine(self, engine):
        # Elsewhere in the deterministic packages a literal seed is a
        # legitimate fixed default; only the fault layer forbids it.
        assert rules_fired(engine, """\
            import random

            def make_rng():
                return random.Random(1234)
            """) == []

    def test_out_of_scope_module_is_quiet(self, engine):
        # The executor's seeded-backoff helpers live outside the
        # deterministic packages; DET002 does not police them.
        assert rules_fired(engine, """\
            import random

            def jitter():
                return random.random()
            """, module="repro.exec.executor") == []

    def test_suppressed(self, engine):
        assert rules_fired(engine, """\
            import random

            def jitter():
                return random.random()  # repro-lint: disable=DET002 -- demo
            """) == []


# ---------------------------------------------------------------------------
# DET003 — set iteration feeding order-sensitive sinks
# ---------------------------------------------------------------------------


class TestUnorderedIteration:
    def test_fires_on_for_over_set_literal(self, engine):
        findings = lint(engine, """\
            def post(sim):
                for node in {1, 2, 3}:
                    sim.schedule(node)
            """)
        assert [f.rule for f in findings] == ["DET003"]

    def test_fires_on_for_over_set_typed_local(self, engine):
        assert rules_fired(engine, """\
            def fib(links):
                seen = set()
                for link in links:
                    seen.add(link)
                for link in seen:
                    yield link
            """) == ["DET003"]

    def test_fires_on_list_of_set(self, engine):
        assert rules_fired(engine, """\
            def order(members):
                pending = set(members)
                return list(pending)
            """) == ["DET003"]

    def test_fires_on_listcomp_over_set_difference(self, engine):
        assert rules_fired(engine, """\
            def order(a, b):
                alive = set(a) - set(b)
                return [x for x in alive]
            """) == ["DET003"]

    def test_quiet_when_sorted(self, engine):
        assert rules_fired(engine, """\
            def order(members):
                pending = set(members)
                for m in sorted(pending):
                    yield m
                return sorted(x for x in pending)
            """) == []

    def test_quiet_on_order_insensitive_sinks(self, engine):
        assert rules_fired(engine, """\
            def stats(members):
                pending = set(members)
                total = sum(x for x in pending)
                biggest = max(x for x in pending)
                copies = {x for x in pending}
                return total, biggest, copies
            """) == []

    def test_quiet_on_list_iteration(self, engine):
        assert rules_fired(engine, """\
            def order(members):
                pending = list(members)
                return [x for x in pending]
            """) == []

    def test_rebound_name_is_ambiguous_and_quiet(self, engine):
        # A name also bound to a non-set is not provably a set.
        assert rules_fired(engine, """\
            def order(members, flag):
                pending = set(members)
                if flag:
                    pending = sorted(members)
                return [x for x in pending]
            """) == []

    def test_suppressed(self, engine):
        assert rules_fired(engine, """\
            def order(members):
                pending = set(members)
                # repro-lint: disable=DET003 -- consumer re-sorts downstream
                return list(pending)
            """) == []


# ---------------------------------------------------------------------------
# DET004 — exact equality on simulated-time floats
# ---------------------------------------------------------------------------


class TestFloatTimeEquality:
    def test_fires_on_eq_now(self, engine):
        findings = lint(engine, """\
            def due(event, sim):
                return event.fire_time == sim.now
            """)
        assert [f.rule for f in findings] == ["DET004"]
        assert "ulp" in findings[0].message

    def test_fires_on_neq_deadline(self, engine):
        assert rules_fired(engine, """\
            def pending(handle, t):
                return handle.deadline != t
            """) == ["DET004"]

    def test_fires_on_busy_until(self, engine):
        assert rules_fired(engine, """\
            def idle(link, t):
                return link.busy_until == t
            """) == ["DET004"]

    def test_quiet_on_ordering_comparisons(self, engine):
        assert rules_fired(engine, """\
            def due(event, sim):
                return event.fire_time <= sim.now
            """) == []

    def test_quiet_on_none_check(self, engine):
        # `x.deadline is None` and string compares are out of scope.
        assert rules_fired(engine, """\
            def unarmed(handle):
                return handle.deadline is None or handle.kind == "idle"
            """) == []

    def test_quiet_outside_scope(self, engine):
        assert rules_fired(engine, """\
            def due(event, now):
                return event.fire_time == now
            """, module="repro.exec.executor") == []

    def test_suppressed(self, engine):
        assert rules_fired(engine, """\
            def due(event, sim):
                # repro-lint: disable=DET004 -- exact sentinel comparison
                return event.fire_time == sim.now
            """) == []


# ---------------------------------------------------------------------------
# KRN001 — REPRO_* environment reads live in one module
# ---------------------------------------------------------------------------


class TestKernelRegistry:
    def test_fires_on_environ_get(self, engine):
        findings = lint(engine, """\
            import os

            CORE = os.environ.get("REPRO_PACKET_CORE", "flat")
            """)
        assert [f.rule for f in findings] == ["KRN001"]
        assert "REPRO_PACKET_CORE" in findings[0].message

    def test_fires_on_environ_subscript_and_getenv(self, engine):
        findings = lint(engine, """\
            import os

            A = os.environ["REPRO_LINK_MODEL"]
            B = os.getenv("REPRO_LINK_MODEL")
            """)
        assert [f.rule for f in findings] == ["KRN001", "KRN001"]

    def test_fires_on_from_import(self, engine):
        assert rules_fired(engine, """\
            from os import environ

            CORE = environ.get("REPRO_PACKET_CORE")
            """) == ["KRN001"]

    def test_quiet_on_non_repro_vars(self, engine):
        assert rules_fired(engine, """\
            import os

            HOME = os.environ.get("HOME")
            PATH = os.environ["PATH"]
            """) == []

    def test_registry_module_is_exempt(self, engine):
        assert rules_fired(engine, """\
            import os

            VALUE = os.environ.get("REPRO_LINK_MODEL")
            """, module="repro.exec.cache") == []

    def test_suppressed(self, engine):
        assert rules_fired(engine, """\
            import os

            # repro-lint: disable=KRN001 -- migration shim, see issue
            CORE = os.environ.get("REPRO_PACKET_CORE")
            """) == []


# ---------------------------------------------------------------------------
# EXC001 — swallowed broad excepts in executor paths
# ---------------------------------------------------------------------------


class TestSwallowedException:
    def test_fires_on_bare_except_pass(self, engine):
        findings = lint(engine, """\
            def run(case):
                try:
                    case()
                except:
                    pass
            """, module="repro.exec.executor")
        assert [f.rule for f in findings] == ["EXC001"]
        assert "bare except" in findings[0].message

    def test_fires_on_broad_except_logging_only(self, engine):
        assert rules_fired(engine, """\
            def run(case, log):
                try:
                    case()
                except Exception as exc:
                    log.warning("ignoring %s", exc)
            """, module="repro.exec.executor") == ["EXC001"]

    def test_quiet_when_reraised(self, engine):
        assert rules_fired(engine, """\
            def run(case, log):
                try:
                    case()
                except Exception:
                    log.warning("failed")
                    raise
            """, module="repro.exec.executor") == []

    def test_quiet_when_failure_recorded(self, engine):
        assert rules_fired(engine, """\
            def run(case, report):
                try:
                    case()
                except Exception as exc:
                    report.failures.append(FailureRecord(case, exc))
            """, module="repro.exec.executor") == []

    def test_quiet_on_narrow_except(self, engine):
        assert rules_fired(engine, """\
            def read(path):
                try:
                    return path.read_text()
                except OSError:
                    return None
            """, module="repro.exec.executor") == []

    def test_quiet_outside_executor_paths(self, engine):
        assert rules_fired(engine, """\
            def probe(case):
                try:
                    case()
                except Exception:
                    pass
            """, module="repro.sim.engine") == []

    def test_suppressed(self, engine):
        assert rules_fired(engine, """\
            def teardown(proc):
                try:
                    proc.terminate()
                # repro-lint: disable=EXC001 -- best-effort teardown
                except Exception:
                    pass
            """, module="repro.exec.executor") == []
