"""The determinism rule pack.

Each rule protects one invariant the reproduction's results rest on:

* **DET001** — no wall-clock reads outside supervision code.  A
  ``time.time()`` in a simulation or analysis path makes traces depend
  on the host, destroying byte-identical replay and poisoning the
  content-addressed result cache.
* **DET002** — no global-state or unseeded RNG in ``repro.sim`` /
  ``repro.fluid`` / ``repro.campaign``.  Only explicitly seeded
  ``random.Random(seed)`` / ``numpy.random.default_rng(seed)``
  instances are reproducible across processes and sweep shardings.
* **DET003** — no iteration over set-typed values feeding
  order-sensitive sinks.  Python set order varies with insertion
  history and interpreter hash state; FIB construction, event posting
  and case expansion must sort first.  (Dicts preserve insertion order,
  so the unordered hazard enters through sets — which is where this
  rule looks.)
* **DET004** — no ``==``/``!=`` on simulated-time floats.  Two event
  times computed along different arithmetic routes can differ in the
  last ulp; exact equality silently changes event order between
  otherwise identical kernels.  Compare with ``<=``/``>=`` against an
  explicit bound instead.
* **KRN001** — ``REPRO_*`` environment variables are read in
  :mod:`repro.exec.cache` only (``REPRO_CACHE_DIR``).  A stray
  ``os.environ`` read is how an option that changes results slips in
  beside the cache key.
* **EXC001** — no broad ``except`` in executor paths that swallows
  without re-raising or recording a failure.  The fault-tolerant
  executor's guarantees (attribution, resume, partial results) die the
  moment an error is silently eaten.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import FileContext, Finding, Rule

__all__ = [
    "WallClockRule",
    "UnseededRandomRule",
    "UnorderedIterationRule",
    "FloatTimeEqualityRule",
    "KernelRegistryRule",
    "SwallowedExceptionRule",
    "ALL_RULES",
    "default_rules",
]


def _module_in(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportMap(ast.NodeVisitor):
    """Resolve local names to the canonical dotted names they import."""

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.asname:
                self.aliases[alias.asname] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}"
            )


def _canonical(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """The import-resolved dotted name of a Name/Attribute chain."""
    dotted = _dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


def _import_aliases(ctx: FileContext) -> Dict[str, str]:
    mapper = _ImportMap()
    mapper.visit(ctx.tree)
    return mapper.aliases


# ---------------------------------------------------------------------------
# DET001 — wall-clock reads
# ---------------------------------------------------------------------------

#: Functions whose return value depends on the host clock.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    id = "DET001"
    title = "wall-clock read outside supervision code"
    rationale = (
        "Host-clock reads make traces and cached results depend on the "
        "machine; only repro.exec (worker supervision) legitimately "
        "observes wall time."
    )
    #: The supervision package, where wall time is the point.
    exempt = ("repro.exec",)

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if _module_in(ctx.module, self.exempt):
            return
        aliases = _import_aliases(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _canonical(node.func, aliases)
            if name in _WALL_CLOCK:
                yield ctx.finding(
                    self.id,
                    node,
                    f"{name}() reads the wall clock; simulation and "
                    "analysis paths must be a pure function of their "
                    "inputs (move supervision timing into repro.exec, or "
                    "suppress with a justification)",
                )


# ---------------------------------------------------------------------------
# DET002 — global-state / unseeded RNG
# ---------------------------------------------------------------------------

#: ``random.X`` attributes that are constructors of independent
#: generators, not reads of the hidden module-global Mersenne state.
_RANDOM_CONSTRUCTORS = {"Random", "SystemRandom"}
#: ``numpy.random.X`` names that construct explicit generators/state.
_NP_RANDOM_CONSTRUCTORS = {
    "Generator",
    "default_rng",
    "RandomState",
    "SeedSequence",
    "PCG64",
    "Philox",
    "MT19937",
    "SFC64",
    "BitGenerator",
}


class UnseededRandomRule(Rule):
    id = "DET002"
    title = "global-state or unseeded RNG in a deterministic package"
    rationale = (
        "Module-global RNG state is shared across everything in the "
        "process and is reseeded by nobody; sweep results would depend "
        "on execution order and sharding.  Construct random.Random(seed) "
        "or numpy.random.default_rng(seed) and pass it down."
    )
    scope = ("repro.sim", "repro.fluid", "repro.campaign")
    #: Modules where even a *seeded* constructor is suspect when the
    #: seed is a literal: all fault-layer randomness must derive from
    #: the ChaosSchedule seed (via ``derive_stream_seed``), or two
    #: schedules with different seeds would replay identical faults.
    chaos_scope = ("repro.sim.chaos",)

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if not _module_in(ctx.module, self.scope):
            return
        in_chaos = _module_in(ctx.module, self.chaos_scope)
        aliases = _import_aliases(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _canonical(node.func, aliases)
            if name is None:
                continue
            finding = self._classify(name, node)
            if finding is None and in_chaos:
                finding = self._classify_chaos_seed(name, node)
            if finding is not None:
                yield ctx.finding(self.id, node, finding)

    @staticmethod
    def _classify(name: str, node: ast.Call) -> Optional[str]:
        unseeded = not node.args and not node.keywords
        if name.startswith("random."):
            attr = name[len("random."):]
            if "." in attr:
                return None  # method on some other object path
            if attr in _RANDOM_CONSTRUCTORS:
                if attr == "Random" and unseeded:
                    return (
                        "random.Random() without a seed draws from OS "
                        "entropy; pass an explicit seed"
                    )
                return None
            return (
                f"random.{attr}() uses the process-global RNG; construct "
                "a seeded random.Random(seed) instead"
            )
        for prefix in ("numpy.random.", "np.random."):
            if name.startswith(prefix):
                attr = name[len(prefix):]
                if attr in _NP_RANDOM_CONSTRUCTORS:
                    if attr in {"default_rng", "RandomState"} and unseeded:
                        return (
                            f"{name}() without a seed draws from OS "
                            "entropy; pass an explicit seed"
                        )
                    return None
                return (
                    f"{name}() mutates numpy's global RNG state; use a "
                    "seeded numpy.random.default_rng(seed)"
                )
        return None

    @staticmethod
    def _classify_chaos_seed(name: str, node: ast.Call) -> Optional[str]:
        """Literal seeds inside the fault layer (``chaos_scope`` only).

        ``random.Random(1234)`` passes the base rule but is still wrong
        in ``repro.sim.chaos``: the stream would be identical for every
        schedule, so two campaigns with different seeds would replay the
        same losses and jitter.  Seeds there must flow from the
        ``ChaosSchedule`` seed through ``derive_stream_seed``.
        """
        is_ctor = name == "random.Random" or any(
            name == prefix + attr
            for prefix in ("numpy.random.", "np.random.")
            for attr in ("default_rng", "RandomState")
        )
        if not is_ctor:
            return None
        seed_expr = node.args[0] if node.args else None
        if seed_expr is None:
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed_expr = keyword.value
                    break
        if isinstance(seed_expr, ast.Constant):
            return (
                f"{name}({seed_expr.value!r}) hard-codes the fault-layer "
                "seed; chaos RNG streams must derive from the "
                "ChaosSchedule seed (derive_stream_seed)"
            )
        return None


# ---------------------------------------------------------------------------
# DET003 — iteration over set-typed values
# ---------------------------------------------------------------------------

#: Calls returning sets when invoked on a set.
_SET_METHODS = {
    "difference",
    "union",
    "intersection",
    "symmetric_difference",
    "copy",
}
#: Consumers whose result does not depend on iteration order.
_ORDER_INSENSITIVE_CALLS = {
    "sorted",
    "min",
    "max",
    "sum",
    "any",
    "all",
    "len",
    "set",
    "frozenset",
}
#: Calls that materialise their argument's iteration order.
_ORDER_MATERIALISING_CALLS = {"list", "tuple"}


class _SetTracker:
    """Conservative per-scope inference of provably-set-typed names."""

    def __init__(self, scope: ast.AST):
        set_named: Set[str] = set()
        other_named: Set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not scope:
                    continue  # nested scopes analysed separately
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if self._is_set_expr(node.value, set_named):
                            set_named.add(target.id)
                        else:
                            other_named.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.value is not None:
                    if self._is_set_expr(node.value, set_named):
                        set_named.add(node.target.id)
                    else:
                        other_named.add(node.target.id)
        #: A name rebound to anything non-set is ambiguous: drop it.
        self.set_named = set_named - other_named

    def is_set(self, node: ast.AST) -> bool:
        return self._is_set_expr(node, self.set_named)

    @classmethod
    def _is_set_expr(cls, node: ast.AST, set_named: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_named
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and cls._is_set_expr(func.value, set_named)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return cls._is_set_expr(node.left, set_named) or cls._is_set_expr(
                node.right, set_named
            )
        return False


class UnorderedIterationRule(Rule):
    id = "DET003"
    title = "iteration over a set feeds an order-sensitive sink"
    rationale = (
        "Set iteration order depends on insertion history and interpreter "
        "hash state; anything built from it (FIBs, event posts, expanded "
        "case lists) varies between runs.  Wrap the iterable in sorted()."
    )

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        scopes = [ctx.tree] + [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        seen: Set[Tuple[int, int]] = set()
        for scope in scopes:
            tracker = _SetTracker(scope)
            for node in self._scope_walk(scope):
                for finding in self._check_node(ctx, node, tracker, parents):
                    key = (finding.line, hash(finding.message))
                    if key not in seen:
                        seen.add(key)
                        yield finding

    @staticmethod
    def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested functions."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(node))

    def _check_node(
        self,
        ctx: FileContext,
        node: ast.AST,
        tracker: _SetTracker,
        parents: Dict[ast.AST, ast.AST],
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)) and tracker.is_set(
            node.iter
        ):
            yield ctx.finding(
                self.id,
                node.iter,
                "for-loop iterates a set in arbitrary order; wrap the "
                "iterable in sorted(...)",
            )
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                if not tracker.is_set(gen.iter):
                    continue
                if self._order_insensitive(node, parents):
                    continue
                kind = type(node).__name__
                yield ctx.finding(
                    self.id,
                    gen.iter,
                    f"{kind} iterates a set in arbitrary order and its "
                    "result preserves that order; wrap the iterable in "
                    "sorted(...)",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_MATERIALISING_CALLS
                and len(node.args) == 1
                and tracker.is_set(node.args[0])
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    f"{func.id}() of a set materialises an arbitrary "
                    "order; use sorted(...)",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and len(node.args) == 1
                and tracker.is_set(node.args[0])
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    "str.join() of a set materialises an arbitrary order; "
                    "use sorted(...)",
                )

    @staticmethod
    def _order_insensitive(
        node: ast.AST, parents: Dict[ast.AST, ast.AST]
    ) -> bool:
        """Whether a comprehension's order cannot reach an observer.

        A SetComp's result is itself unordered, and a generator passed
        straight into sorted()/min()/sum()/... discards order.
        """
        if isinstance(node, ast.SetComp):
            return True
        parent = parents.get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE_CALLS
            and node in parent.args
        )


# ---------------------------------------------------------------------------
# DET004 — float equality on simulated time
# ---------------------------------------------------------------------------

#: Identifier shapes that denote simulated-time floats.
_TIME_EXACT = {"now", "_now", "deadline", "busy_until"}
_TIME_SUFFIXES = ("_time", "_deadline", "_until")


def _is_time_operand(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    if name in _TIME_EXACT or name.endswith(_TIME_SUFFIXES):
        return name
    return None


class FloatTimeEqualityRule(Rule):
    id = "DET004"
    title = "exact equality on a simulated-time float"
    rationale = (
        "Two event times computed along different arithmetic routes can "
        "differ in the last ulp; == on them silently reorders events "
        "between kernels.  Compare with an ordering (<=, >=) against an "
        "explicit bound."
    )
    scope = ("repro.sim", "repro.fluid", "repro.campaign")

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if not _module_in(ctx.module, self.scope):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                # `x == None` / string comparisons are a different lint's
                # business; only float-vs-float time equality concerns us.
                if any(
                    isinstance(side, ast.Constant)
                    and not isinstance(side.value, (int, float))
                    for side in (left, right)
                ):
                    continue
                name = _is_time_operand(left) or _is_time_operand(right)
                if name is not None:
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield ctx.finding(
                        self.id,
                        node,
                        f"{symbol} on simulated-time value {name!r}; exact "
                        "float equality on times is ulp-fragile — compare "
                        "with <=/>= against an explicit bound",
                    )


# ---------------------------------------------------------------------------
# KRN001 — REPRO_* environment reads live in one module
# ---------------------------------------------------------------------------


class KernelRegistryRule(Rule):
    id = "KRN001"
    title = "REPRO_* environment read outside repro.exec.cache"
    rationale = (
        "REPRO_CACHE_DIR is the only environment variable the code "
        "reads; a direct os.environ read elsewhere can introduce an "
        "option that changes results without entering the cache key."
    )
    #: The one sanctioned reader (``default_cache_dir``).
    exempt = ("repro.exec.cache",)

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if _module_in(ctx.module, self.exempt):
            return
        aliases = _import_aliases(ctx)
        for node in ast.walk(ctx.tree):
            key = self._environ_key(node, aliases)
            if key is not None and key.startswith("REPRO_"):
                yield ctx.finding(
                    self.id,
                    node,
                    f"direct environment read of {key}; results must be "
                    "a function of Case.params, and repro.exec.cache is "
                    "the only module that reads a REPRO_* variable",
                )

    @staticmethod
    def _environ_key(
        node: ast.AST, aliases: Dict[str, str]
    ) -> Optional[str]:
        """The literal key of an os.environ/os.getenv access, if any."""
        if isinstance(node, ast.Subscript):
            target = _canonical(node.value, aliases)
            if target in {"os.environ", "environ"}:
                literal = node.slice
                if isinstance(literal, ast.Constant) and isinstance(
                    literal.value, str
                ):
                    return literal.value
            return None
        if isinstance(node, ast.Call) and node.args:
            name = _canonical(node.func, aliases)
            if name in {"os.environ.get", "environ.get", "os.getenv"}:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    return first.value
        return None


# ---------------------------------------------------------------------------
# EXC001 — swallowed broad excepts in executor paths
# ---------------------------------------------------------------------------

_BROAD_TYPES = {"Exception", "BaseException"}
#: Identifier fragments that count as recording the failure.
_FAILURE_MARKERS = ("fail", "failure")


class SwallowedExceptionRule(Rule):
    id = "EXC001"
    title = "broad except swallows without re-raise or FailureRecord"
    rationale = (
        "The executor's fault-tolerance contract is that every error is "
        "re-raised or attributed to its case as a FailureRecord; a bare "
        "pass devours the evidence and corrupts resume accounting."
    )
    scope = ("repro.exec", "repro.experiments.runner", "repro.cli")

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        if not _module_in(ctx.module, self.scope):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles_failure(node):
                continue
            caught = (
                "bare except"
                if node.type is None
                else f"except {_dotted_name(node.type) or '...'}"
            )
            yield ctx.finding(
                self.id,
                node,
                f"{caught} swallows the error without re-raising or "
                "recording a FailureRecord; executor paths must attribute "
                "every failure",
            )

    @staticmethod
    def _is_broad(type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(
                _dotted_name(el) in _BROAD_TYPES for el in type_node.elts
            )
        return _dotted_name(type_node) in _BROAD_TYPES

    @staticmethod
    def _handles_failure(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            name: Optional[str] = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name is not None and any(
                marker in name.lower() for marker in _FAILURE_MARKERS
            ):
                return True
        return False


ALL_RULES = (
    WallClockRule,
    UnseededRandomRule,
    UnorderedIterationRule,
    FloatTimeEqualityRule,
    KernelRegistryRule,
    SwallowedExceptionRule,
)


def default_rules() -> Tuple[Rule, ...]:
    """One instance of every rule, in pack order."""
    return tuple(cls() for cls in ALL_RULES)
