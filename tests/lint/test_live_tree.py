"""Meta-tests: the shipped tree itself satisfies the lint gate.

These are the tests that make the gate real: if a change introduces a
wall-clock read, an unseeded RNG or a stray ``os.environ["REPRO_*"]``,
the tier-1 suite fails — CI wiring or not.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import LintEngine, default_rules, default_src_root

PROJECT_ROOT = Path(__file__).resolve().parents[2]


def test_default_src_root_is_this_checkout():
    assert default_src_root() == PROJECT_ROOT / "src"


def test_live_tree_lints_clean():
    engine = LintEngine(default_rules())
    findings = engine.lint_tree(
        src_root=PROJECT_ROOT / "src", project_root=PROJECT_ROOT
    )
    assert findings == [], (
        "lint findings:\n"
        + "\n".join(
            f"  {f.path}:{f.line}: {f.rule}: {f.message}" for f in findings
        )
        + "\nFix the finding, or add an inline `# repro-lint: disable=...` "
        "with a justification."
    )


def test_no_unregistered_repro_env_reads_anywhere():
    """Belt and braces behind KRN001: grep-level scan of src/."""
    import re

    pattern = re.compile(
        r"(?:os\.environ(?:\.get)?|os\.getenv|environ(?:\.get)?)"
        r"\s*[\(\[]\s*['\"](REPRO_\w+)"
    )
    offenders = []
    exempt = PROJECT_ROOT / "src" / "repro" / "exec" / "cache.py"
    for path in sorted((PROJECT_ROOT / "src").rglob("*.py")):
        if path == exempt:
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if pattern.search(line):
                offenders.append(f"{path}:{lineno}: {line.strip()}")
    assert offenders == []


def test_benchmarks_holds_only_the_ledger():
    """One home per claim (ROADMAP item 1(e)): a claim is asserted under
    ``tests/``, ``benchmarks/`` is the performance ledger and nothing
    else, and the plugin and ``Scale`` preset of the 22 claim files that
    used to sit beside it stay gone."""
    benchmarks = PROJECT_ROOT / "benchmarks"
    strays = sorted(
        str(path.relative_to(PROJECT_ROOT))
        for pattern in ("test_*.py", "conftest.py")
        for path in benchmarks.rglob(pattern)
        if path.relative_to(benchmarks).parts[0] != "ledger"
    )
    assert strays == []
    # Spelled in halves so that this file does not name them itself.
    retired = ("pytest" + "_benchmark", "bench" + "_scale")
    offenders = [
        f"{path.relative_to(PROJECT_ROOT)}: {name}"
        for top in ("src", "tests", "examples")
        for path in sorted((PROJECT_ROOT / top).rglob("*.py"))
        for name in retired
        if name in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


# -- packages are namespaces ---------------------------------------------

#: The five packages whose ``__init__`` used to re-export 101 names from
#: their own modules; ``repro.core``'s pulled ``scipy.optimize`` into
#: every process that imported ``repro.sim``.
NAMESPACES = ("repro.core", "repro.sim", "repro.fluid", "repro.sim.tcp",
              "repro.sim.apps")

#: Package -> the sibling packages its modules may import at module
#: level (DESIGN.md section 2, "Package DAG").
PACKAGE_DAG = {
    "core": set(),
    "exec": set(),
    "stats": set(),
    "lint": set(),
    "sim": {"core"},
    "fluid": {"core", "stats"},
    "campaign": {"core", "exec", "sim", "stats"},
}


def _package_dir(package):
    return (PROJECT_ROOT / "src").joinpath(*package.split("."))


def _module_level_imports(path):
    """Import statements that run when ``path`` is imported (function
    bodies are where a command or stage imports lazily, on purpose)."""
    stack = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_namespace_packages_import_nothing():
    for package in NAMESPACES:
        init = _package_dir(package) / "__init__.py"
        imports = [
            node.lineno
            for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports == [], f"{init}: import at line(s) {imports}"


def test_names_are_imported_from_their_defining_module():
    """``from repro.sim import topology`` names a module and is fine;
    ``from repro.sim import dumbbell`` needs a re-export to exist."""

    def is_submodule(package, name):
        base = _package_dir(package)
        return (base / f"{name}.py").is_file() or (base / name).is_dir()

    offenders = [
        f"{path.relative_to(PROJECT_ROOT)}:{node.lineno}: "
        f"from {node.module} import {alias.name}"
        for top in ("src", "tests", "examples")
        for path in sorted((PROJECT_ROOT / top).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module in NAMESPACES
        for alias in node.names
        if not is_submodule(node.module, alias.name)
    ]
    assert offenders == []


def _run_python(code):
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": str(PROJECT_ROOT / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_only_the_analysis_loads_scipy():
    """Importing any module under ``repro`` loads no ``scipy``: it costs
    ~0.5 s and ~43 MB, and only the four solver functions
    (``nyquist.phase_crossovers`` / ``find_intersections``,
    ``stability.stability_margin``, ``df_bias.predicted_dt_amplitude``)
    call it - they import it when first called."""
    census = """
        import importlib, pkgutil, sys

        import repro

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        for name in (
            "repro.core", "repro.core.nyquist", "repro.core.stability",
            "repro.experiments.df_bias", "repro.experiments.runner",
            "repro.experiments.report", "repro.cli",
        ):
            assert name in sys.modules, name
        repro.cli.build_parser()
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    assert _run_python(census) == "[]"


def test_first_solve_loads_scipy():
    """The deferral is a deferral: the first root-find still loads
    ``scipy.optimize``, so the dependency has not silently gone."""
    solve = """
        import sys

        import repro.core.nyquist as nyquist
        from repro.core.parameters import paper_dctcp, paper_network

        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert nyquist.phase_crossovers(paper_network(10), paper_dctcp())
        print("scipy.optimize" in sys.modules)
        """
    assert _run_python(solve) == "True"


def test_no_module_level_scipy_import():
    offenders = [
        f"{path.relative_to(PROJECT_ROOT)}:{node.lineno}"
        for path in sorted((PROJECT_ROOT / "src").rglob("*.py"))
        for node in _module_level_imports(path)
        for target in _imported_modules(node)
        if target.split(".")[0] == "scipy"
    ]
    assert offenders == []


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.module == "repro":
        return [f"repro.{alias.name}" for alias in node.names]
    return [node.module or ""]


def test_package_dag():
    offenders = [
        f"{path.relative_to(PROJECT_ROOT)}:{node.lineno}: "
        f"repro.{package} imports {target}"
        for package, allowed in PACKAGE_DAG.items()
        for path in sorted(_package_dir(f"repro.{package}").rglob("*.py"))
        for node in _module_level_imports(path)
        for target in _imported_modules(node)
        if target.startswith("repro.")
        and target.split(".")[1] not in allowed | {package}
    ]
    assert offenders == []
