"""The strict-typing gate on the deterministic core.

CI runs mypy itself (the ``lint`` job).  Locally, mypy may not be
installed; the mypy run skips cleanly then, but the AST-level
annotation-completeness check below always runs, so an unannotated def
in a strict module fails the tier-1 suite with or without mypy.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PROJECT_ROOT = Path(__file__).resolve().parents[2]

#: Modules under the strict mypy overrides in pyproject.toml.
STRICT_FILES = [
    PROJECT_ROOT / "src" / "repro" / "sim" / "engine.py",
    PROJECT_ROOT / "src" / "repro" / "campaign" / "grid.py",
] + sorted((PROJECT_ROOT / "src" / "repro" / "stats").rglob("*.py"))


def test_py_typed_marker_ships():
    assert (PROJECT_ROOT / "src" / "repro" / "py.typed").is_file()


def test_strict_modules_are_fully_annotated():
    """disallow_untyped_defs/-incomplete_defs, enforced without mypy."""
    problems = []
    for path in STRICT_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            rel = path.relative_to(PROJECT_ROOT)
            if node.returns is None:
                problems.append(f"{rel}:{node.lineno}: {node.name}: no "
                                "return annotation")
            args = node.args
            everything = args.posonlyargs + args.args + args.kwonlyargs
            for i, arg in enumerate(everything):
                if i == 0 and arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    problems.append(f"{rel}:{node.lineno}: {node.name}: "
                                    f"arg {arg.arg!r} unannotated")
            for arg in (args.vararg, args.kwarg):
                if arg is not None and arg.annotation is None:
                    problems.append(f"{rel}:{node.lineno}: {node.name}: "
                                    f"*{arg.arg} unannotated")
    assert problems == []


def test_mypy_config_names_the_strict_modules():
    text = (PROJECT_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "[tool.mypy]" in text
    for module in (
        "repro.sim.engine",
        "repro.stats",
        "repro.campaign.grid",
    ):
        assert f'"{module}"' in text
    assert "disallow_untyped_defs = true" in text


def test_mypy_clean():
    pytest.importorskip("mypy", reason="mypy not installed (CI installs it)")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--no-error-summary"],
        cwd=PROJECT_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"mypy failed:\n{result.stdout}\n{result.stderr}"
    )
