"""Meta-tests: the shipped tree itself satisfies the lint gate.

These are the tests that make the gate real: if a change introduces a
wall-clock read, an unseeded RNG or a stray ``os.environ["REPRO_*"]``,
the tier-1 suite fails — CI wiring or not.
"""

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
