"""Meta-tests: the shipped tree itself satisfies the lint gate.

These are the tests that make the gate real: if a change introduces a
wall-clock read, an unseeded RNG or a stray ``os.environ["REPRO_*"]``,
the tier-1 suite fails — CI wiring or not.
"""

import json
from pathlib import Path

from repro.lint import (
    Baseline,
    LintEngine,
    default_baseline_path,
    default_rules,
    default_src_root,
)

PROJECT_ROOT = Path(__file__).resolve().parents[2]


def test_default_src_root_is_this_checkout():
    assert default_src_root() == PROJECT_ROOT / "src"


def test_live_tree_lints_clean_modulo_baseline():
    engine = LintEngine(default_rules())
    findings = engine.lint_tree(
        src_root=PROJECT_ROOT / "src", project_root=PROJECT_ROOT
    )
    baseline = Baseline.load(default_baseline_path())
    new, _ = baseline.filter(findings)
    assert new == [], (
        "lint findings not in the committed baseline:\n"
        + "\n".join(f"  {f.path}:{f.line}: {f.rule}: {f.message}" for f in new)
        + "\nFix the finding, add an inline `# repro-lint: disable=...` "
        "with a justification, or (last resort) re-baseline with "
        "`python -m repro.cli lint --baseline`."
    )


def test_committed_baseline_is_empty():
    # The gate launched with every finding fixed or suppressed inline;
    # keep it that way.  Delete this test only with a re-baselining PR
    # that explains which findings were grandfathered and why.
    payload = json.loads(default_baseline_path().read_text())
    assert payload["findings"] == []


def test_no_unregistered_repro_env_reads_anywhere():
    """Belt and braces behind KRN001: grep-level scan of src/."""
    import re

    pattern = re.compile(
        r"(?:os\.environ(?:\.get)?|os\.getenv|environ(?:\.get)?)"
        r"\s*[\(\[]\s*['\"](REPRO_\w+)"
    )
    offenders = []
    for path in sorted((PROJECT_ROOT / "src").rglob("*.py")):
        if path.name == "kernels.py":
            continue
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if pattern.search(line):
                offenders.append(f"{path}:{lineno}: {line.strip()}")
    assert offenders == []
