"""Determinism static analysis for the reproduction.

``python -m repro.cli lint`` runs the pack in :mod:`repro.lint.rules`
over every file under ``src/`` via the engine in
:mod:`repro.lint.engine`.  See ``docs/INVARIANTS.md`` for the invariant
each rule protects and how to suppress a finding.
"""

from repro.lint.engine import (
    FileContext,
    Finding,
    LintEngine,
    Rule,
    default_src_root,
    render_json,
    render_text,
)
from repro.lint.rules import ALL_RULES, default_rules

__all__ = [
    "FileContext",
    "Finding",
    "LintEngine",
    "Rule",
    "ALL_RULES",
    "default_rules",
    "default_src_root",
    "render_json",
    "render_text",
]
