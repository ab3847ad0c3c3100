"""AST-based rule engine for determinism lints.

Every headline result in this reproduction rests on byte-identical
determinism — the DT-DCTCP queue traces, the golden trace digests, ECMP
replay equality, and the content-addressed result cache all silently
break if wall-clock reads, unseeded RNG, or unordered iteration leak
into the simulation path.  This engine walks every Python file under
``src/``, parses it once, and runs a pack of AST rules
(:mod:`repro.lint.rules`) over each tree.

One escape hatch keeps the gate workable: **inline suppressions** —
``# repro-lint: disable=RULE[,RULE]`` on a finding's line (or on a
comment-only line immediately above it) silences those rules there; add
a short justification after the rule list.  ``disable=all`` silences
every rule.
"""

from __future__ import annotations

import ast
import io
import json
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "LintEngine",
    "default_src_root",
    "render_text",
    "render_json",
]

#: The inline-suppression marker.  ``# repro-lint: disable=DET001`` or
#: ``# repro-lint: disable=DET001,KRN001 -- why this is fine``.
_SUPPRESS_MARKER = "repro-lint:"

#: Sentinel rule name matching every rule.
_ALL = "all"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


class FileContext:
    """One parsed source file as rules see it."""

    def __init__(self, rel_path: str, module: str, source: str):
        self.rel_path = rel_path
        self.module = module
        self.source = source
        self.tree = ast.parse(source, filename=rel_path)
        self._suppressions = _parse_suppressions(source)

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is disabled on ``line`` by an inline comment."""
        rules = self._suppressions.get(line)
        if rules is None:
            return False
        return _ALL in rules or rule in rules

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.rel_path,
            line=getattr(node, "lineno", 0),
            message=message,
        )


def _parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rules disabled there.

    A trailing comment applies to its own line.  A comment-only line
    applies to itself and to the next *code* line — intervening
    comment-only lines are skipped, so a multi-line justification can
    sit between the directive and the statement it covers.
    """
    by_line: Dict[int, set] = {}
    source_lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            comment = token.string.lstrip("#").strip()
            if not comment.startswith(_SUPPRESS_MARKER):
                continue
            directive = comment[len(_SUPPRESS_MARKER):].strip()
            if not directive.startswith("disable="):
                continue
            # Everything after the rule list is the justification.
            rule_text = directive[len("disable="):].split()[0]
            rules = {r.strip() for r in rule_text.split(",") if r.strip()}
            if not rules:
                continue
            line = token.start[0]
            own_line = token.line.lstrip().startswith("#")
            by_line.setdefault(line, set()).update(rules)
            if own_line:
                # Cover every following comment-only line and the first
                # code line after them (1-based -> 0-based indexing).
                nxt = line + 1
                while (
                    nxt <= len(source_lines)
                    and source_lines[nxt - 1].lstrip().startswith("#")
                ):
                    by_line.setdefault(nxt, set()).update(rules)
                    nxt += 1
                by_line.setdefault(nxt, set()).update(rules)
    except tokenize.TokenError:
        # Unterminated string etc.; ast.parse will raise the real error.
        pass
    return {line: frozenset(rules) for line, rules in by_line.items()}


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``title``/``rationale`` and implement
    :meth:`visit`.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one parsed file."""
        return iter(())


def default_src_root() -> Path:
    """The ``src/`` directory this installed package was loaded from."""
    return Path(__file__).resolve().parents[2]


class LintEngine:
    """Run a rule pack over a source tree (or loose snippets)."""

    def __init__(self, rules: Sequence[Rule]):
        ids = [rule.id for rule in rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate rule ids: {ids}")
        self.rules = tuple(rules)

    # -- single sources (fixtures, tests) ------------------------------

    def lint_source(
        self, source: str, module: str, rel_path: Optional[str] = None
    ) -> List[Finding]:
        """Lint one in-memory snippet as if it were module ``module``."""
        if rel_path is None:
            rel_path = "src/" + module.replace(".", "/") + ".py"
        ctx = FileContext(rel_path=rel_path, module=module, source=source)
        return self._run_file(ctx)

    # -- trees ---------------------------------------------------------

    def lint_tree(
        self,
        src_root: Optional[Path] = None,
        project_root: Optional[Path] = None,
    ) -> List[Finding]:
        """Lint every ``*.py`` under ``src_root``.

        Finding paths are relative to ``project_root``, which defaults
        to the parent of ``src_root``.
        """
        root = src_root if src_root is not None else default_src_root()
        project = (
            project_root if project_root is not None else root.parent
        )
        findings: List[Finding] = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(project).as_posix()
            findings.extend(self._lint_file(path, root, rel))
        findings.sort()
        return findings

    def _lint_file(self, path: Path, src_root: Path, rel: str) -> List[Finding]:
        source = path.read_text(encoding="utf-8")
        module = ".".join(path.relative_to(src_root).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        try:
            ctx = FileContext(rel_path=rel, module=module, source=source)
        except SyntaxError as exc:
            return [
                Finding(
                    rule="PARSE",
                    path=rel,
                    line=exc.lineno or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            ]
        return self._run_file(ctx)

    def _run_file(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for rule in self.rules:
            for finding in rule.visit(ctx):
                if not ctx.suppressed(finding.rule, finding.line):
                    findings.append(finding)
        findings.sort()
        return findings


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------


def render_text(
    findings: Sequence[Finding], rules: Sequence[Rule] = ()
) -> str:
    """Human-readable report, one line per finding."""
    titles = {rule.id: rule.title for rule in rules}
    lines = [
        f"{f.path}:{f.line}: {f.rule}: {f.message}"
        + (f"  [{titles[f.rule]}]" if f.rule in titles else "")
        for f in findings
    ]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (stable key order)."""
    return json.dumps(
        {
            "findings": [f.to_dict() for f in findings],
            "count": len(findings),
        },
        indent=2,
        sort_keys=True,
    )
