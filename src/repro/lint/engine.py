"""AST-based rule engine for determinism lints.

Every headline result in this reproduction rests on byte-identical
determinism — the DT-DCTCP queue traces, the golden trace digests, ECMP
replay equality, and the content-addressed result cache all silently
break if wall-clock reads, unseeded RNG, or unordered iteration leak
into the simulation path.  This engine walks every Python file under
``src/``, parses it once, and runs a pack of AST rules
(:mod:`repro.lint.rules`) over each tree.

Three escape hatches keep the gate workable:

* **inline suppressions** — ``# repro-lint: disable=RULE[,RULE]`` on a
  finding's line (or on a comment-only line immediately above it)
  silences those rules there; add a short justification after the rule
  list.  ``disable=all`` silences every rule.
* **a committed JSON baseline** — grandfathered findings recorded by
  ``repro.cli lint --baseline`` are subtracted from future runs, so the
  gate can land before every legacy finding is fixed.  Baseline entries
  are keyed by ``(rule, file, message)``, *not* line numbers, so
  unrelated edits cannot resurrect them.
* **a result cache** — per-file findings keyed by ``(mtime, size,
  rule-pack signature)`` under ``.repro-lint-cache/``, so a warm re-run
  re-parses only edited files.
"""

from __future__ import annotations

import ast
import io
import json
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "LintEngine",
    "Baseline",
    "default_src_root",
    "default_baseline_path",
    "render_text",
    "render_json",
]

#: Bump when the engine's finding semantics change; part of the result
#: cache key so stale cached findings can never leak across versions.
ENGINE_VERSION = 1

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

    @property
    def baseline_key(self) -> Tuple[str, str, str]:
        """Line-insensitive identity used for baseline matching."""
        return (self.rule, self.path, self.message)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Finding":
        return cls(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            line=int(payload.get("line", 0)),
            message=str(payload["message"]),
        )


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


def default_baseline_path() -> Path:
    """The committed baseline shipped inside the package."""
    return Path(__file__).resolve().parent / "baseline.json"


class Baseline:
    """The committed multiset of grandfathered findings."""

    VERSION = 1

    def __init__(self, findings: Iterable[Finding] = ()):
        self._counts: Dict[Tuple[str, str, str], int] = {}
        for finding in findings:
            key = finding.baseline_key
            self._counts[key] = self._counts.get(key, 0) + 1
        self.entries = tuple(sorted(findings))

    def __len__(self) -> int:
        return sum(self._counts.values())

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        if not path.is_file():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("version") != cls.VERSION:
            raise ValueError(
                f"unsupported baseline version {payload.get('version')!r} "
                f"in {path}"
            )
        return cls(
            Finding.from_dict(entry) for entry in payload.get("findings", [])
        )

    @classmethod
    def write(cls, findings: Sequence[Finding], path: Path) -> None:
        """Persist ``findings`` as the new baseline (sorted, stable)."""
        payload = {
            "version": cls.VERSION,
            "findings": [f.to_dict() for f in sorted(findings)],
        }
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def filter(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding]]:
        """Split ``findings`` into (new, baselined)."""
        remaining = dict(self._counts)
        new: List[Finding] = []
        matched: List[Finding] = []
        for finding in findings:
            key = finding.baseline_key
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                matched.append(finding)
            else:
                new.append(finding)
        return new, matched


class _ResultCache:
    """Per-file findings cache keyed by (mtime_ns, size, signature)."""

    def __init__(self, root: Path, signature: str):
        self.path = root / "cache.json"
        self.signature = signature
        self._entries: Dict[str, Any] = {}
        self._dirty = False
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
            if payload.get("signature") == signature:
                self._entries = payload.get("files", {})
        except (OSError, ValueError):
            self._entries = {}

    @staticmethod
    def _stat_key(path: Path) -> Optional[List[int]]:
        try:
            stat = path.stat()
        except OSError:
            return None
        return [stat.st_mtime_ns, stat.st_size]

    def get(self, path: Path, rel: str) -> Optional[List[Finding]]:
        entry = self._entries.get(rel)
        if entry is None:
            return None
        if entry.get("stat") != self._stat_key(path):
            return None
        return [Finding.from_dict(f) for f in entry.get("findings", [])]

    def put(self, path: Path, rel: str, findings: Sequence[Finding]) -> None:
        stat = self._stat_key(path)
        if stat is None:
            return
        self._entries[rel] = {
            "stat": stat,
            "findings": [f.to_dict() for f in findings],
        }
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(
                json.dumps(
                    {"signature": self.signature, "files": self._entries},
                    sort_keys=True,
                ),
                encoding="utf-8",
            )
        except OSError:
            pass  # a read-only checkout just runs uncached


class LintEngine:
    """Run a rule pack over a source tree (or loose snippets)."""

    def __init__(self, rules: Sequence[Rule]):
        ids = [rule.id for rule in rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate rule ids: {ids}")
        self.rules = tuple(rules)

    @property
    def signature(self) -> str:
        """Cache key component naming the engine + rule pack."""
        return f"v{ENGINE_VERSION}:" + ",".join(r.id for r in self.rules)

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
        cache_dir: Optional[Path] = None,
    ) -> List[Finding]:
        """Lint every ``*.py`` under ``src_root``.

        Finding paths are relative to ``project_root``, which defaults
        to the parent of ``src_root``.
        """
        root = src_root if src_root is not None else default_src_root()
        project = (
            project_root if project_root is not None else root.parent
        )
        cache = (
            _ResultCache(cache_dir, self.signature)
            if cache_dir is not None
            else None
        )
        findings: List[Finding] = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(project).as_posix()
            if cache is not None:
                cached = cache.get(path, rel)
                if cached is not None:
                    findings.extend(cached)
                    continue
            file_findings = self._lint_file(path, root, rel)
            if cache is not None:
                cache.put(path, rel, file_findings)
            findings.extend(file_findings)
        if cache is not None:
            cache.save()
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
    findings: Sequence[Finding],
    baselined: int = 0,
    rules: Sequence[Rule] = (),
) -> str:
    """Human-readable report, one line per finding."""
    titles = {rule.id: rule.title for rule in rules}
    lines = [
        f"{f.path}:{f.line}: {f.rule}: {f.message}"
        + (f"  [{titles[f.rule]}]" if f.rule in titles else "")
        for f in findings
    ]
    summary = f"{len(findings)} finding(s)"
    if baselined:
        summary += f" ({baselined} baselined and hidden)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], baselined: int = 0) -> str:
    """Machine-readable report (stable key order)."""
    return json.dumps(
        {
            "findings": [f.to_dict() for f in findings],
            "count": len(findings),
            "baselined": baselined,
        },
        indent=2,
        sort_keys=True,
    )
