"""Engine mechanics: suppressions, tree walk, output."""

import ast
import json
import textwrap
from pathlib import Path
from typing import Iterator

import pytest

from repro.lint import (
    FileContext,
    Finding,
    LintEngine,
    Rule,
    default_rules,
    render_json,
    render_text,
)


class FlagEveryCall(Rule):
    """Test double: one finding per function call."""

    id = "TST001"
    title = "call flagged"
    rationale = "test double"

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield ctx.finding(self.id, node, "call site")


@pytest.fixture()
def engine():
    return LintEngine([FlagEveryCall()])


def lint(engine, source, module="repro.sim.fixture"):
    return engine.lint_source(textwrap.dedent(source), module=module)


class TestSuppressions:
    def test_trailing_comment_covers_own_line(self, engine):
        assert lint(engine, """\
            f()  # repro-lint: disable=TST001 -- why
            g()
            """) == [
            Finding("TST001", "src/repro/sim/fixture.py", 2, "call site")
        ]

    def test_comment_line_covers_next_code_line(self, engine):
        assert lint(engine, """\
            # repro-lint: disable=TST001 -- why
            f()
            g()
            """) == [
            Finding("TST001", "src/repro/sim/fixture.py", 3, "call site")
        ]

    def test_multiline_justification_reaches_the_code(self, engine):
        assert lint(engine, """\
            # repro-lint: disable=TST001 -- a justification long enough
            # to spill onto a second comment line before the statement.
            f()
            g()
            """) == [
            Finding("TST001", "src/repro/sim/fixture.py", 4, "call site")
        ]

    def test_disable_all_and_rule_lists(self, engine):
        assert lint(engine, """\
            f()  # repro-lint: disable=all
            g()  # repro-lint: disable=TST001,OTHER -- both listed
            h()  # repro-lint: disable=OTHER
            """) == [
            Finding("TST001", "src/repro/sim/fixture.py", 3, "call site")
        ]

    def test_unrelated_comments_do_not_suppress(self, engine):
        assert len(lint(engine, """\
            f()  # plain comment
            # repro-lint enable soon (malformed: no disable=)
            g()
            """)) == 2


class TestLintTree:
    @staticmethod
    def _tree(tmp_path: Path) -> Path:
        src = tmp_path / "src"
        pkg = src / "repro" / "sim"
        pkg.mkdir(parents=True)
        (src / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("f()\n")
        return src

    def test_walks_tree_and_reports(self, engine, tmp_path):
        src = self._tree(tmp_path)
        findings = engine.lint_tree(src_root=src, project_root=tmp_path)
        assert findings == [
            Finding("TST001", "src/repro/sim/mod.py", 1, "call site")
        ]

    def test_syntax_error_becomes_parse_finding(self, engine, tmp_path):
        src = self._tree(tmp_path)
        (src / "repro" / "sim" / "broken.py").write_text("def f(:\n")
        findings = engine.lint_tree(src_root=src, project_root=tmp_path)
        parse = [f for f in findings if f.rule == "PARSE"]
        assert len(parse) == 1
        assert parse[0].path == "src/repro/sim/broken.py"

    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LintEngine([FlagEveryCall(), FlagEveryCall()])


class TestRendering:
    def test_text_includes_location_title_and_summary(self):
        text = render_text(
            [Finding("TST001", "src/a.py", 3, "call site")],
            rules=[FlagEveryCall()],
        )
        assert "src/a.py:3: TST001: call site" in text
        assert "[call flagged]" in text
        assert text.endswith("1 finding(s)")

    def test_json_is_stable_and_parseable(self):
        payload = json.loads(
            render_json([Finding("TST001", "src/a.py", 3, "call site")])
        )
        assert payload["count"] == 1
        assert payload["findings"][0]["path"] == "src/a.py"


class TestDefaultPack:
    def test_rule_ids_unique_and_documented(self):
        rules = default_rules()
        ids = [rule.id for rule in rules]
        assert len(set(ids)) == len(ids) == 6
        for rule in rules:
            assert rule.title and rule.rationale
