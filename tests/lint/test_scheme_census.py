"""Census: nothing outside the scheme module asks *which* scheme it has.

A marking scheme is one object (``repro.core.marking``): callers ask it
for its label, marker, describing function or ``fused_threshold``.  The
three ways code used to ask for the scheme's *kind* instead - an
``isinstance``/``type(...) is`` test against a scheme or marker class,
the length of a thresholds tuple, a threshold-count column - may occur
only where the schemes are defined, so a third scheme never needs an
edit anywhere else.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The module(s) defining the schemes.
SCHEME_MODULES = {PACKAGE / "core" / "marking.py"}

SCHEME_CLASSES = {
    "SingleThresholdParams",
    "DoubleThresholdParams",
    "NullMarker",
    "SingleThresholdMarker",
    "DoubleThresholdMarker",
    "REDMarker",
}


def _names(node):
    """Trailing identifiers of a class expression (or a tuple of them)."""
    if isinstance(node, ast.Tuple):
        return {name for element in node.elts for name in _names(element)}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def _is_call_to(node, name):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    )


class _Census(ast.NodeVisitor):
    def __init__(self):
        self.hits = []
        self._classes = []

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Call(self, node):
        if _is_call_to(node, "isinstance") and len(node.args) == 2:
            if _names(node.args[1]) & SCHEME_CLASSES:
                self.hits.append((node.lineno, "isinstance against a scheme class"))
        if _is_call_to(node, "len") and len(node.args) == 1:
            arg = node.args[0]
            bare = isinstance(arg, ast.Name) and arg.id in ("thresholds", "config")
            # ``CampaignGrid.thresholds`` is the axis of configs, not one
            # config: counting its entries is counting cells.
            attr = (
                isinstance(arg, ast.Attribute)
                and arg.attr == "thresholds"
                and "CampaignGrid" not in self._classes
            )
            if bare or attr:
                self.hits.append((node.lineno, "len() of a thresholds tuple"))
        self.generic_visit(node)

    def visit_Compare(self, node):
        operands = [node.left, *node.comparators]
        if any(_is_call_to(operand, "type") for operand in operands) and any(
            _names(operand) & SCHEME_CLASSES for operand in operands
        ):
            self.hits.append((node.lineno, "type(...) against a scheme class"))
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == "n_thresholds":
            self.hits.append((node.lineno, "threshold-count column"))

    def visit_Attribute(self, node):
        if node.attr == "n_thresholds":
            self.hits.append((node.lineno, "threshold-count column"))
        self.generic_visit(node)


def _census(source):
    census = _Census()
    census.visit(ast.parse(source))
    return census.hits


def test_scheme_kind_is_asked_only_where_schemes_are_defined():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path in SCHEME_MODULES:
            continue
        for lineno, what in _census(path.read_text(encoding="utf-8")):
            offenders.append(f"{path.relative_to(PACKAGE)}:{lineno}: {what}")
    assert offenders == []


def test_census_sees_each_spelling():
    """The dispatches this PR removed, as the census would report them."""
    source = '''
class CampaignGrid:
    def n(self):
        return len(self.thresholds)

class CellCoord:
    def n(self):
        return len(self.thresholds)

def f(params, marker, thresholds, config, protocol):
    if isinstance(params, SingleThresholdParams): pass
    if isinstance(params, (parameters.DoubleThresholdParams, int)): pass
    if type(marker) is NullMarker: pass
    if SingleThresholdMarker == type(marker): pass
    if len(thresholds) == 1 or len(config) == 2: pass
    return protocol.n_thresholds
'''
    assert [lineno for lineno, _ in _census(source)] == [
        8, 11, 12, 13, 14, 15, 15, 16,
    ]
    # The one module allowed to count thresholds does.
    (marking,) = SCHEME_MODULES
    assert _census(marking.read_text(encoding="utf-8")) != []
