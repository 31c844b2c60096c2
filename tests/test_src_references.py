"""Every public top-level function, class or constant in src/endolab/ is used
in src/ or scripts/ outside its own definition: code that only the tests call
is wired into a suite or deleted."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public names still used only by the tests or the benchmark.  This list may
# only shrink: wire a name into a suite, or delete it, and take it off.
ALLOWED = {
    "herb_sum",
    "herb_sum_direct",
    "hilbert_symbol_oracle",
    "weyl_character",
}


def _uses(tree, skip=None):
    """The identifiers a module reads, as names or attributes, outside the
    node skip."""
    skipped = set(ast.walk(skip)) if skip else set()
    for node in ast.walk(tree):
        if node in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _defined_names(node):
    """The names a top-level statement defines: a function, a class, or the
    plain-name targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_public_definition_is_used():
    trees = {p: ast.parse(p.read_text()) for d in ("src", "scripts") for p in sorted((ROOT / d).rglob("*.py"))}
    unused = set()
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "endolab":
            continue
        for node in tree.body:
            for name in _defined_names(node):
                if name.startswith("_"):
                    continue
                used = name in _uses(tree, skip=node) or any(
                    name in _uses(other) for p, other in trees.items() if p != path
                )
                if not used:
                    unused.add(name)
    assert unused <= ALLOWED, f"only the tests use {sorted(unused - ALLOWED)}"
    assert ALLOWED <= unused, f"{sorted(ALLOWED - unused)} are used now: take them off ALLOWED"
