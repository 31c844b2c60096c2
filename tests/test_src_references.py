"""Every public top-level function, class or constant in src/endolab/, and
every public method of its classes, is used in src/ or scripts/ outside its
own definition: code that only the tests call is wired into a suite or
deleted.  Uses are found by name: a top-level name counts as used wherever
a name or an attribute of that name is read, a method only where an
attribute of its name is read, so a local variable does not hide it."""

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

# Public methods, as Class.method, still used only by the tests or the
# benchmark.  Empty: every public method is used in src/ or scripts/; keep it
# so.
ALLOWED_METHODS = set()


def _uses(tree, skip=None, names=True):
    """The identifiers a module reads, as attributes and, if names, as bare
    names, outside the node skip."""
    skipped = set(ast.walk(skip)) if skip else set()
    for node in ast.walk(tree):
        if node in skipped:
            continue
        if names and isinstance(node, ast.Name):
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


def _trees():
    return {p: ast.parse(p.read_text()) for d in ("src", "scripts") for p in sorted((ROOT / d).rglob("*.py"))}


def _used(name, path, node, trees, names=True):
    """Whether a name is read in the module at path outside node, or in any
    other module; as a bare name too unless names is false."""
    return name in _uses(trees[path], node, names) or any(
        name in _uses(t, names=names) for p, t in trees.items() if p != path
    )


def _check(unused, allowed):
    assert unused <= allowed, f"only the tests use {sorted(unused - allowed)}"
    assert allowed <= unused, f"{sorted(allowed - unused)} are used now: take them off the allow-list"


def test_every_public_definition_is_used():
    trees = _trees()
    unused = set()
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "endolab":
            continue
        for node in tree.body:
            for name in _defined_names(node):
                if not name.startswith("_") and not _used(name, path, node, trees):
                    unused.add(name)
    _check(unused, ALLOWED)


def test_every_public_method_is_used():
    trees = _trees()
    unused = set()
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "endolab":
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    if not _used(node.name, path, node, trees, names=False):
                        unused.add(f"{cls.name}.{node.name}")
    _check(unused, ALLOWED_METHODS)
